"""The functional-cell model.

A cell is the smallest data-driven unit of XPro (Section 3.1.1): it wakes
when all its inputs are available, executes its task on a private S-ALU, and
emits its outputs.  In this reproduction a cell carries:

- the **op counts** its S-ALU executes per event (for the in-sensor energy
  and delay models, and — reweighted — for the aggregator CPU model);
- its chosen **ALU mode** (serial/parallel/pipeline, Section 3.1.2);
- typed **output ports** with data dimensions and on-air bit widths (for the
  wireless energy model when an edge crosses ends); and
- an executable ``compute`` function, so a partitioned engine can actually
  run the pipeline and be checked against the monolithic implementation.

Bit-width conventions (Section 4.4 + DESIGN.md): raw ADC samples travel at
16 bits, intermediate values (DWT samples, normalised features, SVM scores)
at 16 bits, and the final classification result as a single 8-bit value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.hw.energy import ALUMode

#: Reserved name of the virtual source producer (the sensed data segment).
SOURCE_CELL = "__source__"

#: On-air bits of one raw ADC sample.
SOURCE_BITS = 16
#: On-air bits of one full-scale intermediate sample (DWT band values).
VALUE_BITS = 16
#: On-air bits of one normalised scalar (feature values, member scores):
#: values confined to [0, 1] (or a trained score range) need only 8 bits of
#: quantisation on the air, even though the datapath computes them in Q16.16.
FEATURE_BITS = 8
#: On-air bits of the final classification result.
RESULT_BITS = 8


@dataclass(frozen=True)
class PortRef:
    """Reference to one output port of one cell: ``(cell, port)``.

    The virtual source segment is addressed as
    ``PortRef(SOURCE_CELL, "out")``.
    """

    cell: str
    port: str = "out"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.cell}.{self.port}"


@dataclass(frozen=True)
class OutputPort:
    """One typed output of a cell.

    Attributes:
        name: Port name, unique within the cell.
        n_values: Number of values produced per event.
        bits_per_value: On-air width if this port crosses ends.
    """

    name: str
    n_values: int
    bits_per_value: int = VALUE_BITS

    def __post_init__(self) -> None:
        if self.n_values <= 0:
            raise ConfigurationError("port n_values must be positive")
        if self.bits_per_value <= 0:
            raise ConfigurationError("port bits_per_value must be positive")

    @property
    def bits(self) -> int:
        """Payload bits of this port's data (headers added by the link)."""
        return self.n_values * self.bits_per_value


ComputeFn = Callable[[Sequence[np.ndarray]], Dict[str, np.ndarray]]

#: A fused step over a group of sibling cells: maps the values of the refs
#: it reads, concatenated in order into one flat float64 array, to every
#: output value of the group, concatenated in ``(cell, port)`` order.
GroupFn = Callable[[np.ndarray], Sequence[float]]


@dataclass(frozen=True, slots=True)
class CellFamily:
    """How a library cell runs together with its same-end siblings.

    The paper's functional cells of one module run side by side and share
    work (design rule 3: Std reuses Var).  A cell that records its family
    lets an executor run all the cells of that family on one end as one
    step (see :class:`~repro.core.engine.CrossEndEngine`); the cell's own
    ``compute`` is the same kernel over the cell alone.

    Attributes:
        key: Which cells of the family share one kernel inside the step:
            feature cells of one band share a band, SVM members of one
            kernel signature and dimension share a stacked scorer.
            ``None`` means the cell has no kernel of its own and the step
            computes it from the value it reads (Std from its Var).
        constants: This cell's constants, as ``build`` reads them.
        build: The family's step builder: for an ordered group of its
            cells on one end and a function giving a port's value count,
            returns the refs the fused step reads and the
            :data:`GroupFn` computing every group output from them.
    """

    key: Optional[Hashable]
    constants: Any
    build: Callable[
        [Sequence["FunctionalCell"], Callable[[PortRef], int]],
        Tuple[Tuple[PortRef, ...], GroupFn],
    ]


@dataclass(frozen=True)
class FunctionalCell:
    """One functional cell of the analytic engine.

    Attributes:
        name: Globally unique cell name (e.g. ``"skew@seg0"``, ``"svm_m3"``).
        module: Module family name (``"skew"``, ``"dwt"``, ``"svm"``,
            ``"fusion"``...) — cells of one module share an ALU mode
            (the paper's monotonic-mode rule).
        op_counts: S-ALU op name -> count per event, for the *chosen* mode's
            realisation of the algorithm.
        mode: The ALU working mode the cell is implemented in.
        inputs: Ordered references to the producer ports this cell consumes.
        outputs: The cell's output ports.
        compute: Executable semantics: takes input arrays (same order as
            ``inputs``) and returns ``{port_name: array}``.
        parallel_width: Replication width if ``mode`` is PARALLEL.
        family: The cell's :class:`CellFamily`, set by the
            :mod:`repro.cells.library` constructors; cells without one
            (hand-made cells) always run alone through :meth:`execute`.
    """

    name: str
    module: str
    op_counts: Mapping[str, int]
    mode: ALUMode
    inputs: Tuple[PortRef, ...]
    outputs: Tuple[OutputPort, ...]
    compute: ComputeFn = field(compare=False, repr=False)
    parallel_width: int | None = None
    family: Optional[CellFamily] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name or self.name == SOURCE_CELL:
            raise ConfigurationError(f"invalid cell name {self.name!r}")
        if not self.outputs:
            raise ConfigurationError(f"cell {self.name!r} has no outputs")
        port_names = [p.name for p in self.outputs]
        if len(set(port_names)) != len(port_names):
            raise ConfigurationError(f"duplicate port names in cell {self.name!r}")

    def port(self, name: str) -> OutputPort:
        """Look up one of this cell's output ports by name."""
        for p in self.outputs:
            if p.name == name:
                return p
        raise TopologyError(f"cell {self.name!r} has no port {name!r}")

    def execute(self, input_arrays: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        """Run the cell's semantics, validating output shape against ports."""
        if len(input_arrays) != len(self.inputs):
            raise TopologyError(
                f"cell {self.name!r} expects {len(self.inputs)} inputs, "
                f"got {len(input_arrays)}"
            )
        result = self.compute(input_arrays)
        for port in self.outputs:
            if port.name not in result:
                raise TopologyError(
                    f"cell {self.name!r} did not produce port {port.name!r}"
                )
            arr = np.asarray(result[port.name], dtype=np.float64)
            if arr.ndim == 0:  # np.atleast_1d without its per-call dispatch
                arr = arr.reshape(1)
            if arr.size != port.n_values:
                raise TopologyError(
                    f"cell {self.name!r} port {port.name!r} produced "
                    f"{arr.size} values, declared {port.n_values}"
                )
            result[port.name] = arr
        return result
