"""Cell constructors for every module family + ALU-mode selection (Fig. 4).

The generic classification decomposes into four module families:

- **statistical feature cells** (8 kinds) operating on a segment port;
- **DWT level cells**, each consuming an approximation band and producing
  the next approximation + detail bands;
- **SVM member cells**, consuming the feature values of their random
  subspace (normalisation folded in) and producing one decision score;
- **the score-fusion cell**, consuming all member scores and producing the
  final classification score.

Two of the paper's three heuristic design rules live here:

- *ALU mode selection* (rule 2): every constructor asks
  :func:`choose_alu_mode` for the module's energy-optimal monotonic mode
  under the target :class:`~repro.hw.energy.EnergyLibrary`.  For the DWT the
  realisation itself is mode-dependent — serial/parallel are matrix
  multiplications, pipeline is a filter bank — which is what makes its
  parallel mode two orders of magnitude more expensive (Fig. 4).
- *cell-level reuse* (rule 3): the Std cell consumes the Var cell's output
  and adds only a square root (Fig. 5); the pipeline builder instantiates
  the Var predecessor automatically.

Feature cells emit raw (unnormalised) feature values; the [0, 1] min-max
normalisation of Section 4.4 is folded into the consuming SVM member cells
as a per-input affine (1 sub, 1 mul, 2 clip-compares), the way a hardware
implementation would fuse a constant affine into the kernel datapath.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cells.cell import (
    FEATURE_BITS,
    RESULT_BITS,
    VALUE_BITS,
    CellFamily,
    FunctionalCell,
    GroupFn,
    OutputPort,
    PortRef,
)
from repro.dsp import features as feat
from repro.dsp.wavelet import dwt_single_level
from repro.errors import ConfigurationError, TopologyError
from repro.hw.energy import ALUMode, EnergyLibrary
from repro.ml.fusion import WeightedVotingFusion
from repro.ml.svm import SVMClassifier, StackedScorer


def _merge_counts(*counts: Mapping[str, int]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for mapping in counts:
        for op, count in mapping.items():
            out[op] = out.get(op, 0) + count
    return out


def choose_alu_mode(
    op_counts_by_mode: Mapping[ALUMode, Mapping[str, int]],
    energy_lib: EnergyLibrary,
    parallel_width: Optional[int] = None,
) -> Tuple[ALUMode, Dict[str, int]]:
    """Pick the energy-optimal ALU mode for one module (design rule 2).

    Args:
        op_counts_by_mode: Op counts of the module's realisation per mode
            (identical mappings for algorithms that do not change with the
            mode).
        energy_lib: Energy model deciding the optimum.
        parallel_width: Unit replication width for PARALLEL mode.

    Returns:
        ``(mode, op_counts)`` of the cheapest mode.
    """
    best_mode: Optional[ALUMode] = None
    best_energy = float("inf")
    for mode in ALUMode:
        counts = op_counts_by_mode.get(mode)
        if counts is None:
            continue
        energy = energy_lib.cell_cost(counts, mode, parallel_width).energy_j
        if energy < best_energy:
            best_energy = energy
            best_mode = mode
    if best_mode is None:
        raise ConfigurationError("no ALU mode candidates supplied")
    return best_mode, dict(op_counts_by_mode[best_mode])


def _uniform_modes(counts: Mapping[str, int]) -> Dict[ALUMode, Mapping[str, int]]:
    """The common case: the algorithm is the same in every mode."""
    return {mode: counts for mode in ALUMode}


# -- statistical feature cells --------------------------------------------------


def _std_of(variance: float) -> float:
    """Std from its Var cell's value (cell-level reuse, Fig. 5)."""
    return math.sqrt(max(variance, 0.0))


def _feature_step(
    cells: Sequence[FunctionalCell], size: Callable[[PortRef], int]
) -> Tuple[Tuple[PortRef, ...], GroupFn]:
    """Fused step of the feature cells on one end: one
    :func:`repro.dsp.features.multiband_kernel` pass over their bands laid
    side by side, and each Std (keyless) as the square root of the value
    it reads, as its own ``compute`` takes it: a group member's value, or
    the first value of a port read after the bands."""
    position = {PortRef(cell.name, "out"): i for i, cell in enumerate(cells)}
    names: Dict[PortRef, List[str]] = {}  # band -> its features, in group order
    outside: Dict[PortRef, int] = {}  # port a Std reads -> its offset past the bands
    for cell in cells:
        ref = cell.inputs[0]
        if cell.family.key is not None:
            names.setdefault(ref, []).append(cell.family.constants)
        elif ref not in position and ref not in outside:
            outside[ref] = sum(size(r) for r in outside)
    bands = tuple(names)
    width = sum(size(ref) for ref in bands)
    kernel = (
        feat.multiband_kernel(
            tuple(size(ref) for ref in bands), tuple(tuple(names[ref]) for ref in bands)
        )
        if bands
        else None
    )
    # Each cell's index in the kernel's values (a Std's is a placeholder),
    # and each Std's source: a group member's value or a value read after
    # the bands.
    start = dict(zip(bands, np.cumsum([0] + [len(names[ref]) for ref in bands]).tolist()))
    take: List[int] = []
    stds: List[Tuple[int, bool, int]] = []
    for i, cell in enumerate(cells):
        ref = cell.inputs[0]
        if cell.family.key is not None:
            take.append(start[ref])
            start[ref] += 1
        else:
            take.append(0)
            inside = ref in position
            stds.append((i, inside, position[ref] if inside else outside[ref]))

    index = np.array(take, dtype=np.intp)

    def run(x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(take)) if kernel is None else kernel(x[:width])[index]
        extra = x[width:]
        for i, inside, r in stds:  # in group order, so out[r] is already final
            out[i] = _std_of(out[r] if inside else extra[r])
        return out

    return bands + tuple(outside), run


def make_feature_cell(
    feature_name: str,
    segment_ref: PortRef,
    segment_length: int,
    energy_lib: EnergyLibrary,
    name: Optional[str] = None,
) -> FunctionalCell:
    """Build one statistical feature cell reading a segment port.

    For ``"std"`` the returned cell expects the *Var cell's output* as its
    input (cell-level reuse, Fig. 5) — pass the Var cell's port as
    ``segment_ref`` and the original segment length for the op model.

    The cell's family runs it in one step with the other feature cells on
    its end, keyed on its band; its ``compute`` runs
    :func:`repro.dsp.features.band_kernel` over itself alone.  Std has no
    key: the step, like its ``compute``, takes the square root of the
    value it reads.
    """
    if feature_name not in feat.FEATURE_NAMES:
        raise ConfigurationError(f"unknown feature {feature_name!r}")
    counts = feat.operation_counts(feature_name, segment_length)
    mode, chosen = choose_alu_mode(
        _uniform_modes(counts), energy_lib, parallel_width=min(64, segment_length)
    )
    cell_name = name or f"{feature_name}@{segment_ref.cell}.{segment_ref.port}"

    if feature_name == "std":
        key = None

        def compute(inputs: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
            return {"out": np.array([_std_of(float(np.atleast_1d(inputs[0])[0]))])}

    else:
        key = segment_ref
        kernel = feat.band_kernel((feature_name,))

        def compute(inputs: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
            return {"out": np.array(kernel(inputs[0]))}

    return FunctionalCell(
        name=cell_name,
        module=feature_name,
        op_counts=chosen,
        mode=mode,
        inputs=(segment_ref,),
        outputs=(OutputPort("out", 1, FEATURE_BITS),),
        compute=compute,
        parallel_width=min(64, segment_length),
        family=CellFamily(key, feature_name, _feature_step),
    )


# -- DWT cells -------------------------------------------------------------------


def dwt_op_counts(input_length: int, mode: ALUMode) -> Dict[str, int]:
    """Op counts of one Haar DWT level in the given mode's realisation.

    Pipeline realises the level as a polyphase filter bank (two Haar taps,
    so two multiplies per output sample); serial and parallel realise it as the
    dense transform-matrix multiplication the paper describes ("the DWT is a
    matrix multiplication"), which is what makes those modes so expensive.
    """
    m = int(input_length)
    if m < 2 or m % 2:
        raise ConfigurationError("DWT input length must be even and >= 2")
    if mode is ALUMode.PIPELINE:
        return {"mul": m * 2, "add": m}
    return {"mul": m * m, "add": m * (m - 1)}


def make_dwt_cell(
    level: int,
    input_ref: PortRef,
    input_length: int,
    energy_lib: EnergyLibrary,
    align_to: Optional[int] = None,
) -> FunctionalCell:
    """Build the Haar DWT cell for one decomposition level.

    Outputs two ports, ``approx`` and ``detail``, each of half the input
    length — they are distinct data items for the partitioner, because a
    cross-end cut may need to transmit one band but not the other.

    Args:
        level: Decomposition level (1-based; used in the cell name).
        input_ref: Producer port of the band to decompose.
        input_length: Length of the band *as processed* (i.e. after
            alignment for level 1).
        energy_lib: Energy model for mode selection.
        align_to: If given (level 1 only), the compute function first
            truncates/zero-pads its input to this length — the fixed
            128-sample alignment of Section 4.4.
    """
    if align_to is not None and align_to != input_length:
        raise ConfigurationError("align_to must equal input_length when set")
    by_mode = {mode: dwt_op_counts(input_length, mode) for mode in ALUMode}
    width = min(64, input_length)
    mode, chosen = choose_alu_mode(by_mode, energy_lib, parallel_width=width)
    half = input_length // 2

    if align_to is not None:
        from repro.core.layout import align_segment  # repro.core imports this module

    def compute(inputs: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        data = np.asarray(inputs[0], dtype=np.float64)
        if align_to is not None:
            data = align_segment(data, align_to)
        approx, detail = dwt_single_level(data)
        return {"approx": approx, "detail": detail}

    return FunctionalCell(
        name=f"dwt_l{level}",
        module="dwt",
        op_counts=chosen,
        mode=mode,
        inputs=(input_ref,),
        outputs=(
            OutputPort("approx", half, VALUE_BITS),
            OutputPort("detail", half, VALUE_BITS),
        ),
        compute=compute,
        parallel_width=width,
    )


# -- SVM member cells --------------------------------------------------------------


def svm_cell_op_counts(classifier: SVMClassifier) -> Dict[str, int]:
    """Op counts of one SVM member cell, normalisation affine included."""
    d = classifier.dimension
    norm_ops = {"sub": d, "mul": d, "cmp": 2 * d}
    return _merge_counts(classifier.operation_counts(), norm_ops)


class _Member(NamedTuple):
    """An SVM member cell's constants: the classifier and the per-input
    normalisation affine folded into the cell."""

    classifier: SVMClassifier
    mins: np.ndarray
    ranges: np.ndarray


def _svm_kernel(members: Sequence[_Member]) -> Callable[[np.ndarray], List[float]]:
    """Scores of SVM members from their flat inputs (member by member,
    each in its classifier's feature order): one normalisation of the
    ``(k, d)`` queries and one :class:`~repro.ml.svm.StackedScorer`
    pass."""
    mins = np.stack([m.mins for m in members])
    ranges = np.stack([m.ranges for m in members])
    scorer = StackedScorer([m.classifier for m in members])
    shape = mins.shape

    def run(raw: np.ndarray) -> List[float]:
        return scorer.scores(np.clip((raw.reshape(shape) - mins) / ranges, 0.0, 1.0))

    return run


def _svm_step(
    cells: Sequence[FunctionalCell], size: Callable[[PortRef], int]
) -> Tuple[Tuple[PortRef, ...], GroupFn]:
    """Fused step of SVM member cells: one :func:`_svm_kernel` per family
    key, so members of different kernels never share a scorer."""
    refs = tuple(ref for cell in cells for ref in cell.inputs)
    if any(size(ref) != 1 for ref in refs):
        raise TopologyError("SVM member inputs must be one value each")
    by_key: Dict[Hashable, List[int]] = {}
    for i, cell in enumerate(cells):
        by_key.setdefault(cell.family.key, []).append(i)
    if len(by_key) == 1:
        return refs, _svm_kernel([cell.family.constants for cell in cells])
    starts = np.cumsum([0] + [len(cell.inputs) for cell in cells]).tolist()
    parts = [
        (
            np.concatenate([np.arange(starts[i], starts[i + 1]) for i in members]),
            members,
            _svm_kernel([cells[i].family.constants for i in members]),
        )
        for members in by_key.values()
    ]

    def run(x: np.ndarray) -> np.ndarray:
        scores = np.empty(len(cells))
        for take, members, kernel in parts:
            scores[members] = kernel(x[take])
        return scores

    return refs, run


def make_svm_cell(
    member_index: int,
    classifier: SVMClassifier,
    feature_refs: Sequence[PortRef],
    feature_mins: np.ndarray,
    feature_ranges: np.ndarray,
    energy_lib: EnergyLibrary,
    name: Optional[str] = None,
) -> FunctionalCell:
    """Build one SVM member cell over its subspace's feature ports.

    The cell's family runs it in one step with the other members on its
    end, sharing a stacked scorer with those of its kernel and dimension;
    its ``compute`` runs the same scorer over itself alone.

    Args:
        member_index: Position of this member in the ensemble.
        classifier: The trained base SVM (defines op counts and semantics).
        feature_refs: Producer ports of the subspace features, in the order
            the classifier was trained on.
        feature_mins: Per-input normalisation minima (training-set fit).
        feature_ranges: Per-input normalisation ranges (zeros not allowed).
        energy_lib: Energy model for mode selection.
        name: Cell name override (default ``svm_m<member_index>``).
    """
    if len(feature_refs) != classifier.dimension:
        raise ConfigurationError(
            f"member {member_index} expects {classifier.dimension} features, "
            f"got {len(feature_refs)} refs"
        )
    mins = np.asarray(feature_mins, dtype=np.float64)
    ranges = np.asarray(feature_ranges, dtype=np.float64)
    if mins.shape != (classifier.dimension,) or ranges.shape != mins.shape:
        raise ConfigurationError("normalisation parameter shape mismatch")
    if np.any(ranges <= 0):
        raise ConfigurationError("feature ranges must be positive")
    counts = svm_cell_op_counts(classifier)
    mode, chosen = choose_alu_mode(
        _uniform_modes(counts), energy_lib, parallel_width=min(64, classifier.dimension)
    )
    member = _Member(classifier, mins, ranges)
    kernel: Optional[Callable[[np.ndarray], List[float]]] = None

    def compute(inputs: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        nonlocal kernel
        raw = np.concatenate(inputs)
        if raw.size != mins.size:
            raise TopologyError("SVM member inputs must be one value each")
        if kernel is None:  # built on first use: most topologies never run it
            kernel = _svm_kernel([member])
        return {"out": np.array(kernel(raw))}

    return FunctionalCell(
        name=name or f"svm_m{member_index}",
        module="svm",
        op_counts=chosen,
        mode=mode,
        inputs=tuple(feature_refs),
        outputs=(OutputPort("out", 1, FEATURE_BITS),),
        compute=compute,
        parallel_width=min(64, classifier.dimension),
        family=CellFamily(
            ("svm", classifier.kernel.signature, classifier.dimension),
            member,
            _svm_step,
        ),
    )


# -- score fusion cell ----------------------------------------------------------------


def make_fusion_cell(
    fusion: WeightedVotingFusion,
    member_refs: Sequence[PortRef],
    energy_lib: EnergyLibrary,
) -> FunctionalCell:
    """Build the final weighted-voting score-fusion cell."""
    if len(member_refs) != len(fusion.weights):
        raise ConfigurationError(
            f"fusion fitted for {len(fusion.weights)} members, "
            f"got {len(member_refs)} refs"
        )
    counts = fusion.operation_counts()
    mode, chosen = choose_alu_mode(
        _uniform_modes(counts), energy_lib, parallel_width=min(64, len(member_refs))
    )
    weights = fusion.weights
    intercept = fusion.intercept

    def compute(inputs: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        scores = np.concatenate(inputs)
        return {"out": np.array([float(scores @ weights + intercept)])}

    return FunctionalCell(
        name="fusion",
        module="fusion",
        op_counts=chosen,
        mode=mode,
        inputs=tuple(member_refs),
        outputs=(OutputPort("out", 1, RESULT_BITS),),
        compute=compute,
        parallel_width=min(64, len(member_refs)),
    )


# -- Figure 4 characterisation ----------------------------------------------------------


def _representative_svm_counts(n_sv: int = 100, dim: int = 12) -> Dict[str, int]:
    """Op counts of a representative RBF SVM member (for Fig. 4 only)."""
    return _merge_counts(
        {
            "sub": dim * n_sv + dim,
            "mul": (dim + 1) * n_sv + n_sv + dim,
            "add": (dim - 1) * n_sv + n_sv,
            "super": n_sv,
            "cmp": 1 + 2 * dim,
        }
    )


#: Fig. 4 module set: op counts per mode at representative sizes
#: (128-sample segment, Haar DWT level, 100-SV 12-dim RBF SVM, 10-member
#: fusion), plus the parallel replication width.
FIG4_MODULES: Dict[str, Tuple[Dict[ALUMode, Mapping[str, int]], int]] = {
    **{
        name: (_uniform_modes(feat.operation_counts(name, 128)), 64)
        for name in feat.FEATURE_NAMES
    },
    "dwt": ({mode: dwt_op_counts(128, mode) for mode in ALUMode}, 64),
    "svm": (_uniform_modes(_representative_svm_counts()), 12),
    "fusion": (_uniform_modes({"mul": 10, "add": 10, "cmp": 1}), 10),
}


def characterize_all_modules(energy_lib: EnergyLibrary):
    """Per-mode energy characterisation of all Fig. 4 modules.

    Returns:
        List of :class:`~repro.hw.energy.ModeCharacterization`, one per
        module, in a stable order.
    """
    rows = []
    for module, (by_mode, width) in FIG4_MODULES.items():
        rows.append(energy_lib.characterize_module(module, by_mode, width))
    return rows
