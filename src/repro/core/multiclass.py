"""Multi-class XPro topologies (paper §5.7).

Builds the functional-cell topology for a one-vs-rest multi-class
classifier: the shared DWT chain and feature cells, every per-class SVM
member cell, one score-fusion cell per class, and a final argmax cell
whose output (the winning class index) is the result the aggregator
receives.  The Automatic XPro Generator and the cross-end engine apply
unchanged — this module only *extends the topology*, exactly as the paper
describes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.cells.cell import RESULT_BITS, FunctionalCell, OutputPort, PortRef
from repro.cells.library import choose_alu_mode
from repro.cells.topology import CellTopology
from repro.core.builder import _add_member_cells, _feature_front
from repro.core.layout import FeatureLayout
from repro.dsp.normalize import MinMaxNormalizer
from repro.hw.energy import ALUMode, EnergyLibrary
from repro.ml.fusion import WeightedVotingFusion
from repro.ml.multiclass import OneVsRestSubspaceClassifier


def _make_class_fusion_cell(
    class_index: int,
    fusion: WeightedVotingFusion,
    member_refs: Sequence[PortRef],
    energy_lib: EnergyLibrary,
) -> FunctionalCell:
    """Score-fusion cell for one one-vs-rest class (8-bit score port)."""
    counts = fusion.operation_counts()
    mode, chosen = choose_alu_mode(
        {m: counts for m in ALUMode}, energy_lib, parallel_width=len(member_refs)
    )
    weights = fusion.weights
    intercept = fusion.intercept

    def compute(inputs: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        scores = np.array([float(np.atleast_1d(v)[0]) for v in inputs])
        return {"out": np.array([float(scores @ weights + intercept)])}

    return FunctionalCell(
        name=f"fusion_c{class_index}",
        module="fusion",
        op_counts=chosen,
        mode=mode,
        inputs=tuple(member_refs),
        outputs=(OutputPort("out", 1, 8),),
        compute=compute,
        parallel_width=len(member_refs),
    )


def _make_argmax_cell(
    class_refs: Sequence[PortRef], energy_lib: EnergyLibrary
) -> FunctionalCell:
    """Final winner-take-all cell emitting the class index."""
    k = len(class_refs)
    counts = {"cmp": max(k - 1, 1)}
    mode, chosen = choose_alu_mode(
        {m: counts for m in ALUMode}, energy_lib, parallel_width=k
    )

    def compute(inputs: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        scores = np.array([float(np.atleast_1d(v)[0]) for v in inputs])
        return {"out": np.array([float(int(scores.argmax()))])}

    return FunctionalCell(
        name="argmax",
        module="argmax",
        op_counts=chosen,
        mode=mode,
        inputs=tuple(class_refs),
        outputs=(OutputPort("out", 1, RESULT_BITS),),
        compute=compute,
        parallel_width=k,
    )


def build_multiclass_topology(
    layout: FeatureLayout,
    classifier: OneVsRestSubspaceClassifier,
    normalizer: MinMaxNormalizer,
    energy_lib: EnergyLibrary,
) -> CellTopology:
    """Construct the cell topology for a trained one-vs-rest classifier.

    The front of :func:`repro.core.builder.build_topology` over the union
    of every class's subspaces (feature cells are shared across classes),
    then per class its member cells ``svm_c<k>_m<i>`` and score-fusion cell
    ``fusion_c<k>``; the result is the ``argmax`` cell's class-index
    output.
    """
    cells, feature_ports = _feature_front(layout, classifier, normalizer, energy_lib)
    class_refs: List[PortRef] = []
    for k, ensemble in enumerate(classifier.per_class):
        member_refs = _add_member_cells(
            cells, ensemble, feature_ports, normalizer, energy_lib, f"svm_c{k}_m"
        )
        fusion_cell = _make_class_fusion_cell(
            k, ensemble.fusion, member_refs, energy_lib
        )
        cells.append(fusion_cell)
        class_refs.append(PortRef(fusion_cell.name, "out"))

    argmax_cell = _make_argmax_cell(class_refs, energy_lib)
    cells.append(argmax_cell)

    return CellTopology(
        segment_length=layout.segment_length,
        cells=cells,
        result=PortRef("argmax", "out"),
    )


def classify_multiclass(topology: CellTopology, segment: np.ndarray) -> int:
    """Monolithic multi-class decision: the argmax cell's emitted index."""
    values = topology.execute(segment)
    return int(round(float(np.atleast_1d(values[topology.result])[0])))
