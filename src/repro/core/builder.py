"""Build a functional-cell topology from a trained generic classifier.

This is the front half of the Automatic XPro Generator: it turns the trained
random-subspace ensemble into the dataflow graph of functional cells the
partitioner operates on.  Key rules (Section 2.2/3.1):

- only features actually consumed by a surviving ensemble member become
  cells ("the number of functional cells is decided by the feature set and
  random subspace training");
- the DWT chain is instantiated only as deep as the deepest used sub-band,
  and level 1 performs the 128-sample alignment;
- the Std cell reuses the Var cell (design rule 3, Fig. 5) — a Var cell is
  inserted automatically when Std is used, and shared if Var is also used
  directly;
- min-max normalisation is folded into the SVM member cells.

The one-vs-rest builder (:mod:`repro.core.multiclass`) runs the same
feature front and member loop, then adds its per-class fusion and argmax
cells (§5.7: multi-class only extends the topology).
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.cells.cell import SOURCE_CELL, FunctionalCell, PortRef
from repro.cells.library import (
    make_dwt_cell,
    make_feature_cell,
    make_fusion_cell,
    make_svm_cell,
)
from repro.cells.topology import CellTopology
from repro.core.layout import FeatureLayout
from repro.dsp.normalize import MinMaxNormalizer
from repro.errors import ConfigurationError
from repro.hw.energy import EnergyLibrary
from repro.ml.subspace import RandomSubspaceClassifier


def build_topology(
    layout: FeatureLayout,
    ensemble: RandomSubspaceClassifier,
    normalizer: MinMaxNormalizer,
    energy_lib: EnergyLibrary,
) -> CellTopology:
    """Construct the cell topology realising a trained generic classifier.

    Args:
        layout: Feature layout (must match what the ensemble was trained on).
        ensemble: Trained random-subspace classifier.
        normalizer: Min-max normalizer fitted on the training features.
        energy_lib: Energy model used for per-module ALU-mode selection.

    Returns:
        A validated :class:`~repro.cells.topology.CellTopology` whose
        monolithic execution reproduces ``ensemble.predict`` exactly.
    """
    cells, feature_ports = _feature_front(layout, ensemble, normalizer, energy_lib)
    member_refs = _add_member_cells(
        cells, ensemble, feature_ports, normalizer, energy_lib, "svm_m"
    )
    fusion_cell = make_fusion_cell(ensemble.fusion, member_refs, energy_lib)
    cells.append(fusion_cell)
    return CellTopology(
        segment_length=layout.segment_length,
        cells=cells,
        result=PortRef(fusion_cell.name, "out"),
    )


def _feature_front(
    layout: FeatureLayout,
    classifier: Any,
    normalizer: MinMaxNormalizer,
    energy_lib: EnergyLibrary,
) -> Tuple[List[FunctionalCell], Dict[int, PortRef]]:
    """The DWT chain and feature cells feeding a fitted classifier.

    ``classifier`` is anything with ``is_fitted``, ``n_features`` and
    ``used_feature_indices()`` (a binary ensemble or a one-vs-rest stack).

    Returns:
        The cells in topological order, and the producing port of every
        used flat feature index.
    """
    if not classifier.is_fitted:
        raise ConfigurationError("classifier must be fitted before building cells")
    if not normalizer.is_fitted:
        raise ConfigurationError("normalizer must be fitted before building cells")
    if classifier.n_features != layout.n_features:
        raise ConfigurationError(
            f"classifier dimension {classifier.n_features} != layout "
            f"{layout.n_features}"
        )

    used = classifier.used_feature_indices()
    used_by_domain: Dict[int, Set[str]] = {}
    for index in used:
        domain, fname = layout.feature_of(index)
        used_by_domain.setdefault(domain, set()).add(fname)

    cells: List[FunctionalCell] = []

    # -- DWT chain (only as deep as needed) -----------------------------------
    deepest = max(
        (layout.dwt_level_of_domain(d) for d in used_by_domain), default=0
    )
    prev_ref = PortRef(SOURCE_CELL, "out")
    domain_ports: Dict[int, PortRef] = {0: prev_ref}  # domain -> producing port
    length = layout.dwt_aligned_length
    for level in range(1, deepest + 1):
        cell = make_dwt_cell(
            level,
            prev_ref,
            length,
            energy_lib,
            align_to=layout.dwt_aligned_length if level == 1 else None,
        )
        cells.append(cell)
        if level < layout.dwt_levels:
            domain_ports[level] = PortRef(cell.name, "detail")
        else:  # the last level yields A_L (domain L) and D_L (domain L + 1)
            domain_ports[level] = PortRef(cell.name, "approx")
            domain_ports[level + 1] = PortRef(cell.name, "detail")
        prev_ref = PortRef(cell.name, "approx")
        length //= 2

    # -- feature cells (with Var->Std reuse) -----------------------------------
    domain_lengths = layout.domain_lengths()
    feature_ports: Dict[int, PortRef] = {}
    per_domain = len(layout.feature_names)
    for domain in sorted(used_by_domain):
        names = used_by_domain[domain]
        if "std" in names:
            names.add("var")  # Std reads its Var cell
        seg_ref = domain_ports[domain]
        for fname in sorted(names, key=lambda n: (n != "var", n)):  # Var first
            cell = make_feature_cell(
                fname,
                PortRef(f"var@seg{domain}", "out") if fname == "std" else seg_ref,
                domain_lengths[domain],
                energy_lib,
                name=f"{fname}@seg{domain}",
            )
            cells.append(cell)
            idx = domain * per_domain + layout.feature_names.index(fname)
            if idx in used:
                feature_ports[idx] = PortRef(cell.name, "out")
    return cells, feature_ports


def _add_member_cells(
    cells: List[FunctionalCell],
    ensemble: RandomSubspaceClassifier,
    feature_ports: Dict[int, PortRef],
    normalizer: MinMaxNormalizer,
    energy_lib: EnergyLibrary,
    prefix: str,
) -> List[PortRef]:
    """Append one SVM cell per ensemble member, named ``<prefix><i>``, with
    min-max normalisation folded in; returns their score ports."""
    mins = normalizer.mins
    ranges = normalizer.ranges
    member_refs: List[PortRef] = []
    for i, member in enumerate(ensemble.members):
        sub = list(member.feature_indices)
        cell = make_svm_cell(
            i,
            member.classifier,
            [feature_ports[idx] for idx in sub],
            mins[sub],
            ranges[sub],
            energy_lib,
            name=f"{prefix}{i}",
        )
        cells.append(cell)
        member_refs.append(PortRef(cell.name, "out"))
    return member_refs
