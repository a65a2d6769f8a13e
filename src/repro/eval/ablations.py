"""Ablation studies of XPro's design choices.

DESIGN.md calls out the design decisions the paper justifies informally;
each function here quantifies one of them on a trained topology:

- :func:`alu_mode_ablation` — design rule 2 (per-module energy-optimal ALU
  mode) vs forcing a single monotonic mode everywhere;
- :func:`cell_reuse_ablation` — design rule 3 (Std reuses the Var cell) vs
  duplicating the variance datapath inside every Std cell;
- :func:`ensemble_ablation` — the random-subspace classifier vs bagging
  and AdaBoost: accuracy and, crucially, how many feature cells the
  in-sensor analytic part must instantiate;
- :func:`ble_ablation` — the §4.2 exclusion of Bluetooth Low Energy, made
  quantitative;
- :func:`delay_constraint_ablation` — Eq. 4's delay limit vs an
  unconstrained cut (how much energy the real-time guarantee costs).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cells.library import dwt_op_counts
from repro.cells.topology import CellTopology
from repro.core.generator import AutomaticXProGenerator
from repro.core.layout import FeatureLayout
from repro.dsp.features import operation_counts
from repro.dsp.normalize import MinMaxNormalizer
from repro.errors import ConfigurationError
from repro.hw.aggregator import AggregatorCPU
from repro.hw.energy import ALUMode, EnergyLibrary
from repro.hw.wireless import BLE_MODEL, WirelessLink
from repro.ml.baselines import AdaBoostSVMClassifier, BaggingSVMClassifier
from repro.ml.metrics import accuracy
from repro.ml.subspace import RandomSubspaceClassifier
from repro.ml.validation import stratified_train_test_split
from repro.sim.lifetime import battery_lifetime_hours
from repro.signals.datasets import BiosignalDataset


def _cell_mode_energy(cell, lib: EnergyLibrary, mode: ALUMode) -> float:
    """Energy of one cell forced into ``mode`` (handling the DWT's
    mode-dependent realisation)."""
    counts = cell.op_counts
    if cell.module == "dwt":
        length = cell.port("approx").n_values * 2
        counts = dwt_op_counts(length, mode)
    return lib.cell_cost(counts, mode, cell.parallel_width).energy_j


def alu_mode_ablation(
    topology: CellTopology, lib: EnergyLibrary
) -> Dict[str, float]:
    """Total in-sensor computation energy under each mode policy (joules).

    Keys: ``"chosen"`` (the per-module optimum XPro uses) and
    ``"serial"`` / ``"parallel"`` / ``"pipeline"`` (one monotonic mode
    forced on every cell).
    """
    out: Dict[str, float] = {"chosen": 0.0}
    for mode in ALUMode:
        out[mode.value] = 0.0
    for cell in topology.cells.values():
        out["chosen"] += lib.cell_cost(
            cell.op_counts, cell.mode, cell.parallel_width
        ).energy_j
        for mode in ALUMode:
            out[mode.value] += _cell_mode_energy(cell, lib, mode)
    return out


def cell_reuse_ablation(
    topology: CellTopology, lib: EnergyLibrary, layout: FeatureLayout
) -> Dict[str, float]:
    """Energy with vs without the Var->Std cell reuse (Fig. 5).

    Without reuse, every Std cell embeds its own variance datapath; the
    shared Var cell still exists when variance itself is a used feature.

    Returns keys ``"reuse"``, ``"no_reuse"`` and ``"std_cell_count"``.
    """
    domain_lengths = layout.domain_lengths()
    reuse = 0.0
    no_reuse = 0.0
    std_cells = 0
    for name, cell in topology.cells.items():
        cost = lib.cell_cost(cell.op_counts, cell.mode, cell.parallel_width).energy_j
        reuse += cost
        if cell.module == "std":
            std_cells += 1
            # Which domain does this std cell belong to?  Encoded in the name.
            domain = int(name.split("seg")[-1])
            var_counts = operation_counts("var", domain_lengths[domain])
            full_counts = dict(var_counts)
            full_counts["super"] = full_counts.get("super", 0) + 1
            no_reuse += lib.cell_cost(
                full_counts, cell.mode, cell.parallel_width
            ).energy_j
        else:
            no_reuse += cost
    return {"reuse": reuse, "no_reuse": no_reuse, "std_cell_count": float(std_cells)}


def ensemble_ablation(
    dataset: BiosignalDataset,
    layout: FeatureLayout,
    lib: EnergyLibrary,
    n_members: int = 10,
    subspace_dim: int = 12,
    n_draws: int = 100,
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Random subspace vs bagging vs AdaBoost on one dataset.

    For each method: held-out accuracy, the number of distinct features its
    members consume (= feature cells the topology must instantiate), and
    the total in-sensor energy of computing those feature cells — the
    hardware argument behind the paper's §2.1 classifier choice.
    """
    features = layout.extract_matrix(dataset.segments)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = stratified_train_test_split(dataset.labels, rng)
    normalizer = MinMaxNormalizer().fit(features[train_idx])
    X_train = normalizer.transform(features[train_idx])
    X_test = normalizer.transform(features[test_idx])
    y_train = dataset.labels[train_idx]
    y_test = dataset.labels[test_idx]

    methods = {
        "random_subspace": RandomSubspaceClassifier(
            layout.n_features,
            subspace_dim=subspace_dim,
            n_draws=n_draws,
            keep_fraction=n_members / n_draws,
            seed=seed,
        ),
        "bagging": BaggingSVMClassifier(layout.n_features, n_members, seed=seed),
        "adaboost": AdaBoostSVMClassifier(layout.n_features, n_members, seed=seed),
    }
    domain_lengths = layout.domain_lengths()
    rows: List[Dict[str, object]] = []
    for name, clf in methods.items():
        clf.fit(X_train, y_train)
        used = clf.used_feature_indices()
        feature_energy = 0.0
        for index in used:
            domain, fname = layout.feature_of(index)
            counts = operation_counts(fname, domain_lengths[domain])
            feature_energy += lib.cell_cost(counts).energy_j
        rows.append(
            {
                "method": name,
                "test_accuracy": accuracy(y_test, clf.predict(X_test)),
                "used_features": len(used),
                "feature_cell_energy_uj": feature_energy * 1e6,
            }
        )
    return rows


def ble_ablation(
    topology: CellTopology,
    lib: EnergyLibrary,
    cpu: AggregatorCPU,
    period_s: float,
) -> List[Dict[str, object]]:
    """Battery life under the three implant radios vs Bluetooth Low Energy."""
    rows: List[Dict[str, object]] = []
    for model in ("model1", "model2", "model3", BLE_MODEL):
        link = WirelessLink(model)
        generator = AutomaticXProGenerator(topology, lib, link, cpu)
        result = generator.generate()
        refs = generator.reference_metrics()
        rows.append(
            {
                "radio": link.model.name,
                "tx_nj_per_bit": link.model.tx_nj_per_bit,
                "aggregator_h": battery_lifetime_hours(
                    refs["aggregator"].sensor_total_j, period_s
                ),
                "cross_h": battery_lifetime_hours(
                    result.metrics.sensor_total_j, period_s
                ),
            }
        )
    return rows


def noise_robustness_rows(
    lib: EnergyLibrary,
    cpu: AggregatorCPU,
    noise_levels=(0.04, 0.08, 0.16),
    n_segments: int = 240,
    n_draws: int = 30,
    seed: int = 23,
) -> List[Dict[str, object]]:
    """Sensor-noise sensitivity of the whole stack (ECG case).

    Regenerates the C1-style ECG task at increasing measurement-noise
    levels and reports: classification accuracy, the mean support-vector
    count (noisier data -> more SVs -> heavier in-sensor classifiers,
    the paper's §5.5 separability observation), and the cross-end cut's
    sensor energy.  Demonstrates that the generator adapts the partition
    as the workload's compute weight shifts.
    """
    from repro.core.generator import AutomaticXProGenerator
    from repro.core.pipeline import TrainingConfig, train_analytic_engine
    from repro.signals.datasets import DatasetSpec
    from repro.signals.waveforms import ECGGenerator

    rows: List[Dict[str, object]] = []
    link = WirelessLink("model2")
    for noise in noise_levels:
        spec = DatasetSpec(
            symbol=f"C1n{int(noise * 100)}",
            source_name="ECGTwoLead-noise-sweep",
            modality="ecg",
            segment_length=82,
            segment_number=n_segments,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        generator_obj = ECGGenerator(82, st_shift=0.22, noise_level=noise)
        segments, labels = generator_obj.generate_batch(rng, n_segments)
        dataset = BiosignalDataset(spec=spec, segments=segments, labels=labels)
        engine = train_analytic_engine(
            dataset, TrainingConfig(n_draws=n_draws, seed=seed)
        )
        mean_sv = float(
            np.mean([m.classifier.n_support_vectors for m in engine.ensemble.members])
        )
        topology = engine.build_topology(lib)
        xpro = AutomaticXProGenerator(topology, lib, link, cpu)
        result = xpro.generate()
        rows.append(
            {
                "noise_level": noise,
                "accuracy": engine.test_accuracy,
                "mean_support_vectors": mean_sv,
                "cross_energy_uj": result.metrics.sensor_total_j * 1e6,
                "in_sensor_cells": len(result.partition.in_sensor),
            }
        )
    return rows


def delay_constraint_ablation(
    topology: CellTopology,
    lib: EnergyLibrary,
    link: WirelessLink,
    cpu: AggregatorCPU,
) -> Dict[str, float]:
    """Cost of the Eq. 4 real-time guarantee.

    Returns the sensor energy and end-to-end delay of the unconstrained
    min-cut vs the delay-constrained generator cut.
    """
    generator = AutomaticXProGenerator(topology, lib, link, cpu)
    unconstrained = generator.evaluate(generator.min_cut_partition().in_sensor)
    constrained = generator.generate().metrics
    if constrained.sensor_total_j + 1e-15 < unconstrained.sensor_total_j:
        raise ConfigurationError(
            "constrained cut cheaper than unconstrained optimum (model bug)"
        )
    return {
        "unconstrained_energy_uj": unconstrained.sensor_total_j * 1e6,
        "constrained_energy_uj": constrained.sensor_total_j * 1e6,
        "unconstrained_delay_ms": unconstrained.delay_total_s * 1e3,
        "constrained_delay_ms": constrained.delay_total_s * 1e3,
        "energy_premium_pct": 100.0
        * (constrained.sensor_total_j / unconstrained.sensor_total_j - 1.0),
    }
