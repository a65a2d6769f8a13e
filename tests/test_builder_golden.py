"""Golden fingerprints of the two topology builders.

``build_topology`` (binary) and ``build_multiclass_topology`` (one-vs-rest)
are pinned on every frozen cell field — name, order, module, mode, op
counts, input refs, output ports, parallel width and family key — on the
result port, on the monolithic execution of a few segments, and on the
generator's partition and its metrics.  The literals were captured once;
a refactor of either builder must leave every digest unchanged, so never
edit them to make a change pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.generator import AutomaticXProGenerator
from repro.core.layout import FeatureLayout
from repro.core.multiclass import build_multiclass_topology
from repro.dsp.normalize import MinMaxNormalizer
from repro.hw.aggregator import AggregatorCPU
from repro.hw.energy import EnergyLibrary
from repro.hw.wireless import WirelessLink
from repro.ml.multiclass import OneVsRestSubspaceClassifier
from repro.signals.datasets import load_multiclass_emg


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _cells_digest(topology):
    lines = []
    for name, cell in topology.cells.items():
        family = None if cell.family is None else repr(cell.family.key)
        lines.append(
            repr(
                (
                    name,
                    cell.name,
                    cell.module,
                    cell.mode.name,
                    sorted(cell.op_counts.items()),
                    [(ref.cell, ref.port) for ref in cell.inputs],
                    [(p.name, p.n_values, p.bits_per_value) for p in cell.outputs],
                    cell.parallel_width,
                    family,
                )
            )
        )
    lines.append(repr((topology.result.cell, topology.result.port)))
    return _digest(lines)


def _execute_digest(topology, segments):
    return _digest(
        np.asarray(topology.execute(seg)[topology.result], dtype=np.float64)
        .tobytes()
        .hex()
        for seg in segments
    )


def _generator_digest(topology, lib):
    result = AutomaticXProGenerator(
        topology, lib, WirelessLink("model2"), AggregatorCPU()
    ).generate()
    m = result.metrics
    lines = [
        repr(sorted(result.partition.in_sensor)),
        repr(result.partition.label),
        repr(result.delay_limit_s),
        repr(sorted(m.in_sensor)),
        *(
            repr(getattr(m, f))
            for f in (
                "sensor_compute_j",
                "sensor_tx_j",
                "sensor_rx_j",
                "delay_front_s",
                "delay_link_s",
                "delay_back_s",
                "aggregator_cpu_j",
                "aggregator_radio_j",
                "crossing_bits_up",
                "crossing_bits_down",
            )
        ),
    ]
    return _digest(lines)


@pytest.fixture(scope="module")
def multiclass():
    """The 3-class EMG system of ``tests/test_multiclass.py``."""
    dataset = load_multiclass_emg(n_classes=3, n_segments=90)
    layout = FeatureLayout(segment_length=dataset.segment_length)
    features = layout.extract_matrix(dataset.segments)
    normalizer = MinMaxNormalizer().fit(features)
    classifier = OneVsRestSubspaceClassifier(
        n_features=layout.n_features,
        n_classes=3,
        subspace_dim=6,
        n_draws=6,
        keep_fraction=0.34,
        seed=4,
    ).fit(normalizer.transform(features), dataset.labels)
    lib = EnergyLibrary("90nm")
    topology = build_multiclass_topology(layout, classifier, normalizer, lib)
    return dataset, topology, lib


class TestBinaryBuilderGolden:
    def test_cells(self, tiny_topology):
        assert _cells_digest(tiny_topology) == (
            "683fd81260b20b2e32a0267e0350e976a566c162d7fa8d1d9a06796b2ecb1308"
        )

    def test_execution(self, tiny_topology, tiny_dataset):
        assert _execute_digest(tiny_topology, tiny_dataset.segments[:6]) == (
            "628f0f193237dd54bfb825223d59e20be2acfea0675828083f42a66a25c5df15"
        )

    def test_generator(self, tiny_topology, energy_lib_90):
        assert _generator_digest(tiny_topology, energy_lib_90) == (
            "7426cc968d36d881b56987c98f5e8f717a640b2d7ec2dde54ad4727ab94d296d"
        )


class TestMulticlassBuilderGolden:
    def test_cells(self, multiclass):
        assert _cells_digest(multiclass[1]) == (
            "a32aaf442f8439e91e8e167d9ee501fe4affa3cdf2f852d551ac9dbb7f5da353"
        )

    def test_execution(self, multiclass):
        dataset, topology, _ = multiclass
        assert _execute_digest(topology, dataset.segments[:6]) == (
            "ae6d00c43cb4f288f6aabd635539399da87379ce11ea9f740c62b1ee66fd7c3e"
        )

    def test_generator(self, multiclass):
        _, topology, lib = multiclass
        assert _generator_digest(topology, lib) == (
            "69b7ff562560caba289f69ddaf97371643825015b27b4c7d13eb481ff79ac75f"
        )
