"""Tests: Platt calibration, the s-t graph golden, end-to-end determinism."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TrainingError
from repro.graph.maxflow import INFINITY
from repro.graph.stgraph import BACK, FRONT, build_st_graph
from repro.hw.aggregator import AggregatorCPU
from repro.hw.energy import EnergyLibrary
from repro.hw.wireless import WirelessLink
from repro.ml.calibration import PlattScaler, brier_score

from tests.test_stgraph_properties import _random_topology

#: sha256 of ``_graph_text`` per graph: every edge with its exact
#: capacity, every delay coefficient and the cell names.  A change to the
#: s-t construction must leave them unchanged.
GRAPH_DIGESTS = {
    "C1/model2": "d6efeb28307f9539c19e68d190db1f2152dde212e1cb7a24042e40dd74a64064",
    "C1/model2+cpu": "eda8f9c4c1c96af9ac2ed247926c15adb08a154093d4c926e3fb006bafb0e1ee",
    "random5x6/model3": "fa895fa46504bfe272cd4d7f0cb9a0bff989114d5d699b715446e34042361db8",
    "random17x12/model3": "04e65fb66b6f89c69432f900511f06ba089d26e3c6247ec3426d99c91de08a4e",
}


def _pinned_graphs(tiny_topology):
    """The pinned graphs: the tiny C1 paper case (energy-only and priced
    by an aggregator CPU, so its delay coefficients are non-zero) and two
    random DAGs."""
    lib = EnergyLibrary("90nm")
    link = WirelessLink("model2")
    graphs = {
        "C1/model2": build_st_graph(tiny_topology, lib, link),
        "C1/model2+cpu": build_st_graph(tiny_topology, lib, link, AggregatorCPU()),
    }
    for seed, n_cells in ((5, 6), (17, 12)):
        topology = _random_topology(np.random.default_rng(seed), n_cells)
        graphs[f"random{seed}x{n_cells}/model3"] = build_st_graph(
            topology, lib, WirelessLink("model3")
        )
    return graphs


def _graph_text(graph):
    """Exact text of a graph: float reprs round-trip, so nothing is lost."""
    return repr(
        (graph.network.edge_list(), graph.delay_coefficients, sorted(graph.cell_names))
    )


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPlattScaler:
    def _scored_data(self, rng, n=300, scale=2.0):
        y = rng.integers(0, 2, size=n)
        scores = scale * (2 * y - 1) + rng.normal(0, 1.5, size=n)
        return scores, y

    def test_probabilities_in_unit_interval(self, rng):
        scores, y = self._scored_data(rng)
        scaler = PlattScaler().fit(scores, y)
        p = scaler.predict_proba(scores)
        assert (p >= 0).all() and (p <= 1).all()

    def test_monotone_in_score(self, rng):
        scores, y = self._scored_data(rng)
        scaler = PlattScaler().fit(scores, y)
        grid = np.linspace(-5, 5, 50)
        p = scaler.predict_proba(grid)
        assert all(a <= b + 1e-12 for a, b in zip(p, p[1:]))

    def test_calibration_beats_naive_sigmoid(self, rng):
        # Scores deliberately mis-scaled: raw sigmoid(score) is badly
        # calibrated, the fitted sigmoid must do better (lower Brier).
        scores, y = self._scored_data(rng, scale=0.3)
        scores = scores * 10.0
        scaler = PlattScaler().fit(scores, y)
        fitted = brier_score(scaler.predict_proba(scores), y)
        naive = brier_score(1.0 / (1.0 + np.exp(-scores)), y)
        assert fitted < naive

    def test_handles_separable_scores(self, rng):
        y = np.array([0] * 20 + [1] * 20)
        scores = np.where(y == 1, 5.0, -5.0) + rng.normal(0, 0.01, 40)
        scaler = PlattScaler().fit(scores, y)
        p = scaler.predict_proba(scores)
        assert np.isfinite(p).all()
        assert (p[y == 1] > 0.5).all()

    def test_ensemble_integration(self, tiny_engine, tiny_dataset):
        layout, norm = tiny_engine.layout, tiny_engine.normalizer
        X = norm.transform(layout.extract_matrix(tiny_dataset.segments))
        scores = np.atleast_1d(tiny_engine.ensemble.decision_function(X))
        scaler = PlattScaler().fit(scores, tiny_dataset.labels)
        p = scaler.predict_proba(scores)
        assert brier_score(p, tiny_dataset.labels) < 0.25

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            PlattScaler(max_iter=0)
        with pytest.raises(ConfigurationError):
            PlattScaler().fit(np.zeros(3), np.zeros(4))
        with pytest.raises(TrainingError):
            PlattScaler().fit(np.zeros(4), np.zeros(4, dtype=int))
        with pytest.raises(ConfigurationError):
            PlattScaler().predict_proba(np.zeros(3))
        with pytest.raises(ConfigurationError):
            brier_score(np.zeros(2), np.zeros(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_robust_across_seeds(self, seed):
        rng = np.random.default_rng(seed)
        scores, y = self._scored_data(rng, n=80)
        scaler = PlattScaler().fit(scores, y)
        assert np.isfinite(scaler.predict_proba(scores)).all()


class TestStGraphGolden:
    def test_st_graph_structure(self, tiny_topology, energy_lib_90, link_model2):
        graph = build_st_graph(tiny_topology, energy_lib_90, link_model2)
        edges = graph.network.edge_list()
        nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
        assert {FRONT, BACK} <= nodes
        assert graph.cell_names == frozenset(tiny_topology.cells)
        # The grouped-data infinite edges.
        assert any(cap == INFINITY for _, _, cap in edges)
        assert len(edges) > len(tiny_topology)

    def test_st_graph_golden(self, tiny_topology):
        digests = {
            key: _sha(_graph_text(graph))
            for key, graph in _pinned_graphs(tiny_topology).items()
        }
        assert digests == GRAPH_DIGESTS

    def test_st_graph_unchanged_by_solve(self, tiny_topology):
        for key, graph in _pinned_graphs(tiny_topology).items():
            before = _graph_text(graph)
            graph.solve()
            graph.solve(1e-3)
            assert _graph_text(graph) == before, key


class TestEndToEndDeterminism:
    def test_identical_runs_produce_identical_systems(self):
        from repro import XProSystem
        from repro.core.pipeline import TrainingConfig

        config = TrainingConfig(subspace_dim=5, n_draws=6, keep_fraction=0.34, seed=9)
        a = XProSystem.for_case("C1", n_segments=48, training=config)
        b = XProSystem.for_case("C1", n_segments=48, training=config)
        assert a.partition.in_sensor == b.partition.in_sensor
        assert a.metrics.sensor_total_j == b.metrics.sensor_total_j
        assert a.trained.test_accuracy == b.trained.test_accuracy
        seg = a.dataset.segments[0]
        assert a.classify(seg) == b.classify(seg)
