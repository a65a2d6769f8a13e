"""Tests for the area model, Pareto explorer, and feature-usage analysis."""

import pytest

from repro.core.generator import AutomaticXProGenerator
from repro.errors import ConfigurationError
from repro.eval.feature_usage import domain_usage, usage_rows
from repro.eval.pareto import pareto_frontier
from repro.hw.area import (
    UM2_PER_GE,
    area_report,
    cell_gate_equivalents,
)


class TestAreaModel:
    def test_full_topology_report(self, tiny_topology):
        report = area_report(tiny_topology, "90nm")
        assert report.gate_equivalents > 0
        assert report.area_mm2 > 0
        assert set(report.per_cell_ge) == set(tiny_topology.cells)
        assert report.gate_equivalents == sum(report.per_cell_ge.values())

    def test_subset_smaller_than_whole(self, tiny_topology):
        subset = frozenset(list(tiny_topology.cells)[:3])
        whole = area_report(tiny_topology, "90nm")
        part = area_report(tiny_topology, "90nm", in_sensor=subset)
        assert part.gate_equivalents < whole.gate_equivalents

    def test_area_scales_with_node(self, tiny_topology):
        areas = {node: area_report(tiny_topology, node).area_mm2 for node in UM2_PER_GE}
        assert areas["130nm"] > areas["90nm"] > areas["45nm"]

    def test_in_sensor_part_fits_a_sensor_die(self, tiny_topology):
        # A wearable analytic die is a few mm^2; the whole topology at 90nm
        # must be well inside that.
        report = area_report(tiny_topology, "90nm")
        assert report.area_mm2 < 5.0

    def test_mul_cells_bigger_than_cmp_cells(self, tiny_topology):
        cells = tiny_topology.cells
        maxes = [c for c in cells.values() if c.module == "max"]
        svms = [c for c in cells.values() if c.module == "svm"]
        if maxes and svms:
            assert cell_gate_equivalents(svms[0]) > cell_gate_equivalents(maxes[0])

    def test_validation(self, tiny_topology):
        with pytest.raises(ConfigurationError):
            area_report(tiny_topology, "28nm")
        with pytest.raises(ConfigurationError):
            area_report(tiny_topology, "90nm", in_sensor=frozenset({"ghost"}))


class TestParetoFrontier:
    @pytest.fixture(scope="class")
    def generator(self, request):
        return AutomaticXProGenerator(
            request.getfixturevalue("tiny_topology"),
            request.getfixturevalue("energy_lib_90"),
            request.getfixturevalue("link_model2"),
            request.getfixturevalue("cpu_model"),
        )

    def test_frontier_is_monotone(self, generator):
        frontier = pareto_frontier(generator, n_points=8)
        assert frontier, "frontier must not be empty"
        delays = [p.delay_s for p in frontier]
        energies = [p.energy_j for p in frontier]
        assert delays == sorted(delays)
        assert energies == sorted(energies, reverse=True)

    def test_points_respect_their_limits(self, generator):
        for point in pareto_frontier(generator, n_points=8):
            assert point.delay_s <= point.delay_limit_s * (1 + 1e-9)

    def test_loosest_point_matches_unconstrained_optimum(self, generator):
        frontier = pareto_frontier(generator, n_points=10)
        unconstrained = generator.evaluate(
            generator.min_cut_partition().in_sensor
        ).sensor_total_j
        assert frontier[-1].energy_j == pytest.approx(unconstrained)

    def test_invalid_points(self, generator):
        with pytest.raises(ConfigurationError):
            pareto_frontier(generator, n_points=1)


class TestFeatureUsage:
    def test_counts_sum_to_member_selections(self, tiny_engine):
        layout = tiny_engine.layout
        ensemble = tiny_engine.ensemble
        expected = sum(len(m.feature_indices) for m in ensemble.members)
        assert sum(domain_usage(ensemble, layout).values()) == expected

    def test_usage_rows_shares_sum_to_100(self, tiny_engine):
        rows = usage_rows(tiny_engine.ensemble, tiny_engine.layout, "C1")
        per_domain = [r for r in rows if r["domain"] != "(all DWT)"]
        assert sum(r["share_pct"] for r in per_domain) == pytest.approx(100.0)

    def test_unfitted_rejected(self, tiny_engine):
        from repro.ml.subspace import RandomSubspaceClassifier

        with pytest.raises(ConfigurationError):
            domain_usage(
                RandomSubspaceClassifier(tiny_engine.layout.n_features, 6),
                tiny_engine.layout,
            )
