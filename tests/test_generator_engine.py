"""Tests for the Automatic XPro Generator and the cross-end engine.

The central correctness claims:

1. the s-t graph min-cut equals the cheapest partition found by exhaustive
   search (optimality);
2. the cut capacity equals the independent evaluator's sensor energy
   (model equivalence);
3. the generated partition is never worse than either single-end engine,
   and meets the Eq. 4 delay limit;
4. the cross-end engine's predictions equal the monolithic pipeline's for
   *any* partition (functional transparency), and its per-segment port
   accounting equals the evaluator's cut accounting (conservation).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import CrossEndEngine
from repro.core.generator import AutomaticXProGenerator
from repro.core.partition import Partition
from repro.errors import ConfigurationError, InfeasibleConstraintError
from repro.graph.cuts import aggregator_cut, sensor_cut, trivial_cut
from repro.graph.stgraph import build_st_graph
from repro.sim.evaluate import _crossing_ports, evaluate_partition


@pytest.fixture(scope="module")
def generator(tiny_topology_module, energy_lib_90_module, link_module, cpu_module_):
    return AutomaticXProGenerator(
        tiny_topology_module, energy_lib_90_module, link_module, cpu_module_
    )


# Module-scoped mirrors of the session fixtures (pytest cannot mix scopes
# downward, so re-export them here).
@pytest.fixture(scope="module")
def tiny_topology_module(request):
    return request.getfixturevalue("tiny_topology")


@pytest.fixture(scope="module")
def tiny_dataset_module(request):
    return request.getfixturevalue("tiny_dataset")


@pytest.fixture(scope="module")
def energy_lib_90_module(request):
    return request.getfixturevalue("energy_lib_90")


@pytest.fixture(scope="module")
def link_module(request):
    return request.getfixturevalue("link_model2")


@pytest.fixture(scope="module")
def cpu_module_(request):
    return request.getfixturevalue("cpu_model")


class TestMinCutOptimality:
    def test_capacity_equals_evaluator_energy(self, generator):
        graph = build_st_graph(
            generator.topology, generator.energy_lib, generator.link
        )
        in_sensor, capacity = graph.solve()
        metrics = generator.evaluate(in_sensor)
        assert metrics.sensor_total_j == pytest.approx(capacity, rel=1e-9)

    def test_min_cut_not_worse_than_reference_cuts(self, generator):
        best = generator.evaluate(generator.min_cut_partition().in_sensor)
        for cut in (
            sensor_cut(generator.topology),
            aggregator_cut(generator.topology),
            trivial_cut(generator.topology),
        ):
            assert best.sensor_total_j <= generator.evaluate(cut).sensor_total_j + 1e-15

    def test_min_cut_not_worse_than_random_partitions(self, generator, rng):
        best = generator.evaluate(generator.min_cut_partition().in_sensor)
        names = sorted(generator.topology.cells)
        for _ in range(25):
            subset = frozenset(
                n for n in names if rng.random() < rng.uniform(0.1, 0.9)
            )
            assert (
                best.sensor_total_j
                <= generator.evaluate(subset).sensor_total_j + 1e-15
            )


class TestGenerate:
    def test_respects_paper_delay_limit(self, generator):
        result = generator.generate()
        assert result.delay_limit_s == pytest.approx(generator.paper_delay_limit())
        assert result.metrics.delay_total_s <= result.delay_limit_s * (1 + 1e-9)

    def test_never_worse_than_feasible_single_end(self, generator):
        result = generator.generate()
        limit = result.delay_limit_s
        for cut in (sensor_cut(generator.topology), aggregator_cut(generator.topology)):
            m = generator.evaluate(cut)
            if m.delay_total_s <= limit * (1 + 1e-9):
                assert result.metrics.sensor_total_j <= m.sensor_total_j + 1e-15

    def test_unconstrained_generate(self, generator):
        result = generator.generate(use_paper_limit=False)
        assert result.delay_limit_s is None
        mincut = generator.evaluate(generator.min_cut_partition().in_sensor)
        assert result.metrics.sensor_total_j == pytest.approx(
            mincut.sensor_total_j
        )

    def test_explicit_generous_limit(self, generator):
        loose = generator.generate(delay_limit_s=10.0)
        tight_free = generator.generate(use_paper_limit=False)
        assert loose.metrics.sensor_total_j == pytest.approx(
            tight_free.metrics.sensor_total_j
        )

    def test_impossible_limit_raises(self, generator):
        with pytest.raises(InfeasibleConstraintError):
            generator.generate(delay_limit_s=1e-9)

    def test_invalid_limit_rejected(self, generator):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            generator.generate(delay_limit_s=0.0)

    def test_result_reports_candidates(self, generator):
        # At least the two single-end extremes are always screened (the
        # min-cut may coincide with one of them and be deduplicated).
        result = generator.generate()
        assert result.candidates_evaluated >= 2


class TestExhaustiveCertification:
    """Brute-force optimality on a cut-down topology (few cells)."""

    @pytest.fixture(scope="class")
    def small(self, tiny_topology_module, energy_lib_90_module, link_module, cpu_module_):
        import numpy as np

        from repro.cells.cell import SOURCE_CELL, FunctionalCell, OutputPort, PortRef
        from repro.cells.topology import CellTopology
        from repro.hw.energy import ALUMode

        def cell(name, ops, inputs, out_dim=1, module="toy"):
            return FunctionalCell(
                name=name,
                module=module,
                op_counts=ops,
                mode=ALUMode.SERIAL,
                inputs=tuple(inputs),
                outputs=(OutputPort("out", out_dim, 16),),
                compute=lambda arrays, d=out_dim: {"out": np.zeros(d)},
            )

        cells = [
            cell("fa", {"add": 500, "mul": 200}, [PortRef(SOURCE_CELL)]),
            cell("fb", {"mul": 2000, "super": 30}, [PortRef(SOURCE_CELL)]),
            cell("fc", {"add": 100}, [PortRef("fa", "out")]),
            cell(
                "clf",
                {"mul": 5000, "super": 100},
                [PortRef("fb", "out"), PortRef("fc", "out")],
            ),
        ]
        topo = CellTopology(32, cells, PortRef("clf", "out"))
        return AutomaticXProGenerator(
            topo, energy_lib_90_module, link_module, cpu_module_
        )

    def test_min_cut_matches_exhaustive(self, small):
        exact = small.generate_exhaustive()
        fast = small.generate(use_paper_limit=False)
        assert fast.metrics.sensor_total_j == pytest.approx(
            exact.metrics.sensor_total_j
        )

    def test_delay_constrained_matches_exhaustive(self, small):
        limit = small.paper_delay_limit()
        exact = small.generate_exhaustive(delay_limit_s=limit)
        fast = small.generate(delay_limit_s=limit)
        # The Lagrangian search is a heuristic over min-cut candidates; it
        # must be feasible and no worse than the single-end engines, and on
        # this topology it finds the true optimum.
        assert fast.metrics.delay_total_s <= limit * (1 + 1e-9)
        assert fast.metrics.sensor_total_j == pytest.approx(
            exact.metrics.sensor_total_j
        )

    def test_exhaustive_infeasible_limit(self, small):
        with pytest.raises(InfeasibleConstraintError):
            small.generate_exhaustive(delay_limit_s=1e-12)


class TestCrossEndEngine:
    def test_matches_monolithic_for_generated_partition(
        self, generator, tiny_topology_module
    ):
        engine = CrossEndEngine(tiny_topology_module, generator.generate().partition)
        rng = np.random.default_rng(0)
        for _ in range(10):
            seg = rng.normal(size=tiny_topology_module.segment_length)
            assert engine.classify(seg).prediction == tiny_topology_module.classify(seg)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_monolithic_for_random_partitions(self, seed):
        # Regenerate fixtures by hand (hypothesis cannot take fixtures in
        # function-scope with given); use a lazily cached module attribute.
        topo = _topology_cache["topology"]
        rng = np.random.default_rng(seed)
        names = sorted(topo.cells)
        subset = frozenset(n for n in names if rng.random() < 0.5)
        engine = CrossEndEngine(topo, Partition(in_sensor=subset))
        seg = rng.normal(size=topo.segment_length)
        assert engine.classify(seg).prediction == topo.classify(seg)

    def test_sensor_partition_uplinks_only_result(self, tiny_topology_module):
        engine = CrossEndEngine(
            tiny_topology_module, Partition.of(tiny_topology_module.cells)
        )
        out = engine.classify(np.zeros(tiny_topology_module.segment_length))
        assert out.uplink_ports == (tiny_topology_module.result,)
        assert out.downlink_ports == ()

    def test_aggregator_partition_uplinks_source(self, tiny_topology_module):
        engine = CrossEndEngine(tiny_topology_module, Partition.of([]))
        out = engine.classify(np.zeros(tiny_topology_module.segment_length))
        assert out.uplink_values == tiny_topology_module.segment_length
        assert out.downlink_values == 0

    def test_batch_classification(self, tiny_topology_module, rng):
        engine = CrossEndEngine(tiny_topology_module, Partition.of([]))
        segs = rng.normal(size=(4, tiny_topology_module.segment_length))
        preds = engine.classify_batch(segs)
        assert preds.shape == (4,)
        assert preds.dtype.kind == "i"
        assert preds.tolist() == [engine.classify(s).prediction for s in segs]

    def test_invalid_segment_rejected(self, tiny_topology_module):
        engine = CrossEndEngine(tiny_topology_module, Partition.of([]))
        with pytest.raises(ConfigurationError):
            engine.classify(np.zeros(7))

    def test_empty_batch_gives_empty_int_array(self, tiny_topology_module):
        engine = CrossEndEngine(tiny_topology_module, Partition.of([]))
        preds = engine.classify_batch(
            np.empty((0, tiny_topology_module.segment_length))
        )
        assert preds.shape == (0,)
        assert preds.dtype.kind == "i"

    @pytest.mark.parametrize("rows", [0, 3])
    def test_batch_wrong_row_length_rejected_like_classify(
        self, tiny_topology_module, rows
    ):
        engine = CrossEndEngine(tiny_topology_module, Partition.of([]))
        with pytest.raises(ConfigurationError) as single:
            engine.classify(np.zeros(7))
        with pytest.raises(ConfigurationError) as batch:
            engine.classify_batch(np.zeros((rows, 7)))
        assert str(batch.value) == str(single.value)

    def test_port_accounting_fixed_at_construction(self, tiny_topology_module, rng):
        engine = CrossEndEngine(
            tiny_topology_module, Partition.of(sorted(tiny_topology_module.cells)[1::2])
        )
        for _ in range(3):
            out = engine.classify(rng.normal(size=tiny_topology_module.segment_length))
            assert out.uplink_ports == engine.uplink_ports
            assert out.downlink_ports == engine.downlink_ports
            assert out.uplink_values == engine.uplink_values
            assert out.downlink_values == engine.downlink_values


@pytest.fixture(scope="module")
def case_topology_module(energy_lib_90_module):
    """A small trained topology of a second case (EMG, 132-sample segments)."""
    from repro.core.pipeline import train_analytic_engine
    from repro.signals.datasets import load_case
    from tests.conftest import TINY_TRAINING

    dataset = load_case("M1", n_segments=60)
    engine = train_analytic_engine(dataset, TINY_TRAINING)
    return engine.build_topology(energy_lib_90_module), dataset.segments[:8]


class TestEngineGroundTruth:
    """The engine against the monolithic oracle and the evaluator.

    ``CellTopology.execute`` is the functional oracle: the engine's score
    must be its result value bit for bit.  ``_crossing_ports`` is the cut
    accounting the energy model charges: the ports the engine reports as
    crossing, and the values it counts, must be exactly those.
    """

    @given(seed=st.integers(0, 2**31 - 1), which=st.sampled_from(["tiny", "case"]))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle_and_evaluator(
        self, tiny_topology_module, tiny_dataset_module, case_topology_module, seed, which
    ):
        if which == "tiny":
            topo, segments = tiny_topology_module, tiny_dataset_module.segments[:8]
        else:
            topo, segments = case_topology_module
        rng = np.random.default_rng(seed)
        share = rng.uniform(0.0, 1.0)
        in_sensor = frozenset(n for n in sorted(topo.cells) if rng.random() < share)
        engine = CrossEndEngine(topo, Partition(in_sensor=in_sensor))

        seg = segments[rng.integers(len(segments))]
        out = engine.classify(seg)
        oracle = topo.execute(seg)[topo.result][0]
        assert np.float64(out.score).tobytes() == np.float64(oracle).tobytes()

        uplink, downlink = _crossing_ports(topo, in_sensor)
        assert set(out.uplink_ports) == set(uplink)
        assert set(out.downlink_ports) == set(downlink)
        assert out.uplink_values == sum(topo.port_of(r).n_values for r in uplink)
        assert out.downlink_values == sum(
            topo.port_of(r).n_values for r, _ in downlink
        )


_topology_cache = {}


@pytest.fixture(scope="module", autouse=True)
def _fill_topology_cache(tiny_topology_module):
    _topology_cache["topology"] = tiny_topology_module
    yield
    _topology_cache.clear()
