"""The generator fast path: warm-started re-solves and evaluation memo.

The fast path must be *invisible* in results: a warm generator (one
shared s-t graph, residual warm starts, partition-evaluation memo)
returns exactly what the cold reference generator (a fresh graph per
solve, no memo) returns — on all six paper cases, with and without the
paper delay limit, with and without a tight explicit limit that forces
the full Lagrangian bisection, and lambda-by-lambda across a price ladder
on paper and synthetic topologies.  On top of the equivalence, the
graph's solve counters must show the work actually shrank.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.generator import AutomaticXProGenerator
from repro.core.pipeline import TrainingConfig
from repro.eval.context import ExperimentContext
from repro.graph.cuts import aggregator_cut, sensor_cut
from repro.graph.maxflow import FlowNetwork
from repro.graph.stgraph import build_st_graph
from repro.hw.aggregator import AggregatorCPU
from repro.hw.energy import EnergyLibrary
from repro.hw.wireless import WirelessLink
from repro.sim.evaluate import metrics_identical
from repro.signals.datasets import CASE_ORDER

from tests.test_stgraph_properties import _random_topology

CPU = AggregatorCPU()


@pytest.fixture(scope="module")
def paper_context():
    """Six trained paper cases at suite scale (topologies cached)."""
    return ExperimentContext(
        n_segments=120,
        training=TrainingConfig(subspace_dim=6, n_draws=8, keep_fraction=0.25, seed=7),
    )


def _hardware(paper_context, case, wireless):
    topology = paper_context.topology(case, "90nm")
    lib = paper_context.energy_library("90nm")
    return topology, lib, WirelessLink(wireless)


def _generators(topology, lib, link):
    """(cold reference generator, warm fast-path generator) for one context."""
    cold = AutomaticXProGenerator(
        topology, lib, link, CPU, warm_start=False, cache_size=0
    )
    warm = AutomaticXProGenerator(topology, lib, link, CPU)
    return cold, warm


def _assert_same_result(cold_result, warm_result):
    assert cold_result.partition == warm_result.partition
    assert metrics_identical(cold_result.metrics, warm_result.metrics)
    assert cold_result.delay_limit_s == warm_result.delay_limit_s
    assert cold_result.candidates_evaluated == warm_result.candidates_evaluated


@pytest.mark.parametrize("case", CASE_ORDER)
@pytest.mark.parametrize("use_paper_limit", [True, False])
def test_six_case_equivalence(paper_context, case, use_paper_limit):
    """Acceptance: warm == cold on every paper case, both limit modes."""
    cold, warm = _generators(*_hardware(paper_context, case, "model2"))
    _assert_same_result(
        cold.generate(use_paper_limit=use_paper_limit),
        warm.generate(use_paper_limit=use_paper_limit),
    )


def _forcing_limit(topology, lib, link):
    """A delay limit between the best single-end delay and the
    unconstrained min-cut delay, forcing the Lagrangian search; None when
    the min cut is already single-end-fast."""
    probe = AutomaticXProGenerator(topology, lib, link, CPU)
    unconstrained = probe.evaluate(probe.min_cut_partition().in_sensor).delay_total_s
    single_end = min(
        probe.evaluate(sensor_cut(topology)).delay_total_s,
        probe.evaluate(aggregator_cut(topology)).delay_total_s,
    )
    if unconstrained <= single_end:
        return None
    return single_end + 0.5 * (unconstrained - single_end)


@pytest.mark.parametrize("case", CASE_ORDER)
def test_six_case_equivalence_with_forced_bisection(paper_context, case):
    """Warm == cold when the full Lagrangian bisection runs (model3)."""
    topology, lib, link = _hardware(paper_context, case, "model3")
    limit = _forcing_limit(topology, lib, link)
    assert limit is not None, "model3 should force a cross-end min cut"
    cold, warm = _generators(topology, lib, link)
    _assert_same_result(
        cold.generate(delay_limit_s=limit), warm.generate(delay_limit_s=limit)
    )
    stats = warm.template.stats
    assert stats.warm_solves > 0, "bisection never warm-started"


def _lambda_ladder(gen):
    """Increasing delay prices spanning the interesting range."""
    lam0 = gen._initial_lambda()
    return [0.0] + [lam0 * f for f in (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 8.0)]


def _assert_ladder_matches(topology, lib, link):
    gen = AutomaticXProGenerator(topology, lib, link, CPU)
    template = build_st_graph(topology, lib, link, CPU)
    for lam in _lambda_ladder(gen):
        warm_cut, _ = template.solve(lam)
        cold_cut, _ = template.solve(lam, warm=False)
        assert warm_cut == cold_cut, f"cut mismatch at lambda={lam}"
    assert template.stats.warm_solves > 0
    assert template.stats.cold_solves > 0


@pytest.mark.parametrize("case", CASE_ORDER)
def test_lambda_ladder_warm_matches_cold_on_paper_cases(paper_context, case):
    """Satellite: warm-started cuts == cold cuts along increasing lambda."""
    _assert_ladder_matches(*_hardware(paper_context, case, "model3"))


def test_lambda_ladder_on_50_cell_synthetic_topology():
    """Satellite: the same ladder equivalence on a 50-cell random DAG."""
    rng = np.random.default_rng(421)
    topology = _random_topology(rng, 49)  # + the sink cell = 50
    assert len(topology.cells) == 50
    _assert_ladder_matches(topology, EnergyLibrary("90nm"), WirelessLink("model3"))


def _ladder_work(monkeypatch, topology, lib, link):
    """Solver work along the ladder: a warm solve, then a cold reference
    solve, per price.

    Returns the per-solve ``(augmenting_paths, bfs_rounds)`` list and the
    final ``TemplateSolveStats`` as ``(cold_solves, warm_solves,
    cold_augmenting_paths, warm_augmenting_paths)``.
    """
    solves = []
    max_flow = FlowNetwork.max_flow

    def recording(net, source, sink):
        result = max_flow(net, source, sink)
        solves.append((result.augmenting_paths, result.bfs_rounds))
        return result

    monkeypatch.setattr(FlowNetwork, "max_flow", recording)
    gen = AutomaticXProGenerator(topology, lib, link, CPU)
    template = build_st_graph(topology, lib, link, CPU)
    for lam in _lambda_ladder(gen):
        template.solve(lam)
        template.solve(lam, warm=False)
    stats = template.stats
    return solves, (
        stats.cold_solves,
        stats.warm_solves,
        stats.cold_augmenting_paths,
        stats.warm_augmenting_paths,
    )


def test_golden_solver_work_on_50_cell_synthetic_topology(monkeypatch):
    """Dinic pushes the same augmenting paths in the same phases as the
    straightforward restart-from-the-source loop these literals were
    recorded from — same work, not only the same cuts."""
    rng = np.random.default_rng(421)
    topology = _random_topology(rng, 49)
    solves, stats = _ladder_work(
        monkeypatch, topology, EnergyLibrary("90nm"), WirelessLink("model3")
    )
    assert solves == [
        (18, 4), (18, 4), (56, 3), (67, 5), (56, 3), (66, 5), (56, 3),
        (65, 5), (56, 3), (62, 5), (56, 3), (60, 4), (56, 3), (59, 4),
        (56, 3), (57, 4), (56, 3), (56, 3),
    ]
    assert stats == (10, 8, 528, 448)


def test_golden_solver_work_on_paper_case(paper_context, monkeypatch):
    """The same golden check on paper case C1 with model3 wireless."""
    solves, stats = _ladder_work(
        monkeypatch, *_hardware(paper_context, "C1", "model3")
    )
    assert solves == [(29, 9), (29, 9)] + [(50, 10)] * 16
    assert stats == (10, 8, 458, 400)


def test_template_counters_show_warm_work_shrank(paper_context):
    """The counters exist and prove re-solves are incremental."""
    topology, lib, link = _hardware(paper_context, "C1", "model3")
    gen = AutomaticXProGenerator(topology, lib, link, CPU)
    limit = _forcing_limit(topology, lib, link)
    gen.generate(delay_limit_s=limit)
    stats = gen.template.stats
    # One cold anchor solve; every lambda probe of the bisection warm-started.
    assert stats.cold_solves == 1
    assert stats.warm_solves >= 20
    # Re-solving an already-solved price pushes no new flow at all.
    template = gen.template
    lam = gen._initial_lambda()
    template.solve(lam)
    before = template.stats.warm_augmenting_paths
    template.solve(lam)
    assert template.stats.warm_augmenting_paths == before
    # And the repeated generate() call stays fully warm.
    cold_before = template.stats.cold_solves
    gen.generate(delay_limit_s=limit)
    assert template.stats.cold_solves == cold_before


def test_template_survives_and_caches_across_generate_calls(paper_context):
    topology, lib, link = _hardware(paper_context, "C1", "model2")
    gen = AutomaticXProGenerator(topology, lib, link, CPU)
    gen.generate()
    template_first = gen.template
    assert template_first is not None
    gen.generate()
    assert gen.template is template_first, "template must be reused"


def test_evaluation_memo_hits_and_invalidation(paper_context):
    topology, lib, link = _hardware(paper_context, "C1", "model2")
    gen = AutomaticXProGenerator(topology, lib, link, CPU)
    cut = sensor_cut(topology)
    first = gen.evaluate(cut)
    hits_before = gen.evaluation_cache.hits
    second = gen.evaluate(cut)
    assert second is first, "repeat evaluation must be served from the memo"
    assert gen.evaluation_cache.hits == hits_before + 1

    # Rebinding a model attribute invalidates both memo and template.
    gen.generate()
    assert gen.template is not None
    gen.energy_lib = EnergyLibrary("130nm")
    assert gen.template is None
    assert len(gen.evaluation_cache) == 0
    third = gen.evaluate(cut)
    assert not metrics_identical(first, third), (
        "a different energy library must produce different metrics"
    )

    # Explicit invalidation drops everything too.
    gen.invalidate_caches()
    assert len(gen.evaluation_cache) == 0
    assert gen.template is None


def test_cache_size_zero_disables_memo(paper_context):
    topology, lib, link = _hardware(paper_context, "C1", "model2")
    gen = AutomaticXProGenerator(topology, lib, link, CPU, cache_size=0)
    cut = sensor_cut(topology)
    first = gen.evaluate(cut)
    second = gen.evaluate(cut)
    assert first is not second
    assert metrics_identical(first, second)
    assert len(gen.evaluation_cache) == 0
    assert gen.evaluation_cache.hits == 0


def test_candidates_evaluated_counts_unique_evaluations(paper_context):
    """Satellite: the counter is unique-model-evaluations, not tuples."""
    topology, lib, link = _hardware(paper_context, "C1", "model3")
    limit = _forcing_limit(topology, lib, link)
    cold, warm = _generators(topology, lib, link)
    cold_result = cold.generate(delay_limit_s=limit)
    warm_result = warm.generate(delay_limit_s=limit)
    # Identical counting on both paths, and per-call (a second warm call
    # reports the same count even though its memo is already populated).
    assert cold_result.candidates_evaluated == warm_result.candidates_evaluated
    repeat = warm.generate(delay_limit_s=limit)
    assert repeat.candidates_evaluated == warm_result.candidates_evaluated
    # The bisection evaluated at least the three seed candidates once each.
    assert warm_result.candidates_evaluated >= 3
    # The memo ensured each unique partition hit the model at most once in
    # the warm generator's first call.
    cache = warm.evaluation_cache
    assert cache.misses <= cache.hits + cache.misses  # sanity
    assert cache.misses == len(cache) + cache.evictions
