"""Property tests of the s-t graph construction on random topologies.

The whole Automatic XPro Generator rests on one equivalence: *the minimum
cut of the s-t graph equals the minimum, over all partitions, of the
sensor-node energy computed by the independent evaluator*.  These tests
generate random dataflow topologies (random DAGs of cells with random op
counts, port dimensions and fan-out) and certify the equivalence by
exhaustive enumeration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.cell import SOURCE_CELL, FunctionalCell, OutputPort, PortRef
from repro.cells.topology import CellTopology
from repro.core.generator import AutomaticXProGenerator
from repro.graph.cuts import aggregator_cut, enumerate_partitions, sensor_cut
from repro.graph.stgraph import build_st_graph
from repro.hw.aggregator import AggregatorCPU
from repro.hw.energy import ALUMode, EnergyLibrary
from repro.hw.wireless import WirelessLink
from repro.sim.evaluate import evaluate_partition

CPU = AggregatorCPU()
LIB = EnergyLibrary("90nm")


def _random_topology(
    rng: np.random.Generator, n_cells: int, op_scale: int = 1
) -> CellTopology:
    """A random single-sink DAG of cells over a random-length source.

    ``op_scale`` multiplies every drawn op count (the draws themselves do
    not change): at 1, almost every min cut keeps all cells on the sensor;
    at 10, cells cost about as much as shipping their inputs, so true
    cross-end cuts occur.
    """
    segment_length = int(rng.integers(4, 64))
    cells = []
    ports = [PortRef(SOURCE_CELL, "out")]
    port_dims = {ports[0]: segment_length}
    for i in range(n_cells):
        # Later cells may read any earlier port; at least one input each.
        n_inputs = int(rng.integers(1, min(3, len(ports)) + 1))
        chosen = rng.choice(len(ports), size=n_inputs, replace=False)
        inputs = [ports[int(c)] for c in chosen]
        out_dim = int(rng.integers(1, 9))
        ops = {
            "add": int(rng.integers(0, 400)),
            "mul": int(rng.integers(0, 200)),
            "super": int(rng.integers(0, 5)),
        }
        if sum(ops.values()) == 0:
            ops = {"add": 1}
        ops = {op: op_scale * n for op, n in ops.items()}
        name = f"c{i}"
        cells.append(
            FunctionalCell(
                name=name,
                module="toy",
                op_counts=ops,
                mode=ALUMode.SERIAL,
                inputs=tuple(inputs),
                outputs=(OutputPort("out", out_dim, 16),),
                compute=lambda arrays, d=out_dim: {"out": np.zeros(d)},
            )
        )
        ref = PortRef(name, "out")
        ports.append(ref)
        port_dims[ref] = out_dim
    # Tie every dangling output into a final sink cell so the DAG has one
    # result (mirrors the fusion cell).
    produced = {ref for ref in ports[1:]}
    consumed = {inp for cell in cells for inp in cell.inputs}
    dangling = sorted(produced - consumed, key=str) or [ports[-1]]
    sink = FunctionalCell(
        name="sink",
        module="fusion",
        op_counts={"add": len(dangling)},
        mode=ALUMode.SERIAL,
        inputs=tuple(dangling),
        outputs=(OutputPort("out", 1, 8),),
        compute=lambda arrays: {"out": np.zeros(1)},
    )
    cells.append(sink)
    return CellTopology(segment_length, cells, PortRef("sink", "out"))


@given(st.integers(0, 10_000), st.integers(2, 6), st.sampled_from(["model1", "model2", "model3"]))
@settings(max_examples=40, deadline=None)
def test_min_cut_equals_exhaustive_minimum(seed, n_cells, model):
    _assert_min_cut_is_exhaustive_minimum(seed, n_cells, model)


#: Past the hypothesis range above: 7-11 random cells plus the sink (up to
#: 2**12 partitions each) on every radio, with op counts scaled by
#: ``LARGE_OP_SCALE``.  Each seed is the first one whose optimum splits the
#: cells between the two ends, so the check is not met by a single-end cut.
LARGE_OP_SCALE = 10
LARGE_CASES = [
    (29, 7, "model1"), (19, 7, "model2"), (0, 7, "model3"),
    (29, 8, "model1"), (15, 8, "model2"), (0, 8, "model3"),
    (14, 9, "model1"), (17, 9, "model2"), (0, 9, "model3"),
    (14, 10, "model1"), (9, 10, "model2"), (3, 10, "model3"),
    (14, 11, "model1"), (7, 11, "model2"), (3, 11, "model3"),
]


@pytest.mark.parametrize("seed,n_cells,model", LARGE_CASES)
def test_min_cut_equals_exhaustive_minimum_large(seed, n_cells, model):
    in_sensor, topo = _assert_min_cut_is_exhaustive_minimum(
        seed, n_cells, model, LARGE_OP_SCALE
    )
    assert 0 < len(in_sensor) < len(topo.cells)


def _assert_min_cut_is_exhaustive_minimum(seed, n_cells, model, op_scale=1):
    """Min cut vs every partition; returns the cut and the topology."""
    rng = np.random.default_rng(seed)
    topo = _random_topology(rng, n_cells, op_scale)
    link = WirelessLink(model)
    in_sensor, capacity = build_st_graph(topo, LIB, link).solve()
    energies = {
        p: evaluate_partition(topo, p, LIB, link, CPU).sensor_total_j
        for p in enumerate_partitions(topo)
    }
    assert len(energies) == 2 ** len(topo.cells)
    best = min(energies.values())
    assert capacity == pytest.approx(best, rel=1e-9)
    # And the returned partition realises that capacity.
    assert energies[in_sensor] == pytest.approx(capacity, rel=1e-9)
    return in_sensor, topo


@given(st.integers(0, 10_000), st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_single_end_cuts_bound_the_min_cut(seed, n_cells):
    rng = np.random.default_rng(seed)
    topo = _random_topology(rng, n_cells)
    link = WirelessLink("model2")
    _, capacity = build_st_graph(topo, LIB, link).solve()
    sensor = evaluate_partition(
        topo, frozenset(topo.cells), LIB, link, CPU
    ).sensor_total_j
    aggregator = evaluate_partition(topo, frozenset(), LIB, link, CPU).sensor_total_j
    assert capacity <= sensor + 1e-15
    assert capacity <= aggregator + 1e-15


@given(st.integers(0, 10_000), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_capacity_matches_evaluator_for_the_solved_cut(seed, n_cells):
    rng = np.random.default_rng(seed)
    topo = _random_topology(rng, n_cells)
    link = WirelessLink("model3")
    in_sensor, capacity = build_st_graph(topo, LIB, link).solve()
    metrics = evaluate_partition(topo, in_sensor, LIB, link, CPU)
    assert metrics.sensor_total_j == pytest.approx(capacity, rel=1e-9)


@given(
    st.integers(0, 10_000),
    st.integers(2, 8),
    st.sampled_from(["model1", "model2", "model3"]),
    st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_delay_constrained_generator_against_exhaustive(seed, n_cells, model, frac):
    """Ground truth for Section 3.2.3: the Lagrangian generator's result is
    feasible and never beats the exhaustive constrained optimum, and it is
    that optimum whenever the unconstrained min cut already fits.

    The limit is drawn between the best single-end delay and 1.5x the
    unconstrained min-cut delay.  Below the min-cut delay the Lagrangian
    search may stop above the optimum (a duality gap); no bound on that
    gap is asserted.
    """
    topo = _random_topology(np.random.default_rng(seed), n_cells)
    gen = AutomaticXProGenerator(topo, LIB, WirelessLink(model), CPU)
    unconstrained = gen.evaluate(gen.min_cut_partition().in_sensor)
    single_end = min(
        gen.evaluate(sensor_cut(topo)).delay_total_s,
        gen.evaluate(aggregator_cut(topo)).delay_total_s,
    )
    lo, hi = sorted((single_end, 1.5 * unconstrained.delay_total_s))
    limit = lo + frac * (hi - lo)

    result = gen.generate(delay_limit_s=limit).metrics
    optimum = gen.generate_exhaustive(delay_limit_s=limit).metrics
    assert result.delay_total_s <= limit * (1 + 1e-9)
    assert result.sensor_total_j >= optimum.sensor_total_j
    if unconstrained.delay_total_s <= limit:
        assert result.sensor_total_j == pytest.approx(
            optimum.sensor_total_j, rel=1e-12
        )
