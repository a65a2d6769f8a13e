"""Tests for the Dinic max-flow / min-cut solver."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph.maxflow import INFINITY, FlowNetwork


def _brute_force_min_cut(nodes, edges, source, sink):
    """Minimum cut by enumerating all source-side subsets."""
    others = [n for n in nodes if n not in (source, sink)]
    best = float("inf")
    for r in range(len(others) + 1):
        for subset in combinations(others, r):
            side = set(subset) | {source}
            capacity = sum(c for u, v, c in edges if u in side and v not in side)
            best = min(best, capacity)
    return best


class TestClassicNetworks:
    def test_single_edge(self):
        net = FlowNetwork()
        net.add_edge("s", "t", 5.0)
        assert net.max_flow("s", "t").max_flow == 5.0

    def test_series_bottleneck(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 10.0)
        net.add_edge("a", "t", 3.0)
        result = net.max_flow("s", "t")
        assert result.max_flow == 3.0
        assert ("a", "t", 3.0) in result.cut_edges

    def test_parallel_paths_sum(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 4.0)
        net.add_edge("a", "t", 4.0)
        net.add_edge("s", "b", 6.0)
        net.add_edge("b", "t", 6.0)
        assert net.max_flow("s", "t").max_flow == 10.0

    def test_clrs_example(self):
        # The textbook network with max flow 23.
        net = FlowNetwork()
        for u, v, c in [
            ("s", "v1", 16), ("s", "v2", 13), ("v1", "v3", 12), ("v2", "v1", 4),
            ("v2", "v4", 14), ("v3", "v2", 9), ("v3", "t", 20), ("v4", "v3", 7),
            ("v4", "t", 4),
        ]:
            net.add_edge(u, v, float(c))
        assert net.max_flow("s", "t").max_flow == 23.0

    def test_disconnected_zero_flow(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 3.0)
        net.add_edge("b", "t", 3.0)
        result = net.max_flow("s", "t")
        assert result.max_flow == 0.0
        assert "s" in result.source_side and "t" not in result.source_side

    def test_infinite_edge_never_cut(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 5.0)
        net.add_edge("a", "b", INFINITY)
        net.add_edge("b", "t", 7.0)
        result = net.max_flow("s", "t")
        assert result.max_flow == 5.0
        assert all(c != INFINITY for _, _, c in result.cut_edges)

    def test_source_side_contains_source(self):
        net = FlowNetwork()
        net.add_edge("s", "t", 1.0)
        result = net.max_flow("s", "t")
        assert "s" in result.source_side
        assert "t" not in result.source_side

    def test_cut_edges_sum_to_flow(self):
        net = FlowNetwork()
        for u, v, c in [("s", "a", 3), ("s", "b", 2), ("a", "t", 2), ("b", "t", 3)]:
            net.add_edge(u, v, float(c))
        result = net.max_flow("s", "t")
        assert sum(c for _, _, c in result.cut_edges) == pytest.approx(
            result.max_flow
        )


class TestValidation:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowNetwork().add_edge("a", "b", -1.0)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowNetwork().add_edge("a", "a", 1.0)

    def test_unknown_terminals_rejected(self):
        net = FlowNetwork()
        net.add_edge("a", "b", 1.0)
        with pytest.raises(ConfigurationError):
            net.max_flow("a", "z")

    def test_same_source_sink_rejected(self):
        net = FlowNetwork()
        net.add_edge("a", "b", 1.0)
        with pytest.raises(ConfigurationError):
            net.max_flow("a", "a")

    def test_edge_list_reports_forward_edges(self):
        net = FlowNetwork()
        net.add_edge("a", "b", 2.5)
        assert net.edge_list() == [("a", "b", 2.5)]


class TestAgainstBruteForce:
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 20)),
            min_size=1,
            max_size=14,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_min_cut(self, raw_edges):
        edges = [(u, v, float(c)) for u, v, c in raw_edges if u != v]
        if not edges:
            return
        nodes = sorted({n for u, v, _ in edges for n in (u, v)} | {0, 5})
        net = FlowNetwork()
        net._node(0), net._node(5)  # ensure terminals exist
        for u, v, c in edges:
            net.add_edge(u, v, c)
        result = net.max_flow(0, 5)
        expected = _brute_force_min_cut(nodes, edges, 0, 5)
        assert result.max_flow == pytest.approx(expected)


def _random_network(raw_edges, infinite_mask):
    """A network over nodes 0..5 with optional INFINITY edges.

    Parallel edges are kept — they must accumulate like a single edge of
    the summed capacity.
    """
    net = FlowNetwork()
    net._node(0), net._node(5)  # ensure terminals exist
    edges = []
    for k, (u, v, c) in enumerate(raw_edges):
        if u == v:
            continue
        capacity = INFINITY if infinite_mask & (1 << k) else float(c)
        net.add_edge(u, v, capacity)
        edges.append((u, v, capacity))
    return net, edges


#: ``_random_network`` arguments: up to 14 edges, any of them INFINITY.
_RANDOM_NETWORKS = (
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 20)),
        min_size=1,
        max_size=14,
    ),
    st.integers(0, 2**14 - 1),
)


class TestCrossSolver:
    """Satellite: Dinic (CSR) vs push-relabel must agree on every graph."""

    @given(*_RANDOM_NETWORKS)
    @settings(max_examples=120, deadline=None)
    def test_dinic_agrees_with_push_relabel(self, raw_edges, infinite_mask):
        dinic_net, edges = _random_network(raw_edges, infinite_mask)
        if not edges:
            return
        pr_net, _ = _random_network(raw_edges, infinite_mask)
        dinic = dinic_net.max_flow(0, 5)
        pr = pr_net.max_flow_push_relabel(0, 5)
        if dinic.max_flow == INFINITY:
            # Push-relabel clamps INFINITY, so compare cut structure only.
            assert pr.max_flow > sum(c for _, _, c in edges if c != INFINITY)
            return
        assert pr.max_flow == pytest.approx(dinic.max_flow, rel=1e-12, abs=1e-12)
        # Both residual cuts must have capacity equal to the flow value.
        for result in (dinic, pr):
            cut_capacity = sum(c for _, _, c in result.cut_edges)
            assert cut_capacity == pytest.approx(dinic.max_flow, abs=1e-9)

    @given(*_RANDOM_NETWORKS)
    @settings(max_examples=120, deadline=None)
    def test_cut_is_residual_reachability_of_consumed_network(
        self, raw_edges, infinite_mask
    ):
        """Dinic reads its cut off its last BFS; that must be exactly the
        residual reachability of the network it leaves behind."""
        net, edges = _random_network(raw_edges, infinite_mask)
        if not edges:
            return
        dinic = net.max_flow(0, 5)
        reachable = net._residual_reachable(net._index[0])
        assert dinic.source_side == frozenset(net._nodes[i] for i in reachable)
        # repr: an all-INFINITY path leaves a NaN capacity (inf - inf).
        assert repr(dinic.cut_edges) == repr(net._cut_edges(reachable))
        pr = _random_network(raw_edges, infinite_mask)[0].max_flow_push_relabel(0, 5)
        if dinic.max_flow == INFINITY:
            assert pr.max_flow > sum(c for _, _, c in edges if c != INFINITY)
        else:
            assert pr.max_flow == pytest.approx(dinic.max_flow, rel=1e-12, abs=1e-12)

    def test_tied_bottlenecks_retreat_to_the_first(self):
        """s->a and a->b saturate at once; the search must resume before
        the first of them, so no zero-flow path s->a->c->t is counted."""
        net = FlowNetwork()
        net.add_edge("s", "a", 3.0)
        net.add_edge("a", "b", 3.0)
        net.add_edge("b", "t", 5.0)
        net.add_edge("a", "c", 5.0)
        net.add_edge("c", "t", 5.0)
        result = net.max_flow("s", "t")
        assert result.max_flow == 3.0
        assert (result.augmenting_paths, result.bfs_rounds) == (1, 2)

    def test_parallel_edges_accumulate(self):
        net = FlowNetwork()
        for _ in range(3):
            net.add_edge("s", "t", 2.0)
        assert net.max_flow("s", "t").max_flow == 6.0
        net2 = FlowNetwork()
        for _ in range(3):
            net2.add_edge("s", "t", 2.0)
        assert net2.max_flow_push_relabel("s", "t").max_flow == 6.0

    def test_infinite_grouping_edges_cross_solver(self):
        """The s-t construction's INFINITY pattern: both solvers agree."""
        def build():
            net = FlowNetwork()
            net.add_edge("s", "d", 5.0)     # tx edge into the data node
            net.add_edge("d", "a", INFINITY)  # grouping edges
            net.add_edge("d", "b", INFINITY)
            net.add_edge("a", "t", 3.0)
            net.add_edge("b", "t", 4.0)
            return net
        dinic = build().max_flow("s", "t")
        pr = build().max_flow_push_relabel("s", "t")
        assert dinic.max_flow == 5.0
        assert pr.max_flow == pytest.approx(5.0)
        assert dinic.source_side == pr.source_side


class TestCapacityClones:
    def _diamond(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 4.0)
        net.add_edge("a", "t", 4.0)
        net.add_edge("s", "b", 6.0)
        net.add_edge("b", "t", 6.0)
        return net

    def test_clone_solves_like_a_rebuild(self):
        proto = self._diamond()
        caps = proto.forward_capacities()
        first = proto.clone_with_capacities(caps).max_flow("s", "t")
        second = proto.clone_with_capacities(caps).max_flow("s", "t")
        assert repr(first) == repr(second)
        assert first.max_flow == 10.0

    def test_clone_shares_structure_not_capacities(self):
        proto = self._diamond()
        clone = proto.clone_with_capacities([1.0, 1.0, 1.0, 1.0])
        assert clone.max_flow("s", "t").max_flow == 2.0
        # The prototype's capacities are untouched by the clone's solve.
        assert proto.forward_capacities() == [4.0, 4.0, 6.0, 6.0]

    def test_clone_rejects_growth(self):
        clone = self._diamond().clone_with_capacities([1.0] * 4)
        with pytest.raises(ConfigurationError):
            clone.add_edge("x", "y", 1.0)

    def test_clone_argument_validation(self):
        proto = self._diamond()
        with pytest.raises(ConfigurationError):
            proto.clone_with_capacities()
        with pytest.raises(ConfigurationError):
            proto.clone_with_capacities(
                [1.0] * 4, residual_capacities=[0.0] * 8
            )
        with pytest.raises(ConfigurationError):
            proto.clone_with_capacities([1.0])  # wrong length
        with pytest.raises(ConfigurationError):
            proto.clone_with_capacities([-1.0, 1.0, 1.0, 1.0])

    def test_net_flow_is_conserved(self):
        net = self._diamond()
        net.add_edge("a", "b", 1.0)
        assert net.max_flow("s", "t").max_flow == 10.0
        assert net.net_flow_from("s") == 10.0
        assert net.net_flow_from("a") == net.net_flow_from("b") == 0.0
        assert net.net_flow_from("t") == -10.0

    def test_residual_restart_reports_incremental_flow(self):
        proto = self._diamond()
        half = proto.clone_with_capacities([2.0, 2.0, 3.0, 3.0])
        first = half.max_flow("s", "t")
        assert first.max_flow == 5.0
        # Re-impose the found flow on the full capacities and resume.
        residual = half.residual_capacities()
        full_caps = proto.forward_capacities()
        resumed_state = [0.0] * len(residual)
        for k, cap in enumerate(full_caps):
            flow = residual[2 * k + 1]
            resumed_state[2 * k] = cap - flow
            resumed_state[2 * k + 1] = flow
        resumed = proto.clone_with_capacities(residual_capacities=resumed_state)
        assert resumed.net_flow_from("s") == 5.0
        second = resumed.max_flow("s", "t")
        assert second.max_flow == 5.0  # incremental only
        assert second.source_side == self._diamond().max_flow("s", "t").source_side
