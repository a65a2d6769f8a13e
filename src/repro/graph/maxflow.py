"""Max-flow / min-cut solvers over a flat CSR edge layout.

A from-scratch implementation over float capacities (the s-t graph's edge
weights are energies in joules).  Infinite capacities are supported — they
model the "grouped" constraint edges of the paper's construction and can
never appear in a finite min cut.

The network stores its edges in flat parallel arrays rather than per-edge
objects:

- ``_etarget[e]`` — head node index of arc ``e``;
- ``_ecap[e]`` — current (residual) capacity of arc ``e``;
- arcs are appended in twin pairs, so the residual twin of arc ``e`` is
  always ``e ^ 1`` (even indices are forward arcs, odd are residuals);
- per-node adjacency is a CSR pair ``(_csr_start, _csr_edges)`` built
  lazily from the insertion-order arc lists, preserving the traversal
  order of the historical per-edge-object implementation (and therefore
  its exact float-accumulation order: results are bitwise identical).

Because every structural array is immutable once built, a solved or
re-priced copy of the network costs one capacity array:
:meth:`FlowNetwork.clone_with_capacities` shares nodes, targets, twins and
the CSR index between clones.  The parametric warm-started re-solves of
:mod:`repro.graph.stgraph` are built on exactly this property.

Complexity of Dinic's algorithm is O(V^2 E), far more than enough for
XPro topologies (tens of cells, a few hundred edges); the same solver also
backs the unit tests on classic textbook networks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import lt
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError

#: Capacity treated as infinite (used for grouping-constraint edges).
INFINITY = float("inf")

#: Floats below this are considered zero when saturating edges.
_EPS = 1e-15


@dataclass(frozen=True)
class MaxFlowResult:
    """Outcome of a max-flow computation.

    Attributes:
        max_flow: The maximum s-t flow value (== min-cut capacity).  When
            the solve started from a pre-loaded residual state (see
            :meth:`FlowNetwork.clone_with_capacities`), this is only the
            *incremental* flow pushed by this solve.
        source_side: Node ids reachable from the source in the residual
            graph — the "F side" of the minimum cut.
        cut_edges: The saturated edges crossing the cut, as (u, v, capacity).
        augmenting_paths: Number of augmenting paths pushed by this solve.
        bfs_rounds: Number of level-graph (BFS) phases run by this solve.
    """

    max_flow: float
    source_side: frozenset
    cut_edges: Tuple[Tuple[Hashable, Hashable, float], ...]
    augmenting_paths: int = 0
    bfs_rounds: int = 0


class FlowNetwork:
    """A directed flow network over arbitrary hashable node ids."""

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}
        self._nodes: List[Hashable] = []
        #: Per-node arc ids in insertion order (the pre-CSR adjacency).
        self._heads: List[List[int]] = []
        #: Flat arc arrays; arc e's residual twin is e ^ 1.
        self._etarget: List[int] = []
        self._ecap: List[float] = []
        #: Lazily built CSR view of ``_heads`` (shared across clones).
        self._csr_start: Optional[List[int]] = None
        self._csr_edges: Optional[List[int]] = None
        #: Structural clones may not grow the shared arrays.
        self._frozen = False

    def _node(self, node: Hashable) -> int:
        if node not in self._index:
            if self._frozen:
                raise ConfigurationError(
                    "cannot add nodes to a capacity clone (shared structure)"
                )
            self._index[node] = len(self._nodes)
            self._nodes.append(node)
            self._heads.append([])
        return self._index[node]

    @property
    def nodes(self) -> Tuple[Hashable, ...]:
        """All node ids, in insertion order."""
        return tuple(self._nodes)

    @property
    def n_forward_edges(self) -> int:
        """Number of forward arcs (one per :meth:`add_edge` call)."""
        return len(self._etarget) // 2

    def add_edge(self, u: Hashable, v: Hashable, capacity: float) -> None:
        """Add a directed edge with the given capacity.

        Parallel edges are allowed and are simply additional arcs; the cut
        semantics are unaffected.
        """
        if self._frozen:
            raise ConfigurationError(
                "cannot add edges to a capacity clone (shared structure)"
            )
        if capacity < 0:
            raise ConfigurationError(f"negative capacity on edge {u!r}->{v!r}")
        if u == v:
            raise ConfigurationError(f"self-loop on node {u!r}")
        ui, vi = self._node(u), self._node(v)
        e = len(self._etarget)
        self._etarget.append(vi)
        self._ecap.append(capacity)
        self._etarget.append(ui)
        self._ecap.append(0.0)
        self._heads[ui].append(e)
        self._heads[vi].append(e + 1)
        self._csr_start = None
        self._csr_edges = None

    def edge_list(self) -> List[Tuple[Hashable, Hashable, float]]:
        """All forward edges as (u, v, capacity) (current residual values)."""
        out = []
        for ui, arcs in enumerate(self._heads):
            for e in arcs:
                if not e & 1:
                    out.append((self._nodes[ui], self._nodes[self._etarget[e]],
                                self._ecap[e]))
        return out

    # -- capacity views / clones ---------------------------------------------

    def _ensure_csr(self) -> Tuple[List[int], List[int]]:
        if self._csr_start is None or self._csr_edges is None:
            start = [0] * (len(self._nodes) + 1)
            order: List[int] = []
            for i, arcs in enumerate(self._heads):
                order.extend(arcs)
                start[i + 1] = len(order)
            self._csr_start, self._csr_edges = start, order
        return self._csr_start, self._csr_edges

    def residual_capacities(self) -> List[float]:
        """A snapshot of the full arc capacity array (forward + residual)."""
        return list(self._ecap)

    def forward_capacities(self) -> List[float]:
        """Current capacities of the forward arcs, in insertion order."""
        return self._ecap[0::2]

    def clone_with_capacities(
        self,
        forward_capacities: Optional[Sequence[float]] = None,
        *,
        residual_capacities: Optional[Sequence[float]] = None,
    ) -> "FlowNetwork":
        """A solvable copy sharing every structural array with this network.

        Node interning, arc targets, twin pairing and the CSR index are
        shared by reference — only the capacity array is fresh — so
        re-pricing and re-solving the same graph costs O(E) floats instead
        of a full rebuild.  The clone rejects :meth:`add_edge`.

        Args:
            forward_capacities: New capacity per forward arc (one per
                historical :meth:`add_edge` call, in insertion order);
                residual arcs start at zero flow.
            residual_capacities: Full per-arc capacity array (length
                ``2 * n_forward_edges``), e.g. a prior solve's
                :meth:`residual_capacities` — used to restart a solver
                from an existing feasible flow.

        Exactly one of the two arguments must be given.
        """
        if (forward_capacities is None) == (residual_capacities is None):
            raise ConfigurationError(
                "give exactly one of forward_capacities / residual_capacities"
            )
        clone = FlowNetwork.__new__(FlowNetwork)
        clone._index = self._index
        clone._nodes = self._nodes
        clone._heads = self._heads
        clone._etarget = self._etarget
        start, order = self._ensure_csr()
        clone._csr_start = start
        clone._csr_edges = order
        clone._frozen = True
        if forward_capacities is not None:
            caps = list(forward_capacities)
            if len(caps) != self.n_forward_edges:
                raise ConfigurationError(
                    f"expected {self.n_forward_edges} forward capacities, "
                    f"got {len(caps)}"
                )
            if any(map(lt, caps, repeat(0))):
                raise ConfigurationError("negative capacity in clone")
            full = [0.0] * len(self._etarget)
            full[0::2] = caps
            clone._ecap = full
        else:
            assert residual_capacities is not None
            full = list(residual_capacities)
            if len(full) != len(self._etarget):
                raise ConfigurationError(
                    f"expected {len(self._etarget)} arc capacities, "
                    f"got {len(full)}"
                )
            if any(map(lt, full, repeat(0))):
                raise ConfigurationError("negative capacity in clone")
            clone._ecap = full
        return clone

    def net_flow_from(self, node: Hashable) -> float:
        """Net flow currently leaving ``node``, read off the residual arcs.

        The flow carried by forward arc ``e`` equals the capacity
        accumulated on its residual twin ``e ^ 1``; summing twins of arcs
        leaving the node minus twins of arcs entering it gives the node's
        net outflow.  For a source node this is the total s-t flow of the
        residual state (used to price warm-started re-solves).
        """
        if node not in self._index:
            raise ConfigurationError(f"node {node!r} not present in the network")
        # The node's own arcs, in ascending id order: forward arc ``e``
        # leaves it, residual arc ``e`` is the twin of a forward arc that
        # enters it.  Same terms, same order as a scan over every arc.
        cap = self._ecap
        total = 0.0
        for e in self._heads[self._index[node]]:
            if e & 1:
                total -= cap[e]
            else:
                total += cap[e ^ 1]
        return total

    # -- Dinic ----------------------------------------------------------------

    def _terminals(self, source: Hashable, sink: Hashable) -> Tuple[int, int]:
        if source not in self._index or sink not in self._index:
            raise ConfigurationError("source/sink not present in the network")
        s, t = self._index[source], self._index[sink]
        if s == t:
            raise ConfigurationError("source and sink must differ")
        return s, t

    def max_flow(self, source: Hashable, sink: Hashable) -> MaxFlowResult:
        """Compute the maximum flow and extract the minimum cut.

        The network is consumed (capacities become residuals); use
        :meth:`clone_with_capacities` to solve the same structure again.
        Starting from a clone pre-loaded with a feasible residual state,
        the reported ``max_flow`` is the incremental flow only.
        """
        s, t = self._terminals(source, sink)
        n = len(self._nodes)
        start, order = self._ensure_csr()
        first_arc = start[:n]
        unreached = [-1] * n
        heads, target, cap = self._heads, self._etarget, self._ecap
        levels = [-1] * n
        iters = [0] * n
        total = 0.0
        paths = 0
        rounds = 0

        while True:
            # BFS: level graph over arcs with residual capacity, one
            # frontier at a time, stopping once the sink's level is
            # complete.  ``seen`` keeps the discovery order.
            levels[:] = unreached
            levels[s] = 0
            rounds += 1
            seen = [s]
            frontier = [s]
            depth = 0
            while frontier and levels[t] < 0:
                depth += 1
                nxt: List[int] = []
                for u in frontier:
                    for e in heads[u]:
                        if cap[e] > _EPS:
                            v = target[e]
                            if levels[v] < 0:
                                levels[v] = depth
                                nxt.append(v)
                frontier = nxt
                seen += nxt
            if levels[t] < 0:
                break
            # Nothing beyond the sink's level was labelled, so every other
            # node on it is a dead end: unlabel them and the DFS never
            # steps onto one.
            for v in frontier:
                levels[v] = -1
            levels[t] = depth

            # Blocking flow: iterative DFS with per-node arc iterators.
            # Mirrors the recursive formulation arc-for-arc: advancing
            # keeps the iterator on the taken arc, a dead end advances the
            # parent's iterator past the arc that led there.  After an
            # augment the path retreats to the tail of its first saturated
            # arc — restarting from the source would re-walk the unsaturated
            # prefix through the same iterators and stop at the same place.
            iters[:] = first_arc
            path: List[int] = []
            u = s
            while True:
                if u == t:
                    flow = INFINITY
                    for e in path:
                        if cap[e] < flow:
                            flow = cap[e]
                    back = -1
                    for k, e in enumerate(path):
                        cap[e] -= flow
                        cap[e ^ 1] += flow
                        # ``not >`` also catches inf - inf on all-INFINITY paths.
                        if back < 0 and not cap[e] > _EPS:
                            back = k
                    total += flow
                    paths += 1
                    u = target[path[back] ^ 1]
                    del path[back:]
                    continue
                lvl = levels[u] + 1
                stop = start[u + 1]
                for it in range(iters[u], stop):
                    e = order[it]
                    if cap[e] > _EPS and levels[target[e]] == lvl:
                        iters[u] = it
                        path.append(e)
                        u = target[e]
                        break
                else:
                    iters[u] = stop
                    if u == s:
                        break
                    e = path.pop()
                    u = target[e ^ 1]
                    iters[u] += 1

        # The last BFS ran to completion without reaching the sink: its
        # discovery order is exactly that of ``_residual_reachable``.
        reachable = set(seen)
        return MaxFlowResult(
            max_flow=total,
            source_side=frozenset(self._nodes[i] for i in reachable),
            cut_edges=self._cut_edges(reachable),
            augmenting_paths=paths,
            bfs_rounds=rounds,
        )

    # -- shared cut extraction -------------------------------------------------

    def _residual_reachable(self, s: int) -> Set[int]:
        """Nodes reachable from ``s`` in the residual graph."""
        start, order = self._ensure_csr()
        target, cap = self._etarget, self._ecap
        reachable: Set[int] = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for i in range(start[u], start[u + 1]):
                e = order[i]
                v = target[e]
                if cap[e] > _EPS and v not in reachable:
                    reachable.add(v)
                    queue.append(v)
        return reachable

    def _cut_edges(
        self, reachable: Set[int]
    ) -> Tuple[Tuple[Hashable, Hashable, float], ...]:
        """Forward edges crossing the cut, with their original capacities."""
        target, cap = self._etarget, self._ecap
        cut: List[Tuple[Hashable, Hashable, float]] = []
        for ui in reachable:
            for e in self._heads[ui]:
                if not e & 1 and target[e] not in reachable:
                    original = cap[e] + cap[e ^ 1]
                    cut.append(
                        (self._nodes[ui], self._nodes[target[e]], original)
                    )
        return tuple(cut)

    # -- push-relabel (independent second solver) --------------------------------

    def max_flow_push_relabel(self, source: Hashable, sink: Hashable) -> MaxFlowResult:
        """Goldberg-Tarjan push-relabel max flow (FIFO variant).

        An algorithmically independent solver over the same network,
        used to cross-validate Dinic's results in the test suite (two
        implementations agreeing by construction is far stronger evidence
        than one).  The network is consumed, as with :meth:`max_flow`.

        Infinite capacities are clamped to a finite bound exceeding the
        total finite capacity, which cannot change any finite min cut.
        """
        s, t = self._terminals(source, sink)
        n = len(self._nodes)
        start, order = self._ensure_csr()
        target, cap = self._etarget, self._ecap

        finite_total = sum(
            cap[e]
            for e in range(0, len(target), 2)
            if cap[e] != INFINITY
        )
        bound = 2.0 * finite_total + 1.0
        for e in range(len(cap)):
            if cap[e] == INFINITY:
                cap[e] = bound

        height = [0] * n
        excess = [0.0] * n
        height[s] = n
        queue: deque = deque()
        for i in range(start[s], start[s + 1]):
            e = order[i]
            if cap[e] > _EPS:
                flow = cap[e]
                cap[e] = 0.0
                cap[e ^ 1] += flow
                v = target[e]
                excess[v] += flow
                if v not in (s, t):
                    queue.append(v)

        arc_ptr = list(start[:n])
        while queue:
            u = queue.popleft()
            while excess[u] > _EPS:
                if arc_ptr[u] == start[u + 1]:
                    # Relabel: one above the lowest admissible neighbour.
                    min_h = None
                    for i in range(start[u], start[u + 1]):
                        e = order[i]
                        if cap[e] > _EPS:
                            h = height[target[e]]
                            if min_h is None or h < min_h:
                                min_h = h
                    if min_h is None:
                        break
                    height[u] = min_h + 1
                    arc_ptr[u] = start[u]
                    continue
                e = order[arc_ptr[u]]
                v = target[e]
                if cap[e] > _EPS and height[u] == height[v] + 1:
                    flow = min(excess[u], cap[e])
                    cap[e] -= flow
                    cap[e ^ 1] += flow
                    excess[u] -= flow
                    had_none = excess[v] <= _EPS
                    excess[v] += flow
                    if had_none and v not in (s, t):
                        queue.append(v)
                else:
                    arc_ptr[u] += 1

        reachable = self._residual_reachable(s)
        return MaxFlowResult(
            max_flow=excess[t],
            source_side=frozenset(self._nodes[i] for i in reachable),
            cut_edges=self._cut_edges(reachable),
        )
