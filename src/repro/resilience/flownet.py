"""The s-t min cut behind every PTIME construction, on flat edge arrays.

The paper's PTIME algorithms — the linear-flow construction of
Section 2.4 / Proposition 31 and the bespoke algorithms of
Propositions 12, 13, 33, 36, 41, and 44 — all reduce resilience to s-t
minimum cut in networks where *tuples* are unit-capacity elements and
everything else has effectively infinite capacity.  :class:`FlowNetwork`
wraps that pattern with the two idioms every construction here needs:

* **element edges**: a deletable tuple is modelled as an edge
  ``u -> v`` of integer capacity 1 carrying a payload (the tuple); in
  the *weighted* problem the capacity is the tuple's cost instead, so
  the min cut directly minimizes the summed deletion cost;
* **infinite edges**: structural connections that may never be cut,
  modelled with an integer big-M capacity strictly larger than the sum
  of all unit capacities (so any finite min cut avoids them; a computed
  cut of value >= M means an all-infinite s-t path, which the
  constructions forbid).

All capacities are integers — no ``float("inf")``, no float arithmetic,
no rounding repair on the way out.

The constructions build the network; one small solver solves it.
Nodes are interned to dense ints as edges arrive (the source is 0, the
sink 1) and each edge is appended to flat tail / head / capacity /
payload lists.  :meth:`FlowNetwork.min_cut` runs a pure-Python Dinic
max flow on those lists: the constructions are small (tens of edges),
so per-call set-up, not asymptotics, decides the cost.

The returned cut is the source side reachable in the residual graph of
the maximum flow — the unique minimum cut closest to the source, hence
inclusion-minimal, which is exactly the property Lemma 55 needs when
one tuple appears as several parallel unit edges (callers additionally
verify that payload deduplication does not shrink the cut).
``tests/test_dinic.py`` pins the identical cut sets against an
independent networkx maximum flow on random networks, and
``tests/test_flow_backends.py`` checks values and cut minimality
against networkx's ``minimum_cut`` (the differential reference kept in
``tests/oracles``) on the full special-solver zoo.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple


class FlowNetwork:
    """A directed flow network with payload-carrying unit edges."""

    SOURCE = "__source__"
    SINK = "__sink__"

    def __init__(self):
        # node -> dense id, in first-seen order (source 0, sink 1).
        self._index: Dict[Hashable, int] = {self.SOURCE: 0, self.SINK: 1}
        self._tail: List[int] = []
        self._head: List[int] = []
        # Edge capacity; None marks an infinite edge.
        self._cap: List[Optional[int]] = []
        self._payload: List = []
        self._pairs: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def _add_edge(self, u: Hashable, v: Hashable, capacity, payload) -> bool:
        """Append ``u -> v``; False (and no change) if it already exists."""
        index = self._index
        iu = index.setdefault(u, len(index))
        iv = index.setdefault(v, len(index))
        pair = (iu, iv)
        if pair in self._pairs:
            return False
        self._pairs.add(pair)
        self._tail.append(iu)
        self._head.append(iv)
        self._cap.append(capacity)
        self._payload.append(payload)
        return True

    def add_unit_edge(
        self, u: Hashable, v: Hashable, payload, capacity: int = 1
    ) -> None:
        """An edge of finite capacity representing a deletable tuple.

        ``capacity`` defaults to 1 (the unweighted construction); the
        weighted constructions pass the tuple's cost, so cutting the
        edge charges exactly that cost to the min cut.

        A second edge between the same node pair is rejected: merging
        it would corrupt payload bookkeeping, so constructions use
        distinct intermediate nodes for distinct payloads (they all do).
        """
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"unit-edge capacity must be a positive int, got {capacity!r}")
        if not self._add_edge(u, v, capacity, payload):
            raise ValueError(f"duplicate edge {u!r} -> {v!r}")

    def add_inf_edge(self, u: Hashable, v: Hashable) -> None:
        """A structural edge that no finite cut uses (a repeat is a no-op).

        The concrete big-M capacity is materialized at solve time (it
        must exceed the sum of the unit capacities, known only then).
        """
        self._add_edge(u, v, None, None)

    def source_edge(self, v: Hashable) -> None:
        """Infinite edge from the source."""
        self.add_inf_edge(self.SOURCE, v)

    def sink_edge(self, u: Hashable) -> None:
        """Infinite edge to the sink."""
        self.add_inf_edge(u, self.SINK)

    # ------------------------------------------------------------------
    def has_node(self, node: Hashable) -> bool:
        """Whether ``node`` is the source, the sink or an edge endpoint."""
        return node in self._index

    def number_of_edges(self) -> int:
        """Edges added (a repeated infinite edge counts once)."""
        return len(self._tail)

    def edges(self) -> Iterator[Tuple[Hashable, Hashable, Optional[int], object]]:
        """``(u, v, capacity, payload)`` per edge in insertion order; an
        infinite edge has capacity and payload ``None``."""
        nodes = list(self._index)
        for iu, iv, cap, payload in zip(
            self._tail, self._head, self._cap, self._payload
        ):
            yield nodes[iu], nodes[iv], cap, payload

    @property
    def graph(self) -> "FlowNetwork":
        """The network itself, for callers that count edges or probe
        nodes through ``net.graph.number_of_edges()`` /
        ``net.graph.has_node()``."""
        return self

    # ------------------------------------------------------------------
    def min_cut(self) -> Tuple[int, List]:
        """(cut value, payloads of cut unit edges, in insertion order).

        The returned cut is the one induced by the residual-graph
        source partition of a maximum flow — the unique
        inclusion-minimal min cut (the property Lemma 55 needs).  The
        value is an exact integer: element edges carry their integer
        capacity (1 unweighted, the tuple cost weighted), and a value
        reaching the big-M bound (an all-infinite s-t path, which the
        constructions forbid) raises ``RuntimeError``.
        """
        if 0 not in self._tail or 1 not in self._head:
            return 0, []
        # Strictly above the sum of all finite capacities, so no finite
        # cut ever prefers an infinite edge — weighted or not.
        big_m = sum(c for c in self._cap if c is not None) + 1
        value, side = self._max_flow(big_m)
        if value >= big_m:
            raise RuntimeError("min cut is infinite (all-infinite s-t path)")
        # Cut value sums the capacities (= costs) of the cut element edges.
        return value, [
            payload
            for iu, iv, cap, payload in zip(
                self._tail, self._head, self._cap, self._payload
            )
            if cap is not None and side[iu] and not side[iv]
        ]

    def _max_flow(self, big_m: int) -> Tuple[int, Sequence[bool]]:
        """(max-flow value, source side): ``side[i]`` is true for the
        nodes (by dense id) reachable from the source in the residual
        graph."""
        caps = [big_m if c is None else c for c in self._cap]
        return _dinic_max_flow(len(self._index), self._tail, self._head, caps)


def _dinic_max_flow(
    n: int, tail: Sequence[int], head: Sequence[int], caps: Sequence[int]
) -> Tuple[int, List[bool]]:
    """Dinic's max flow from node 0 to node 1 over ``n`` nodes.

    Edge ``k`` becomes arc ``2k`` (residual ``caps[k]``) and its reverse
    arc ``2k + 1`` (residual 0), so ``a ^ 1`` is an arc's partner.  The
    BFS that first fails to reach the sink is the residual reachability
    of the final flow: its labelled nodes are the source side.
    """
    m = len(tail)
    to = [0] * (2 * m)
    to[0::2] = head
    to[1::2] = tail
    res = [0] * (2 * m)
    res[0::2] = caps
    adj: List[List[int]] = [[] for _ in range(n)]
    for k in range(m):
        adj[tail[k]].append(2 * k)
        adj[head[k]].append(2 * k + 1)

    flow = 0
    while True:
        level = [-1] * n
        level[0] = 0
        queue = [0]
        for u in queue:
            deeper = level[u] + 1
            for a in adj[u]:
                v = to[a]
                if res[a] and level[v] < 0:
                    level[v] = deeper
                    queue.append(v)
        if level[1] < 0:
            return flow, [lv >= 0 for lv in level]
        # Blocking flow: repeated source-to-sink walks along level-graph
        # arcs; ``cursor[u]`` skips arcs already found saturated or dead.
        cursor = [0] * n
        while True:
            path: List[int] = []
            u = 0
            while u != 1:
                arcs = adj[u]
                i = cursor[u]
                deeper = level[u] + 1
                while i < len(arcs):
                    a = arcs[i]
                    if res[a] and level[to[a]] == deeper:
                        break
                    i += 1
                cursor[u] = i
                if i < len(arcs):
                    path.append(a)
                    u = to[a]
                elif path:
                    # Dead end: retreat and retire the arc that led here.
                    u = to[path.pop() ^ 1]
                    cursor[u] += 1
                else:
                    break
            if u != 1:
                break
            push = min(res[a] for a in path)
            for a in path:
                res[a] -= push
                res[a ^ 1] += push
            flow += push

