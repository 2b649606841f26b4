"""The engine's Dinic min cut against an independent networkx max flow.

:meth:`FlowNetwork.min_cut` cuts at the residual source side of its
maximum flow.  That side is the unique source-minimal min cut of *any*
maximum flow, so networkx's maximum flow, cut the same way
(``oracles.nx_source_minimal_cut``), must return the same value *and*
the same payload list — not merely an equally good cut.  Random
networks with unit and weighted capacities pin that; networkx's own
``minimum_cut`` (``oracles.nx_min_cut``) checks the value once more.
"""

import random

import pytest
from oracles import nx_min_cut, nx_source_minimal_cut

from repro.resilience.flownet import FlowNetwork


def _random_network(edges: int, seed: int, max_cap: int = 1) -> FlowNetwork:
    """A node-split network of about ``edges`` edges.

    Elements are ``in -> out`` edges of capacity ``1..max_cap`` (payload
    ``("e", i)``); the source feeds ``in`` nodes and ``out`` nodes feed
    the sink.  Infinite edges join ``out -> in``, ``in -> in`` and
    ``out -> out`` at random (cycles included), and some extra finite
    edges cross between elements, so every s-t path crosses a finite
    edge and the cut is finite.
    """
    rng = random.Random(seed)
    elements = max(2, edges // 4)
    net = FlowNetwork()
    for i in range(elements):
        net.add_unit_edge(("in", i), ("out", i), payload=("e", i),
                          capacity=rng.randint(1, max_cap))
    for i in rng.sample(range(elements), max(1, elements // 3)):
        net.source_edge(("in", i))
    for i in rng.sample(range(elements), max(1, elements // 3)):
        net.sink_edge(("out", i))
    extra = 0
    while net.number_of_edges() < edges:
        i, j = rng.randrange(elements), rng.randrange(elements)
        kind = rng.random()
        if kind < 0.15 and i != j:
            try:
                net.add_unit_edge(("in", i), ("out", j), payload=("x", extra),
                                  capacity=rng.randint(1, max_cap))
                extra += 1
            except ValueError:
                pass  # the pair already has an edge
        else:
            ends = rng.choice((("out", "in"), ("in", "in"), ("out", "out")))
            net.add_inf_edge((ends[0], i), (ends[1], j))
    return net


def _assert_matches_networkx(net):
    """The engine's (value, payloads) is networkx's residual cut; the
    payloads pay exactly the value, once each."""
    value, payloads = net.min_cut()
    assert (value, payloads) == nx_source_minimal_cut(net)
    assert type(value) is int
    assert nx_min_cut(net)[0] == value
    caps = {p: c for _u, _v, c, p in net.edges() if c is not None}
    assert sum(caps[p] for p in payloads) == value
    assert len(set(payloads)) == len(payloads)


class TestMatchesNetworkx:
    @pytest.mark.parametrize("max_cap", (1, 9), ids=("unit", "weighted"))
    @pytest.mark.parametrize("edges", (6, 40, 300))
    def test_random_networks(self, edges, max_cap):
        for seed in range(12):
            _assert_matches_networkx(_random_network(edges, seed, max_cap))

    @pytest.mark.parametrize("max_cap", (1, 9), ids=("unit", "weighted"))
    def test_large_networks(self, max_cap):
        """Far beyond the constructions' tens of edges."""
        for seed in (1, 2):
            _assert_matches_networkx(_random_network(2500, seed, max_cap))

    def test_reverse_edges_and_cycles(self):
        """Antiparallel finite edges and a cycle through the sink side:
        the residual source side still decides the cut."""
        net = FlowNetwork()
        net.source_edge("a")
        net.add_unit_edge("a", "b", payload="ab", capacity=3)
        net.add_unit_edge("b", "a", payload="ba", capacity=5)
        net.add_unit_edge("a", "c", payload="ac", capacity=1)
        net.add_inf_edge("b", "c")
        net.add_inf_edge("c", "b")
        net.sink_edge("c")
        assert net.min_cut() == (4, ["ab", "ac"])
        assert nx_source_minimal_cut(net) == (4, ["ab", "ac"])
