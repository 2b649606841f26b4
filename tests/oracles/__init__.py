"""Differential reference implementations the engine no longer runs.

The engine keeps one implementation per layer on its runtime path; the
slower originals it replaced live here, for the suites (and the E18 /
E21 benchmarks) that check the fast paths against them:

* :func:`nx_min_cut` — networkx's ``minimum_cut`` on a
  :class:`~repro.resilience.flownet.FlowNetwork` (the original flow
  backend); :func:`networkx_flow` routes every ``min_cut`` through it;
* :func:`force_reference_kernel` — raises the bitset size guards of the
  kernel, the component decomposition and the budgeted search to
  ``sys.maxsize``, so every instance takes the frozenset reference
  pipelines.
"""

import sys
from contextlib import contextmanager
from typing import Hashable, List, Set, Tuple

import networkx as nx

from repro.resilience import approx
from repro.resilience.flownet import FlowNetwork
from repro.witness import structure

__all__ = ["force_reference_kernel", "networkx_flow", "nx_min_cut"]


def _nx_max_flow(network: FlowNetwork, big_m: int) -> Tuple[int, Set[Hashable]]:
    """``FlowNetwork._max_flow`` on networkx: (value, source side).

    networkx's partition yields the cut closest to the *sink*, so the
    cut sets may differ from the engine's (source-closest) cut while
    the values agree.
    """
    graph = network.graph
    # Infinite edges carry capacity None until solve time; big-M them
    # in place (the csgraph path ignores the stored value).
    for _u, _v, data in graph.edges(data=True):
        if data["payload"] is None:
            data["capacity"] = big_m
    value, (reachable, _) = nx.minimum_cut(
        graph, network.SOURCE, network.SINK, capacity="capacity"
    )
    return int(value), set(reachable)


@contextmanager
def networkx_flow():
    """Route every :meth:`FlowNetwork.min_cut` through networkx."""
    original = FlowNetwork._max_flow
    FlowNetwork._max_flow = _nx_max_flow
    try:
        yield
    finally:
        FlowNetwork._max_flow = original


def nx_min_cut(network: FlowNetwork) -> Tuple[int, List]:
    """``network.min_cut()`` computed by networkx."""
    with networkx_flow():
        return network.min_cut()


# (module, size-guard attribute) pairs; each guard's bitset path only
# runs at or above the guard.
_BITSET_GUARDS = (
    (structure, "_BITSET_MIN_SETS"),
    (structure, "_DECOMPOSE_MATRIX_MIN_SETS"),
    (approx, "_BNB_BITSET_MIN_SETS"),
)


@contextmanager
def force_reference_kernel():
    """Run the frozenset reference kernel, decomposition and budgeted
    search on every input, however large."""
    saved = [getattr(module, name) for module, name in _BITSET_GUARDS]
    try:
        for module, name in _BITSET_GUARDS:
            setattr(module, name, sys.maxsize)
        yield
    finally:
        for (module, name), value in zip(_BITSET_GUARDS, saved):
            setattr(module, name, value)
