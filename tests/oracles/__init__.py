"""Differential reference implementations the engine no longer runs.

The engine keeps one implementation per layer on its runtime path; the
slower originals it replaced live here, for the suites (and the E18 /
E21 benchmarks) that check the fast paths against them:

* :func:`nx_min_cut` — networkx's ``minimum_cut`` on a
  :class:`~repro.resilience.flownet.FlowNetwork` (the original flow
  backend); :func:`networkx_flow` routes every ``min_cut`` through it;
* :func:`nx_source_minimal_cut` — the engine's cut contract computed
  independently: networkx's maximum flow, then the source side of its
  residual graph, so the cut *sets* must match the engine's exactly;
* :func:`force_reference_kernel` — raises the bitset size guards of the
  kernel, the component decomposition and the budgeted search to
  ``sys.maxsize``, so every instance takes the frozenset reference
  pipelines;
* :func:`ijp_search_reference` — the pre-vectorization Appendix C.2
  IJP search, one recursive partition at a time
  (:func:`reference_partition_check` is its loop body), and
  :func:`rgs_reference`, the recursive restricted-growth-string
  enumeration the vectorized ``repro.ijp.rgs`` engine must match;
* :func:`local_search_reference` — the list-based 2-for-1 swap local
  search the bitset ``approx._local_search`` must match exactly;
* :func:`evaluate_leaf_reference` / :func:`cond5_prescreen_reference` —
  the IJP leaf stage on a merged :class:`~repro.db.database.Database`
  and ``DBTuple`` witness sets (Definition 48 conditions 1-4 through
  ``check_conditions_1_4``, condition 5 over tuple-indexed bitmasks),
  which the slot-coded ``PartitionSpace.evaluate_leaf`` and
  ``_cond5_prescreen`` must match pair for pair.
"""

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.ijp.checker import (
    IJPReport,
    check_conditions_1_4,
    combined_flags,
    find_ijp_pair,
)
from repro.ijp.search import _merge_copies, set_partitions
from repro.ijp.space import PartitionSpace, _min_hitting_number
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import satisfies, witness_tuple_sets
from repro.resilience import approx
from repro.resilience.approx import (
    _SWAP_PAIRS_PER_PASS,
    _SWAP_PASSES,
    _prune_redundant,
)
from repro.resilience.flownet import FlowNetwork
from repro.witness import structure

__all__ = [
    "ReferenceLeafEvaluation",
    "cond5_prescreen_reference",
    "evaluate_leaf_reference",
    "force_reference_kernel",
    "ijp_search_reference",
    "local_search_reference",
    "networkx_flow",
    "nx_min_cut",
    "nx_source_minimal_cut",
    "reference_partition_check",
    "rgs_reference",
]


def _nx_graph(network: FlowNetwork, big_m: int) -> nx.DiGraph:
    """A fresh networkx copy of ``network``, big-M on the infinite edges."""
    graph = nx.DiGraph()
    graph.add_nodes_from((network.SOURCE, network.SINK))
    for u, v, capacity, _payload in network.edges():
        graph.add_edge(u, v, capacity=big_m if capacity is None else capacity)
    return graph


def _nx_max_flow(network: FlowNetwork, big_m: int) -> Tuple[int, List[bool]]:
    """``FlowNetwork._max_flow`` on networkx: (value, source side by
    node id).

    networkx's ``minimum_cut`` partition yields the cut closest to the
    *sink*, so the cut sets may differ from the engine's
    (source-closest) cut while the values agree.
    """
    value, (reachable, _) = nx.minimum_cut(
        _nx_graph(network, big_m), network.SOURCE, network.SINK,
        capacity="capacity",
    )
    return int(value), [node in reachable for node in network._index]


def _nx_residual_max_flow(
    network: FlowNetwork, big_m: int
) -> Tuple[int, List[bool]]:
    """``FlowNetwork._max_flow`` on networkx's maximum flow, with the
    source side read off its residual graph by a search of our own."""
    graph = _nx_graph(network, big_m)
    value, flow = nx.maximum_flow(
        graph, network.SOURCE, network.SINK, capacity="capacity"
    )
    reachable = {network.SOURCE}
    stack = [network.SOURCE]
    while stack:
        u = stack.pop()
        forward = (
            v for v, data in graph.succ[u].items()
            if flow[u][v] < data["capacity"]
        )
        backward = (v for v in graph.pred[u] if flow[v][u] > 0)
        for v in (*forward, *backward):
            if v not in reachable:
                reachable.add(v)
                stack.append(v)
    return int(value), [node in reachable for node in network._index]


@contextmanager
def _route_max_flow(max_flow):
    original = FlowNetwork._max_flow
    FlowNetwork._max_flow = max_flow
    try:
        yield
    finally:
        FlowNetwork._max_flow = original


def networkx_flow():
    """Route every :meth:`FlowNetwork.min_cut` through networkx."""
    return _route_max_flow(_nx_max_flow)


def nx_min_cut(network: FlowNetwork) -> Tuple[int, List]:
    """``network.min_cut()`` computed by networkx."""
    with networkx_flow():
        return network.min_cut()


def nx_source_minimal_cut(network: FlowNetwork) -> Tuple[int, List]:
    """``network.min_cut()`` on networkx's maximum flow, cut at the
    residual source side — the engine's cut, computed independently."""
    with _route_max_flow(_nx_residual_max_flow):
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


def reference_partition_check(
    query: ConjunctiveQuery, k: int, partition: List[List]
) -> Optional[IJPReport]:
    """One step of the reference IJP walk: merge ``k`` canonical copies
    under ``partition`` and run the full Definition 48 check."""
    db = _merge_copies(query, k, partition)
    if not satisfies(db, query):
        return None  # pragma: no cover - canonical copies always satisfy
    return find_ijp_pair(db, query)


def ijp_search_reference(
    query: ConjunctiveQuery,
    max_joins: int = 3,
    partition_budget: int = 200_000,
) -> Optional[IJPReport]:
    """The pre-vectorization Appendix C.2 search: one recursive
    partition at a time, one full Definition 48 check per merged
    database.  Benchmark E23's speedup gate and the pruning-soundness
    tests compare :func:`repro.ijp.ijp_search` against this."""
    for k in range(1, max_joins + 1):
        constants = [(tag, v) for tag in range(k) for v in sorted(query.variables())]
        budget = partition_budget
        for partition in set_partitions(constants):
            budget -= 1
            if budget < 0:
                break
            report = reference_partition_check(query, k, partition)
            if report is not None:
                report.reasons.append(
                    f"found with {k} join copies, partition {partition}"
                )
                return report
    return None


def rgs_reference(n: int) -> Iterator[Tuple[int, ...]]:
    """Recursive enumeration of all restricted growth strings of length
    ``n``, in lexicographic order; ``repro.ijp.rgs``'s vectorized
    expansion must agree with it exactly."""
    if n == 0:
        yield ()
        return

    def rec(prefix: List[int], ceiling: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for digit in range(ceiling + 2):
            prefix.append(digit)
            yield from rec(prefix, max(ceiling, digit))
            prefix.pop()

    yield from rec([], -1)


def local_search_reference(
    sets: Sequence[FrozenSet[int]], chosen: Set[int], costs=None
) -> Set[int]:
    """Improve a feasible hitting set by redundancy pruning and 2-for-1 swaps.

    A swap replaces two chosen tuples ``a < b`` with one unchosen tuple
    ``t`` that hits every witness only ``a`` or ``b`` were hitting
    (computed from per-tuple row lists and hit counts, so a pair check
    costs the two tuples' degrees, not a scan of all witnesses).
    Passes repeat until a fixpoint or the deterministic effort caps are
    reached; the output is always feasible and never costlier than the
    input.  With ``costs`` a swap is applied only when the replacement
    is strictly cheaper than the pair it evicts, so the cost objective
    (not the cardinality) monotonically improves.
    """
    chosen = _prune_redundant(sets, chosen, costs=costs)
    for _ in range(_SWAP_PASSES):
        improved = False
        cover = [len(s & chosen) for s in sets]
        rows_of: Dict[int, List[int]] = {}
        for r, s in enumerate(sets):
            for t in s:
                if t in chosen:
                    rows_of.setdefault(t, []).append(r)
        ordered = sorted(chosen)
        pairs = 0
        for i, a in enumerate(ordered):
            if improved:
                break
            rows_a = rows_of.get(a, [])
            for b in ordered[i + 1:]:
                pairs += 1
                if pairs > _SWAP_PAIRS_PER_PASS:
                    break
                rows_b = rows_of.get(b, [])
                # Witness rows left unhit if both a and b are removed:
                # singly-covered rows of either, plus doubly-covered
                # rows containing both.
                b_rows = set(rows_b)
                must_hit = (
                    [r for r in rows_a if cover[r] == 1]
                    + [r for r in rows_b if cover[r] == 1]
                    + [r for r in rows_a if r in b_rows and cover[r] == 2]
                )
                if not must_hit:
                    # a and b are jointly redundant — drop both.
                    chosen = _prune_redundant(sets, chosen - {a, b}, costs=costs)
                    improved = True
                    break
                candidates = set(sets[must_hit[0]]) - chosen
                for r in must_hit[1:]:
                    candidates &= sets[r]
                    if not candidates:
                        break
                if candidates:
                    if costs is None:
                        pick = min(candidates)
                    else:
                        pick = min(candidates, key=lambda t: (costs[t], t))
                        if costs[pick] >= costs[a] + costs[b]:
                            continue
                    chosen = _prune_redundant(
                        sets, (chosen - {a, b}) | {pick}, costs=costs
                    )
                    improved = True
                    break
            else:
                continue
        if not improved:
            break
    return chosen


@dataclass
class ReferenceLeafEvaluation:
    """Full conditions-1-4 evaluation of one surviving leaf.

    ``witness_sets`` keeps the database's (deduplicated) witness tuple
    sets alive for the condition-5 stage: removing an endpoint ``a``
    from ``D`` removes exactly the witnesses containing ``a`` and
    creates none, so all four condition-5 probes are hitting-set
    problems over *subsets of one shared witness enumeration* — the
    kernelized component the probes share.
    """

    rgs: Tuple[int, ...]
    database: Database
    candidates: List[Tuple[DBTuple, DBTuple]]
    unbreakable: bool
    witness_sets: List[frozenset] = field(default_factory=list)
    endo_tuples: List[DBTuple] = field(default_factory=list)


def evaluate_leaf_reference(
    space: PartitionSpace, code: Sequence[int]
) -> ReferenceLeafEvaluation:
    """Conditions 1-4 over every endpoint pair of one candidate.

    Witness sets are enumerated once and shared across the pairs
    (the amortization :func:`check_conditions_1_4` is built for);
    ``unbreakable`` flags an all-exogenous witness, which makes
    condition 5 undefined for every pair — those candidates never
    reach the probe batch, so the batch cannot raise
    ``UnbreakableQueryError`` (witnesses of ``D - a`` are a subset
    of ``D``'s, so the screen on ``D`` covers the probes too).
    """
    db = space.merge(code)
    flags = combined_flags(db, space.query)
    all_sets = witness_tuple_sets(db, space.query, endogenous_only=False)
    unbreakable = any(
        all(flags.get(t.relation, False) for t in s) for s in all_sets
    )
    candidates: List[Tuple[DBTuple, DBTuple]] = []
    if not unbreakable:
        for name in sorted(db.relations):
            if flags.get(name, False):
                continue
            for ta, tb in combinations(sorted(db.relations[name]), 2):
                conditions, _ = check_conditions_1_4(
                    db, space.query, ta, tb, all_sets=all_sets, flags=flags
                )
                if all(conditions):
                    candidates.append((ta, tb))
    endo = sorted(
        {
            t
            for s in all_sets
            for t in s
            if not flags.get(t.relation, False)
        }
    )
    return ReferenceLeafEvaluation(
        rgs=tuple(int(c) for c in code),
        database=db,
        candidates=candidates,
        unbreakable=unbreakable,
        witness_sets=all_sets,
        endo_tuples=endo,
    )


def cond5_prescreen_reference(
    ev: ReferenceLeafEvaluation, flags: Dict[str, bool]
) -> Tuple[int, List[Tuple[Tuple[DBTuple, DBTuple], Tuple[int, int, int, int]]]]:
    """Exact condition-5 values for every candidate pair of one leaf,
    computed from the shared witness enumeration.

    ``witnesses(D - t)`` are precisely the witness sets of ``D`` not
    containing ``t`` (a homomorphism not using ``t`` survives the
    removal, and removals create no witnesses), so all four probes are
    hitting-set problems over one set family — no per-probe database
    build, canonicalization, or witness re-enumeration.  Probes short-
    circuit: most candidates already miss ``rho(D-a) = rho(D) - 1``.
    """
    bit_of = {t: 1 << i for i, t in enumerate(ev.endo_tuples)}
    full_masks: List[int] = []
    endo_masks: List[int] = []
    for s in ev.witness_sets:
        endo_masks.append(
            sum(bit_of[t] for t in s if not flags.get(t.relation, False))
        )
        full_masks.append(sum(bit_of.get(t, 0) for t in s))
    r0 = _min_hitting_number(endo_masks)
    outcomes = []
    for ta, tb in ev.candidates:
        ba, bb = bit_of[ta], bit_of[tb]

        def rho_minus(removed: int) -> int:
            kept = [
                em
                for em, fm in zip(endo_masks, full_masks)
                if not fm & removed
            ]
            return _min_hitting_number(kept) if kept else 0

        ra = rho_minus(ba)
        if ra != r0 - 1:
            outcomes.append(((ta, tb), (r0, ra, None, None)))
            continue
        rb = rho_minus(bb)
        if rb != r0 - 1:
            outcomes.append(((ta, tb), (r0, ra, rb, None)))
            continue
        rab = rho_minus(ba | bb)
        outcomes.append(((ta, tb), (r0, ra, rb, rab)))
    return r0, outcomes
