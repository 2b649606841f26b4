"""Certified approximate and anytime resilience solving.

Exact resilience is NP-complete for most self-join queries
(Theorem 24 / Figure 5), so beyond a few hundred witnesses the exact
hitting-set solvers of :mod:`repro.resilience.exact` hit a wall.  This
module trades exactness for a *certified interval*
``lb <= rho(q, D) <= ub`` computed in polynomial time from the same
preprocessed :class:`~repro.witness.WitnessStructure` (the hitting-set
view of resilience from Section 2), component by component:

**Lower bounds** (never exceed the optimum):

* *LP relaxation* — ``min 1.x  s.t.  A x >= 1, 0 <= x <= 1`` over the
  component's CSR incidence matrix, solved by
  :func:`scipy.optimize.linprog` (HiGHS); ``ceil(LP - eps)`` is a valid
  integral lower bound because the LP relaxes the hitting-set IP.
* *Disjoint-witness packing* — a greedy matching of pairwise-disjoint
  witness sets; any hitting set spends one tuple per packed witness
  (weak LP duality: the packing is a feasible dual solution).

**Upper bounds** (witnessed by a feasible contingency set):

* *Greedy hitting set* (:func:`greedy_hitting_set`, promoted out of
  ``exact.py`` and shared with the branch-and-bound seeding there) —
  the classic set-cover greedy with the ``H(d)`` harmonic-ratio
  guarantee, where ``d`` is the largest number of witnesses any single
  tuple hits;
* *LP rounding* — take every tuple with LP weight ``>= 1/f`` (``f`` =
  the largest witness-set size), a feasible ``f``-approximation, then
  prune redundant tuples;
* *Local search* — redundancy elimination plus 2-for-1 swap moves on
  the incumbent.

The **anytime driver** (:func:`resilience_anytime`) starts from that
interval and, within a :class:`~repro.resilience.types.Budget` of
wall-clock time and/or branch-and-bound nodes, refines the open
components — smallest gap first, so a tight budget closes as many
intervals as possible — using a *budgeted* branch and bound whose
abandoned-subtree bounds still certify a lower bound.  With an
unlimited budget the refinement runs to completion and the interval
closes on the exact value — anytime solving subsumes exact solving.

All bounds are per-component and summed (plus the forced tuples), which
both tightens them and lets the budget focus on the hard components.

**Weighted instances.**  Every primitive accepts an optional ``costs``
map (tuple id -> positive int) and then optimizes the *weighted*
hitting-set objective ``min sum cost(t)``: the greedy picks by
witnesses-hit-per-cost ratio (Chvátal's weighted set-cover greedy, same
``H(d)`` guarantee), the packing bound charges each packed witness its
cheapest member, the LP/ILP objective vector carries the costs, local
search swaps only when they lower total cost, and the budgeted branch
and bound bounds by cost sums.  ``costs=None`` is exactly the
historical unit-cost behavior — the weighted generalizations all
degenerate to it when every cost is 1.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import DatabaseIndex
from repro.resilience.types import BoundedResilienceResult, Budget
from repro.witness import WitnessComponent, WitnessStructure, witness_structure

T = TypeVar("T")

# Safety margin when turning a floating-point LP optimum into an
# integral lower bound: ceil(LP - eps) can only *under*-claim.  The
# margin is *relative* to the objective (see _lp_floor) because solver
# tolerances scale with the objective value — an absolute 1e-6 would
# not cover an overshoot on an optimum of order 1000.
_LP_EPS = 1e-6


def _lp_floor(lp_value: float) -> int:
    """A certified integral lower bound from a floating-point LP optimum."""
    return math.ceil(lp_value - _LP_EPS * max(1.0, abs(lp_value)))


def _ids_cost(ids, costs) -> int:
    """The cost of a set of ids: its size unweighted, the cost sum weighted."""
    if costs is None:
        return len(ids)
    return sum(costs[t] for t in ids)


# ---------------------------------------------------------------------------
# Shared combinatorial bounds (consumed by exact.py as well)
# ---------------------------------------------------------------------------

def greedy_hitting_set(
    sets: Sequence[FrozenSet[T]], costs=None
) -> Set[T]:
    """Greedy upper bound: repeatedly take the element hitting most sets.

    This is the set-cover greedy in hitting-set form (tuples cover the
    witnesses they appear in), so the classic harmonic guarantee
    applies: the result is at most ``H(d) = 1 + 1/2 + ... + 1/d`` times
    the optimum, where ``d`` is the largest number of sets any single
    element hits.

    With ``costs`` the pick maximizes the *ratio* — witnesses hit per
    unit cost — which is Chvátal's weighted set-cover greedy; the same
    ``H(d)`` guarantee holds for the weighted optimum.  Ratios are
    compared by integer cross-multiplication (no floats), so the pick
    order is exact; with all costs at 1 the ratio order *is* the count
    order and the weighted pick coincides with the unweighted one.

    Determinism guarantee: among elements of equal count (unweighted)
    or equal ratio (weighted), the *smallest* under the elements' own
    total order wins — integer tuple-ids ascending, or
    :meth:`DBTuple.sort_key` when called on raw fact sets — the same
    order used for branching and for sorted contingency-set output.
    The result is therefore a pure function of the input sets (and
    costs), independent of set/dict iteration order.

    Counts are maintained incrementally (each set is retired exactly
    once), so the cost is one max-scan per pick plus the incidence size
    — not the quadratic rebuild a naive greedy pays.
    """
    set_list = list(sets)
    counts: Dict[T, int] = {}
    rows_of: Dict[T, List[int]] = {}
    for r, s in enumerate(set_list):
        for t in s:
            counts[t] = counts.get(t, 0) + 1
            rows_of.setdefault(t, []).append(r)
    alive = [True] * len(set_list)
    alive_count = len(set_list)
    chosen: Set[T] = set()
    while alive_count:
        if costs is None:
            top = max(counts.values())
            best = min(t for t, c in counts.items() if c == top)
        else:
            # Highest count/cost ratio wins; cross-multiplied integer
            # comparison keeps the order exact, ties go to the smallest
            # element (the deterministic tie-break the satellite fix
            # pins: cost-ratio first, then the element order).
            best = None
            best_c = 0
            best_w = 1
            for t, c in counts.items():
                if c <= 0:
                    continue
                w = costs[t]
                diff = c * best_w - best_c * w
                if best is None or diff > 0 or (diff == 0 and t < best):
                    best, best_c, best_w = t, c, w
        chosen.add(best)
        for r in rows_of[best]:
            if alive[r]:
                alive[r] = False
                alive_count -= 1
                for t in set_list[r]:
                    counts[t] -= 1
    return chosen


def disjoint_witness_lower_bound(
    sets: Sequence[FrozenSet[T]], costs=None
) -> int:
    """Greedy packing of pairwise-disjoint witnesses: a hitting-set lower bound.

    Every hitting set must spend a distinct tuple on each packed
    witness; with ``costs`` that tuple costs at least the witness's
    cheapest member, so the packed minima sum to a *weighted* lower
    bound (and each unweighted minimum is 1, recovering the count).
    ``key=len`` with Python's stable sort keeps the packing
    deterministic (the input order is itself deterministic) without
    materializing per-set sort keys.  Also runs at every
    branch-and-bound node in ``exact.py``.
    """
    used: Set[T] = set()
    total = 0
    for s in sorted(sets, key=len):
        if not (s & used):
            used.update(s)
            total += 1 if costs is None else min(costs[t] for t in s)
    return total


def greedy_ratio_bound(sets: Sequence[FrozenSet[T]]) -> float:
    """``H(d)``: the proven approximation ratio of :func:`greedy_hitting_set`
    on ``sets``, where ``d`` is the largest number of sets hit by one
    element."""
    counts: Dict[T, int] = {}
    for s in sets:
        for t in s:
            counts[t] = counts.get(t, 0) + 1
    d = max(counts.values(), default=0)
    return sum(1.0 / k for k in range(1, d + 1)) if d else 1.0


# ---------------------------------------------------------------------------
# LP relaxation (lower bound + rounding)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _linprog():
    """scipy's ``linprog``, imported once on first use (not per call,
    not at module import)."""
    from scipy.optimize import linprog

    return linprog


def _lp_component(component: WitnessComponent, costs=None):
    """Solve the LP relaxation of one component's hitting-set IP.

    With ``costs`` the objective vector carries the per-tuple costs, so
    the optimum lower-bounds the *weighted* hitting-set IP.  Returns
    ``(optimum, x)`` with ``x`` indexed by local column (the sorted
    position within ``component.tuple_ids``), or ``(None, None)`` if
    the LP solver fails (the caller falls back to the packing bound).
    """
    linprog = _linprog()

    A = component.incidence_matrix()
    m, n = A.shape
    if costs is None:
        c = np.ones(n)
    else:
        c = np.array([costs[t] for t in component.tuple_ids], dtype=float)
    result = linprog(
        c=c,
        A_ub=-A,
        b_ub=-np.ones(m),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:  # pragma: no cover - HiGHS is reliable here
        return None, None
    return float(result.fun), result.x


def _lp_rounding(component: WitnessComponent, x, costs=None) -> Set[int]:
    """Round an LP solution to a feasible hitting set (global tuple ids).

    Taking every tuple with weight ``>= 1/f`` (``f`` = largest witness
    size) is feasible — each witness has at most ``f`` tuples, so at
    least one carries weight ``>= 1/f`` — and costs at most ``f`` times
    the LP optimum (the argument is objective-agnostic, so it holds for
    the weighted LP too).  Redundant tuples are pruned afterwards.
    """
    f = max((len(s) for s in component.sets), default=1)
    threshold = 1.0 / f - 1e-9
    chosen = {
        component.tuple_ids[j] for j in range(len(component.tuple_ids))
        if x[j] >= threshold
    }
    # Guard against LP solver tolerance leaving a row unhit: repair with
    # the smallest tuple of each missed witness (deterministic, and the
    # theoretical guarantee is unaffected when the LP is clean).
    for s in component.sets:
        if not (s & chosen):
            chosen.add(min(s))
    return _prune_redundant(component.sets, chosen, costs=costs)


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------

def _prune_redundant(
    sets: Sequence[FrozenSet[int]], chosen: Set[int], costs=None
) -> Set[int]:
    """Drop tuples every one of whose witnesses is hit by another choice.

    Scans in descending tuple-id order (deterministic; keeps the small
    ids the greedy/branching orders prefer) maintaining per-witness hit
    counts, so the whole pass is linear in the incidence size.  With
    ``costs`` the scan visits expensive tuples first, so when two
    redundant tuples shadow each other the pricier one is dropped.
    """
    cover: List[int] = [len(s & chosen) for s in sets]
    rows_of: Dict[int, List[int]] = {}
    for r, s in enumerate(sets):
        for t in s:
            if t in chosen:
                rows_of.setdefault(t, []).append(r)
    kept = set(chosen)
    if costs is None:
        order = sorted(kept, reverse=True)
    else:
        order = sorted(kept, key=lambda t: (costs[t], t), reverse=True)
    for t in order:
        rows = rows_of.get(t, [])
        if all(cover[r] >= 2 for r in rows):
            kept.discard(t)
            for r in rows:
                cover[r] -= 1
    return kept


def _tuple_rows(sets: Sequence[FrozenSet[int]]) -> Dict[int, int]:
    """Each tuple's row bitset: bit ``r`` is set when ``sets[r]``
    contains the tuple."""
    rows: Dict[int, int] = {}
    for r, s in enumerate(sets):
        bit = 1 << r
        for t in s:
            rows[t] = rows.get(t, 0) | bit
    return rows


# Local-search effort caps: both are *count*-based, never clock-based,
# so results stay deterministic across machines.
_SWAP_PASSES = 4
_SWAP_PAIRS_PER_PASS = 4000


def _local_search(
    sets: Sequence[FrozenSet[int]], chosen: Set[int], costs=None
) -> Set[int]:
    """Improve a feasible hitting set by redundancy pruning and 2-for-1 swaps.

    A swap replaces two chosen tuples ``a < b`` with one unchosen tuple
    ``t`` that hits every witness only ``a`` or ``b`` were hitting.
    Witness ``r`` is bit ``r`` of each tuple's row bitset, and each pass
    layers the chosen rows into the witnesses hit exactly ``once`` and
    exactly ``twice``, so a pair check is a handful of whole-int
    AND/ORs: ``must_hit`` is the pair's once-hit rows plus the
    twice-hit rows containing both, and the candidates are the
    unchosen tuples of its lowest row whose rows contain ``must_hit``.
    Passes repeat until a fixpoint or the deterministic effort caps are
    reached; the output is always feasible and never costlier than the
    input.  With ``costs`` a swap is applied only when the replacement
    is strictly cheaper than the pair it evicts, so the cost objective
    (not the cardinality) monotonically improves.
    """
    chosen = _prune_redundant(sets, chosen, costs=costs)
    rows = _tuple_rows(sets)
    for _ in range(_SWAP_PASSES):
        improved = False
        # Saturating hit counters, one bitset per level: hit1 >= 1,
        # hit2 >= 2, hit3 >= 3 chosen tuples.
        hit1 = hit2 = hit3 = 0
        for t in chosen:
            row = rows[t]
            hit3 |= hit2 & row
            hit2 |= hit1 & row
            hit1 |= row
        once = hit1 ^ hit2
        twice = hit2 ^ hit3
        ordered = sorted(chosen)
        pairs = 0
        for i, a in enumerate(ordered):
            if improved or pairs > _SWAP_PAIRS_PER_PASS:
                break
            row_a = rows[a]
            for b in ordered[i + 1:]:
                pairs += 1
                if pairs > _SWAP_PAIRS_PER_PASS:
                    break
                row_b = rows[b]
                # Witness rows left unhit if both a and b are removed.
                must_hit = ((row_a | row_b) & once) | (row_a & row_b & twice)
                if not must_hit:
                    # a and b are jointly redundant — drop both.
                    chosen = _prune_redundant(sets, chosen - {a, b}, costs=costs)
                    improved = True
                    break
                lowest = (must_hit & -must_hit).bit_length() - 1
                candidates = [
                    t for t in sets[lowest]
                    if t not in chosen and rows[t] & must_hit == must_hit
                ]
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
        if not improved:
            break
    return chosen


# ---------------------------------------------------------------------------
# Budgeted branch and bound (the anytime refinement)
# ---------------------------------------------------------------------------

class _BudgetMeter:
    """Shared node/time accounting across all components of one solve."""

    def __init__(self, budget: Budget):
        self.deadline = (
            time.perf_counter() + budget.time_limit
            if budget.time_limit is not None
            else None
        )
        self.nodes_left = (
            budget.node_limit if budget.node_limit is not None else None
        )

    def spend_node(self) -> bool:
        """Charge one branch-and-bound node; False when exhausted."""
        if self.nodes_left is not None:
            if self.nodes_left <= 0:
                return False
            self.nodes_left -= 1
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return False
        return True


# Below this many witness sets the search is trivial and building the
# bitsets costs more than it saves; the dispatch is output-invisible
# (both paths return identical results).
_BNB_BITSET_MIN_SETS = 12


def _budgeted_bnb(
    sets: Sequence[FrozenSet[int]],
    seed: Set[int],
    meter: _BudgetMeter,
    costs=None,
) -> Tuple[int, Set[int], bool]:
    """Branch and bound that certifies a lower bound even when cut short.

    Explores exactly like ``exact._bnb_component`` (smallest unhit
    witness, sorted branching, disjoint-packing pruning) but charges
    every expanded node to ``meter``.  When the budget runs out, the
    bound of each abandoned subtree is recorded: the true optimum is
    either the incumbent or lies in an abandoned subtree, so
    ``min(incumbent, min abandoned bound)`` is a certified lower bound.

    Returns ``(lower_bound, incumbent_set, completed)``; when
    ``completed`` is True the incumbent is exactly optimal.

    Every unweighted search over at least :data:`_BNB_BITSET_MIN_SETS`
    witness sets runs on transposed bitsets, one bit per witness, so
    its per-node cost scales with the witness count whatever the
    number of tuples; the rest run the frozenset search, which also
    serves the weighted objective (cost sums in place of
    cardinalities).  Exploration order, node accounting, incumbents,
    and bounds are identical either way.
    """
    if costs is None and len(sets) >= _BNB_BITSET_MIN_SETS:
        return _budgeted_bnb_bitset(sets, seed, meter)
    return _budgeted_bnb_reference(sets, seed, meter, costs)


def _budgeted_bnb_reference(
    sets: Sequence[FrozenSet[int]],
    seed: Set[int],
    meter: _BudgetMeter,
    costs=None,
) -> Tuple[int, Set[int], bool]:
    """The frozenset search (the oracle the bitset path must match).

    With ``costs`` incumbents and bounds are cost sums; without, the
    same arithmetic counts tuples (every cost is 1).
    """
    best: List = [_ids_cost(seed, costs), set(seed)]
    abandoned: List[int] = [best[0] + 1]  # sentinel above any real bound

    def search(
        remaining: List[FrozenSet[int]], chosen: Set[int], chosen_cost: int
    ) -> None:
        if not remaining:
            if chosen_cost < best[0]:
                best[0] = chosen_cost
                best[1] = set(chosen)
            return
        bound = chosen_cost + disjoint_witness_lower_bound(
            remaining, costs=costs
        )
        if bound >= best[0]:
            return
        if not meter.spend_node():
            abandoned[0] = min(abandoned[0], bound)
            return
        target = min(remaining, key=len)
        for t in sorted(target):
            chosen.add(t)
            search(
                [s for s in remaining if t not in s],
                chosen,
                chosen_cost + (1 if costs is None else costs[t]),
            )
            chosen.remove(t)

    search(list(sets), set(), 0)
    completed = abandoned[0] > best[0]
    lower = best[0] if completed else min(best[0], abandoned[0])
    return lower, best[1], completed


def _budgeted_bnb_bitset(
    sets: Sequence[FrozenSet[int]],
    seed: Set[int],
    meter: _BudgetMeter,
) -> Tuple[int, Set[int], bool]:
    """The transposed-bitset mirror of :func:`_budgeted_bnb_reference`.

    Witnesses are ordered by (size, input position), the reference's
    stable size sort, and witness ``j`` of that order is bit ``j``.  A
    node's unhit witnesses are one int, and choosing tuple ``t`` keeps
    ``remaining & misses[t]``, where ``misses[t]`` clears the witnesses
    containing ``t``.  In this order the reference's two
    order-sensitive steps are whole-int operations: its branch target
    (the first smallest unhit witness) is the lowest set bit, and its
    greedy disjoint packing repeatedly takes the lowest available
    witness and clears every witness sharing a tuple with it.  Those
    conflict rows are built on first use and kept, so memory grows
    with the witnesses the search touches, not with their square.
    """
    order = sorted(sets, key=len)
    width = len(order)
    full = (1 << width) - 1
    rows = _tuple_rows(order)
    misses = {t: full ^ row for t, row in rows.items()}
    members = [sorted(s) for s in order]
    # disjoint_from[j]: the witnesses sharing no tuple with witness j
    # (j itself excluded), or None until the packing first takes j.
    disjoint_from: List[Optional[int]] = [None] * width

    def packing(avail: int, threshold: int) -> int:
        """Size of the greedy disjoint packing of ``avail``, counted up
        to ``threshold`` at most (the caller prunes at the threshold)."""
        count = 0
        while avail:
            j = (avail & -avail).bit_length() - 1
            count += 1
            if count >= threshold:
                break
            keep = disjoint_from[j]
            if keep is None:
                conflict = 1 << j
                for t in members[j]:
                    conflict |= rows[t]
                keep = disjoint_from[j] = full ^ conflict
            avail &= keep
        return count

    best_count = [len(seed)]
    best_set: List[Set[int]] = [set(seed)]
    abandoned = [len(seed) + 1]  # sentinel above any real bound
    chosen: List[int] = []

    def search(remaining: int, packed: int) -> None:
        # ``packed`` is the packing bound of ``remaining``, computed by
        # the parent when it built the child.
        n_chosen = len(chosen)
        if not remaining:
            if n_chosen < best_count[0]:
                best_count[0] = n_chosen
                best_set[0] = set(chosen)
            return
        bound = n_chosen + packed
        if bound >= best_count[0]:
            return
        if not meter.spend_node():
            abandoned[0] = min(abandoned[0], bound)
            return
        for t in members[(remaining & -remaining).bit_length() - 1]:
            # A child node prunes (before spending a node or touching
            # the incumbent/abandoned state) as soon as its packing
            # bound reaches best - (n_chosen + 1); the partial packing
            # count only grows, so the moment it crosses the threshold
            # the recursion can be skipped without finishing the
            # packing — outcomes and node accounting are unchanged.
            threshold = best_count[0] - n_chosen - 1
            if threshold <= 0:
                break
            child = remaining & misses[t]
            count = packing(child, threshold)
            if count < threshold:
                chosen.append(t)
                search(child, count)
                chosen.pop()

    search(full, packing(full, width + 1))
    completed = abandoned[0] > best_count[0]
    lower = best_count[0] if completed else min(best_count[0], abandoned[0])
    return lower, best_set[0], completed


# ---------------------------------------------------------------------------
# Per-component interval assembly
# ---------------------------------------------------------------------------

def _component_interval(
    component: WitnessComponent, use_lp: bool = True, costs=None
) -> Tuple[int, Set[int]]:
    """Certified ``(lower_bound, upper_bound_set)`` for one component.

    With ``costs`` every bound is on the weighted objective: the packing
    bound sums cheapest-per-witness costs, the greedy maximizes the
    coverage/cost ratio, and the LP relaxation carries the cost vector.
    """
    lower = disjoint_witness_lower_bound(component.sets, costs=costs)
    upper = _local_search(
        component.sets,
        greedy_hitting_set(component.sets, costs=costs),
        costs=costs,
    )
    if use_lp and lower < _ids_cost(upper, costs):
        lp_value, x = _lp_component(component, costs=costs)
        if lp_value is not None:
            lower = max(lower, _lp_floor(lp_value))
            rounded = _local_search(
                component.sets,
                _lp_rounding(component, x, costs=costs),
                costs=costs,
            )
            if _ids_cost(rounded, costs) < _ids_cost(upper, costs):
                upper = rounded
    return lower, upper


def resilience_bounds(
    database: Database,
    query: ConjunctiveQuery,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    weighted: bool = False,
) -> BoundedResilienceResult:
    """Certified interval ``lb <= rho(q, D) <= ub`` in polynomial time.

    Runs the LP relaxation, greedy, LP rounding, and local search per
    component of the preprocessed witness structure and sums the
    per-component intervals (plus the forced tuples).  No search is
    performed — see :func:`resilience_anytime` for budgeted refinement.
    With ``weighted=True`` every bound certifies the weighted optimum
    (cost sums replace cardinalities throughout).
    """
    if structure is None:
        structure = witness_structure(
            database, query, index=index, weighted=weighted
        )
    if not structure.satisfied:
        return BoundedResilienceResult(0, 0, frozenset(), method="unsatisfied")
    costs = structure.costs if weighted else None
    lower = _ids_cost(structure.forced_ids, costs)
    chosen: Set[int] = set(structure.forced_ids)
    upper = lower
    for component in structure.components:
        lb_c, ub_set = _component_interval(component, costs=costs)
        lower += lb_c
        upper += _ids_cost(ub_set, costs)
        chosen |= ub_set
    return BoundedResilienceResult(
        lower, upper, structure.tuples(chosen), method="lp+greedy"
    )


def resilience_anytime(
    database: Database,
    query: ConjunctiveQuery,
    budget: Optional[Budget] = None,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    on_interval: Optional[Callable[[int, int], None]] = None,
    weighted: bool = False,
) -> BoundedResilienceResult:
    """Anytime resilience: certified interval, refined within a budget.

    Starts from the polynomial bounds of :func:`resilience_bounds`,
    then spends the :class:`~repro.resilience.types.Budget` on a
    budgeted branch and bound over the components whose interval has
    not closed, hardest (largest gap) last so easy components close
    first.  Abandoned subtrees still certify a lower bound, so the
    returned interval is valid whatever the budget.  With an unlimited
    budget (the default) the search completes and the result is exact —
    equal to :func:`repro.resilience.exact.resilience_exact`.

    ``on_interval`` streams progress: it is called with the *global*
    certified interval ``(lb, ub)`` once after the polynomial bounds
    and again whenever refinement tightens it — each published interval
    is itself certified, ``lb`` never decreases, ``ub`` never
    increases, and the final call matches the returned result (the
    serving tier's streaming responses are exactly this sequence).  The
    callback must not raise; it observes the solve, never steers it.
    """
    budget = Budget.coerce(budget)
    if structure is None:
        structure = witness_structure(
            database, query, index=index, weighted=weighted
        )
    if not structure.satisfied:
        if on_interval is not None:
            on_interval(0, 0)
        return BoundedResilienceResult(0, 0, frozenset(), method="unsatisfied")

    costs = structure.costs if weighted else None
    meter = _BudgetMeter(budget)
    intervals: List[Tuple[int, Set[int]]] = []
    for component in structure.components:
        intervals.append(_component_interval(component, costs=costs))

    forced = _ids_cost(structure.forced_ids, costs)

    def _global_interval() -> Tuple[int, int]:
        # Components partition the tuple universe (and exclude forced
        # tuples), so the global interval is a plain sum.
        lo = forced + sum(lb_c for lb_c, _ in intervals)
        hi = forced + sum(_ids_cost(ub_set, costs) for _, ub_set in intervals)
        return lo, hi

    last_published: Optional[Tuple[int, int]] = None

    def _publish() -> None:
        nonlocal last_published
        if on_interval is None:
            return
        current = _global_interval()
        if current != last_published:
            last_published = current
            on_interval(*current)

    _publish()

    # Refine smallest-gap components first: their searches finish
    # fastest, so a tight budget closes as many intervals as possible.
    order = sorted(
        range(len(intervals)),
        key=lambda i: (_ids_cost(intervals[i][1], costs) - intervals[i][0], i),
    )
    for i in order:
        lb_c, ub_set = intervals[i]
        if lb_c >= _ids_cost(ub_set, costs):
            continue
        component = structure.components[i]
        bnb_lb, bnb_set, completed = _budgeted_bnb(
            component.sets, ub_set, meter, costs=costs
        )
        if _ids_cost(bnb_set, costs) < _ids_cost(ub_set, costs):
            ub_set = bnb_set
        lb_c = _ids_cost(ub_set, costs) if completed else max(lb_c, bnb_lb)
        intervals[i] = (lb_c, ub_set)
        _publish()

    lower = forced
    upper = forced
    chosen: Set[int] = set(structure.forced_ids)
    for lb_c, ub_set in intervals:
        lower += lb_c
        upper += _ids_cost(ub_set, costs)
        chosen |= ub_set
    return BoundedResilienceResult(
        lower, upper, structure.tuples(chosen), method="anytime"
    )
