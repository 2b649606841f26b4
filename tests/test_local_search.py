"""The bitset local search against its list-based reference oracle.

``approx._local_search`` (per-tuple row bitsets, exact once/twice hit
layers) must return exactly the set the list-based search it replaced
returns (:func:`oracles.local_search_reference`): same swaps, same
pruning, same effort caps — unit and weighted costs alike, from
minimal and non-minimal start sets.
"""

import random

from hypothesis import given, strategies as st
from oracles import local_search_reference

from repro.resilience import approx
from repro.resilience.approx import _local_search, greedy_hitting_set


def _instance(seed, base=(0, 0), tuples=(1, 40), witnesses=(1, 80)):
    """``(sets, start, costs)``: random witness sets over sparse ids, a
    feasible start set (the greedy cover plus random extra tuples, or
    every tuple), and unit (``None``) or random costs.

    A third of the instances are graphs (every witness two tuples, a
    vertex cover problem), where a chosen pair often shares a witness
    no other chosen tuple hits, and a third are dense (three to five
    tuples per witness over few tuples), where a witness often holds
    three chosen tuples.  ``base`` pairwise-disjoint witnesses come
    first, so every hitting set has at least that many tuples."""
    rng = random.Random(seed)
    n = rng.randint(*tuples)
    ids = rng.sample(range(3 * n + 1), n)
    k = rng.randint(*base)
    sets = [frozenset(ids[2 * i:2 * i + rng.randint(1, 2)]) for i in range(k)]
    kind = rng.choice(["mixed", "graph", "dense"])
    for _ in range(rng.randint(*witnesses)):
        if kind == "graph" and n >= 2:
            size = 2
        elif kind == "dense" and n >= 3:
            size = rng.randint(3, min(n, 5))
        else:
            size = rng.randint(1, min(n, rng.randint(1, 6)))
        sets.append(frozenset(rng.sample(ids, size)))
    rng.shuffle(sets)
    universe = sorted({t for s in sets for t in s})
    if rng.random() < 0.2:
        start = set(universe)
    else:
        start = greedy_hitting_set(sets)
        start |= set(rng.sample(universe, rng.randint(0, len(universe))))
    costs = None
    if rng.random() < 0.5:
        costs = {t: rng.randint(1, 6) for t in universe}
    return sets, start, costs


instances = st.integers(min_value=0, max_value=10**6).map(_instance)

# At least 91 disjoint witnesses force 91 chosen tuples, i.e. 4095
# ordered pairs: every pass that finds no swap stops at the cap.
CAP_FLOOR = 91
capped_instances = st.integers(min_value=0, max_value=10**6).map(
    lambda seed: _instance(
        seed,
        base=(CAP_FLOOR, CAP_FLOOR + 20),
        tuples=(2 * CAP_FLOOR + 40, 2 * CAP_FLOOR + 120),
        witnesses=(0, 120),
    )
)


def test_cap_floor_exceeds_the_pair_cap():
    assert CAP_FLOOR * (CAP_FLOOR - 1) // 2 > approx._SWAP_PAIRS_PER_PASS


@given(instances)
def test_local_search_matches_reference(instance):
    sets, start, costs = instance
    got = _local_search(sets, set(start), costs=costs)
    assert got == local_search_reference(sets, set(start), costs=costs)


@given(capped_instances)
def test_local_search_matches_reference_at_the_pair_cap(instance):
    sets, start, costs = instance
    got = _local_search(sets, set(start), costs=costs)
    assert len(got) >= CAP_FLOOR
    assert got == local_search_reference(sets, set(start), costs=costs)


@given(instances)
def test_local_search_output_is_feasible_and_no_costlier(instance):
    sets, start, costs = instance
    got = _local_search(sets, set(start), costs=costs)
    assert all(s & got for s in sets)
    assert approx._ids_cost(got, costs) <= approx._ids_cost(start, costs)
