"""The slot-coded IJP leaf screen against its ``DBTuple`` oracle.

``PartitionSpace.evaluate_leaf`` decides Definition 48 conditions 1-4
on fact ids and bitmasks, and ``_cond5_prescreen`` computes the four
condition-5 values from the witness masks.  On every leaf that
survives ``filter_leaves`` both must agree with the merged-``Database``
path of ``tests/oracles`` (``evaluate_leaf_reference`` and
``cond5_prescreen_reference``): the same candidate pairs in the same
order, the same ``unbreakable`` flag and the same ``(r0, ra, rb,
rab)`` per pair.  The query list covers exogenous, unary, ternary and
self-join relations; one budgeted four-variable range at ``k = 3``
reaches block ids of 10 and above, whose facts sort by repr (``"10" <
"2"``), not numerically.
"""

import pytest

from oracles import cond5_prescreen_reference, evaluate_leaf_reference
from repro.ijp.checker import combined_flags
from repro.ijp.rgs import iter_leaf_batches, shard_space
from repro.ijp.space import PartitionSpace, _cond5_prescreen
from repro.query.zoo import ALL_QUERIES

SPACES = [
    ("q_triangle", 3),
    ("q_SxyC3perm_R", 3),
    ("q_z6", 3),
    ("q_chain", 3),
    ("q_cfp", 3),
    ("q_Sxy3perm_R", 3),
    ("q_AS3conf", 2),
    ("q_S3cc", 2),
    ("q_ACconf", 2),
    ("q_TS3conf", 2),
    ("q_ex61", 2),
    ("q_tripod_norm", 2),
]


def _surviving_leaves(space, codes=None, maxes=None):
    for batch in iter_leaf_batches(space.n, codes, maxes):
        yield from batch.codes[space.filter_leaves(batch.codes)]


def _assert_leaf_matches_oracle(space, code):
    ev = space.evaluate_leaf(code)
    ref = evaluate_leaf_reference(space, code)
    assert ev.rgs == ref.rgs
    assert ev.unbreakable == ref.unbreakable, ref.rgs
    assert [ev.pair(a, b) for a, b in ev.candidates] == ref.candidates, ref.rgs
    if not ref.candidates:
        return
    flags = combined_flags(ref.database, space.query)
    _, expected = cond5_prescreen_reference(ref, flags)
    found = [
        (ev.pair(a, b), probe) for (a, b), probe in _cond5_prescreen(ev, {})
    ]
    assert found == expected, ref.rgs


@pytest.mark.parametrize("name,k", SPACES, ids=[f"{n}-k{k}" for n, k in SPACES])
def test_screen_matches_the_dbtuple_oracle_on_every_surviving_leaf(name, k):
    space = PartitionSpace(ALL_QUERIES[name], k)
    leaves = 0
    for code in _surviving_leaves(space):
        _assert_leaf_matches_oracle(space, code)
        leaves += 1
    assert leaves > 0


def test_two_digit_block_ids_sort_by_repr():
    """The last shard of the 12-constant space: its first survivors,
    plus every survivor with block ids of 10 and above, whose facts
    sort by the repr of their values."""
    space = PartitionSpace(ALL_QUERIES["q_S3cc"], 3)
    assert space.n == 12
    shard = shard_space(12, 64)[-1]
    checked = two_digit = 0
    for code in _surviving_leaves(space, shard.codes, shard.maxes):
        if code.max() >= 10:
            two_digit += 1
        elif checked >= 500:
            continue
        _assert_leaf_matches_oracle(space, code)
        checked += 1
    assert two_digit > 0
    ev = space.evaluate_leaf(list(range(12)))
    values = [vals for rel, vals in ev.facts if rel == "R"]
    assert values == sorted(values, key=lambda vs: tuple(map(str, vs)))
    assert values != sorted(values)

