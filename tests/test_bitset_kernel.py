"""The bitset kernel against its frozenset reference oracles.

Every stage of the vectorized hitting-set kernel — superset
elimination, unit forcing, dominated-tuple elimination (the Section 2
kernelization), component decomposition, and the branch-and-bound
search shared by the exact and anytime tiers — must be *bit-identical*
to the reference implementation it replaced: same sets in the same
deterministic order, same forced ids, same statistics, same incumbents
and certified bounds under any node budget.
"""

import random
import sys
from contextlib import nullcontext

import pytest
from hypothesis import given, strategies as st
from oracles import force_reference_kernel

from repro.resilience import approx
from repro.resilience.approx import (
    _BudgetMeter,
    _budgeted_bnb,
    _budgeted_bnb_bitset,
    _budgeted_bnb_reference,
    greedy_hitting_set,
)
from repro.resilience.solver import solve
from repro.resilience.types import Budget
from repro.witness import clear_witness_cache, structure
from repro.witness.structure import (
    ReductionStats,
    WitnessStructure,
    _decompose_matrix,
    _decompose_reference,
    _dominated_matrix,
    _dominated_tuples,
    _matrix_from_sets,
    _minimal_matrix,
    _minimal_sets,
    _reduce,
    _reduce_matrix,
    _reduce_reference,
    _sets_from_matrix,
)
from repro.workloads import random_database_for_query, random_ssj_binary_cq


def _kernel(backend):
    """The engine's bitset kernel, or the frozenset reference on every
    input size."""
    return force_reference_kernel() if backend == "reference" else nullcontext()


# Random hitting-set instances: ids are drawn sparse on purpose so the
# matrix padding/compression logic sees gaps, not just dense ranges.
set_systems = st.integers(min_value=0, max_value=10**6).map(
    lambda seed: _random_sets(seed)
)


def _random_sets(seed, tuples=(1, 40), witnesses=(1, 80)):
    rng = random.Random(seed)
    n = rng.randint(*tuples)
    m = rng.randint(*witnesses)
    ids = rng.sample(range(3 * n + 1), n)
    return [
        frozenset(rng.sample(ids, rng.randint(1, min(n, rng.randint(1, 6)))))
        for _ in range(m)
    ]


wide_set_systems = st.integers(min_value=0, max_value=10**6).map(
    lambda seed: _random_sets(seed, tuples=(30, 300), witnesses=(200, 600))
)


class TestReductionStages:
    @given(set_systems)
    def test_minimal_matrix_matches_reference_order(self, sets):
        """Superset elimination: same kept sets in the same
        (len, sorted elements) output order."""
        reference = _minimal_sets(list(sets))
        mat, pad = _matrix_from_sets(sets)
        vectorized = _sets_from_matrix(_minimal_matrix(mat, pad), pad)
        assert vectorized == reference

    @given(set_systems)
    def test_dominated_matrix_matches_reference(self, sets):
        """Dominated-tuple elimination picks exactly the same tuples."""
        distinct = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
        reference = _dominated_tuples(distinct)
        mat, pad = _matrix_from_sets(distinct)
        assert _dominated_matrix(mat, pad) == reference

    @given(set_systems)
    def test_reduce_matrix_matches_reference_fixpoint(self, sets):
        """The full stages 1–3 fixpoint: sets, order, forced ids,
        domination count, and round/minimality statistics all equal."""
        ref_stats = ReductionStats()
        ref_sets, ref_forced, ref_dom = _reduce_reference(
            list(sets), ref_stats
        )
        bit_stats = ReductionStats()
        mat, pad = _matrix_from_sets(sets)
        out, forced, dom = _reduce_matrix(mat, pad, bit_stats)
        assert _sets_from_matrix(out, pad) == ref_sets
        assert frozenset(forced) == ref_forced
        assert dom == ref_dom
        assert bit_stats.rounds == ref_stats.rounds
        assert bit_stats.witnesses_minimal == ref_stats.witnesses_minimal

    @given(set_systems)
    def test_reduce_dispatcher_matches_reference(self, sets):
        """The public ``_reduce`` (threshold dispatch included) is
        indistinguishable from the reference."""
        ref_stats = ReductionStats()
        reference = _reduce_reference(list(sets), ref_stats)
        got_stats = ReductionStats()
        got = _reduce(list(sets), got_stats)
        assert got == reference
        assert (got_stats.rounds, got_stats.witnesses_minimal) == (
            ref_stats.rounds,
            ref_stats.witnesses_minimal,
        )

    @given(set_systems)
    def test_decompose_matrix_matches_reference(self, sets):
        """Connected components: same members, same sets, same order."""
        assert _decompose_matrix(list(sets)) == _decompose_reference(sets)


class TestBudgetedBnB:
    @given(set_systems, st.integers(min_value=0, max_value=200))
    def test_bitset_search_matches_reference_under_budgets(
        self, sets, node_limit
    ):
        """Same incumbent set, certified lower bound, and completion
        flag for unlimited and node-budgeted searches, and the same
        nodes spent — the searches expand the same tree."""
        seed = greedy_hitting_set(sets)
        for budget in (Budget(), Budget(node_limit=node_limit)):
            reference_meter = _BudgetMeter(budget)
            bitset_meter = _BudgetMeter(budget)
            reference = _budgeted_bnb_reference(
                sets, set(seed), reference_meter
            )
            bitset = _budgeted_bnb_bitset(sets, set(seed), bitset_meter)
            assert bitset == reference
            assert bitset_meter.nodes_left == reference_meter.nodes_left

    @given(wide_set_systems, st.integers(min_value=0, max_value=40))
    def test_bitset_search_matches_reference_on_many_witnesses(
        self, sets, node_limit
    ):
        """200–600 witnesses: each bitset spans many machine words and
        the packing bound fills its conflict rows across nodes.  The
        budgets stay small (an unlimited search would be exponential),
        so most searches stop early and the abandoned bounds are
        compared too."""
        seed = greedy_hitting_set(sets)
        reference_meter = _BudgetMeter(Budget(node_limit=node_limit))
        bitset_meter = _BudgetMeter(Budget(node_limit=node_limit))
        reference = _budgeted_bnb_reference(sets, set(seed), reference_meter)
        bitset = _budgeted_bnb_bitset(sets, set(seed), bitset_meter)
        assert bitset == reference
        assert bitset_meter.nodes_left == reference_meter.nodes_left

    @given(set_systems)
    def test_dispatcher_matches_reference(self, sets):
        seed = greedy_hitting_set(sets)
        reference = _budgeted_bnb_reference(
            sets, set(seed), _BudgetMeter(Budget())
        )
        assert _budgeted_bnb(sets, set(seed), _BudgetMeter(Budget())) == reference

    def test_wide_tuple_universes_take_the_bitset_search(self, monkeypatch):
        """A component over thousands of tuples runs the bitset search
        too (its per-node cost follows the witness count), and matches
        the frozenset search."""
        rng = random.Random(7)
        ids = rng.sample(range(10**6), 6000)
        sets = [frozenset(ids[2 * i:2 * i + 2]) for i in range(3000)]
        sets += [frozenset(rng.sample(ids, 3)) for _ in range(300)]
        seed = greedy_hitting_set(sets)
        reference_meter = _BudgetMeter(Budget(node_limit=20))
        reference = _budgeted_bnb_reference(sets, set(seed), reference_meter)

        def no_reference(*args, **kwargs):
            raise AssertionError("the frozenset search ran")

        monkeypatch.setattr(approx, "_budgeted_bnb_reference", no_reference)
        meter = _BudgetMeter(Budget(node_limit=20))
        assert _budgeted_bnb(sets, set(seed), meter) == reference
        assert meter.nodes_left == reference_meter.nodes_left

    @given(set_systems, st.integers(min_value=0, max_value=200))
    def test_unit_costs_search_exactly_like_no_costs(self, sets, node_limit):
        """The frozenset search is one cost-parameterised search: explicit
        unit costs expand the same tree as ``costs=None`` — same
        incumbent, bound and completion flag, same nodes spent."""
        seed = greedy_hitting_set(sets)
        unit = {t: 1 for s in sets for t in s}
        for budget in (Budget(), Budget(node_limit=node_limit)):
            plain_meter = _BudgetMeter(budget)
            unit_meter = _BudgetMeter(budget)
            plain = _budgeted_bnb_reference(sets, set(seed), plain_meter)
            costed = _budgeted_bnb_reference(
                sets, set(seed), unit_meter, costs=unit
            )
            assert costed == plain
            assert unit_meter.nodes_left == plain_meter.nodes_left


class TestReferenceOracle:
    GUARDS = (
        (structure, "_BITSET_MIN_SETS"),
        (structure, "_DECOMPOSE_MATRIX_MIN_SETS"),
        (approx, "_BNB_BITSET_MIN_SETS"),
    )

    def test_force_reference_kernel_raises_and_restores_the_guards(self):
        """Every bitset size guard reads ``sys.maxsize`` inside the
        context and its own value again afterwards, even when the body
        raises."""
        before = [getattr(module, name) for module, name in self.GUARDS]
        assert structure._DECOMPOSE_MATRIX_MIN_SETS == 512
        with pytest.raises(RuntimeError):
            with force_reference_kernel():
                for module, name in self.GUARDS:
                    assert getattr(module, name) == sys.maxsize
                raise RuntimeError("body failed")
        assert [getattr(module, name) for module, name in self.GUARDS] == before


class TestEndToEnd:
    def _instance(self, seed):
        rng = random.Random(seed)
        query = random_ssj_binary_cq(rng=rng)
        database = random_database_for_query(
            query,
            domain_size=rng.randint(3, 6),
            density=rng.uniform(0.2, 0.6),
            rng=rng,
        )
        return database, query

    def test_structures_identical_across_kernel_backends(self):
        for seed in range(12):
            database, query = self._instance(seed)
            built = {}
            for backend in ("reference", "bitset"):
                with _kernel(backend):
                    try:
                        built[backend] = WitnessStructure.build(database, query)
                    except Exception as exc:
                        built[backend] = type(exc)
            ref, bit = built["reference"], built["bitset"]
            if isinstance(ref, type) or isinstance(bit, type):
                assert ref == bit
                continue
            assert bit.sets == ref.sets
            assert bit.forced_ids == ref.forced_ids
            assert bit.universe == ref.universe
            assert [(c.tuple_ids, c.sets) for c in bit.components] == [
                (c.tuple_ids, c.sets) for c in ref.components
            ]
            assert (
                bit.stats.rounds,
                bit.stats.witnesses_minimal,
                bit.stats.forced_tuples,
                bit.stats.dominated_tuples,
                bit.stats.components,
            ) == (
                ref.stats.rounds,
                ref.stats.witnesses_minimal,
                ref.stats.forced_tuples,
                ref.stats.dominated_tuples,
                ref.stats.components,
            )

    @pytest.mark.parametrize("mode", ["exact", "approx", "anytime"])
    def test_solver_answers_identical_across_kernel_backends(self, mode):
        """Values, contingency sets, intervals, and method names equal
        for both kernels in all three modes (budgeted anytime too)."""
        budget = Budget(node_limit=50) if mode == "anytime" else None
        for seed in range(10):
            database, query = self._instance(seed)
            answers = {}
            for backend in ("reference", "bitset"):
                with _kernel(backend):
                    clear_witness_cache()
                    try:
                        result = solve(database, query, mode=mode, budget=budget)
                    except Exception as exc:
                        answers[backend] = type(exc)
                        continue
                    if mode == "exact":
                        answers[backend] = (
                            result.value,
                            result.contingency_set,
                            result.method,
                        )
                    else:
                        answers[backend] = (
                            result.interval,
                            result.contingency_set,
                            result.method,
                        )
            clear_witness_cache()
            assert answers["reference"] == answers["bitset"], seed
