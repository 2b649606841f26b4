"""Differential suite for the weighted (min-cost) objective.

One randomized matrix of 200 skewed-cost instances — PTIME and NP-hard
zoo queries alike — cross-checked every way the engine can disagree
with itself:

* **kernels** — the frozenset reference and the bitset matrix kernel
  (``oracles.force_reference_kernel``) must produce identical weighted results
  (value, contingency set, method) in every mode;
* **flow backends** — networkx (``oracles.networkx_flow``) and scipy
  csgraph min-cut must produce equal weighted *values* with
  valid certificates paying exactly that value (minimum cuts are not
  unique, so the sets may legitimately differ — the same caveat as the
  unweighted tier, see ``docs/api.md``);
* **solver tiers** — branch-and-bound and the ILP oracle must agree
  exactly, and the LP/greedy approx bounds must enclose the optimum;
* **execution plans** — ``solve_batch`` over the matrix must return
  identical results serial and with ``workers=2``, cold-cache and
  warm-cache (and the warm run must actually hit the cache);
* **greedy determinism** — the weighted greedy tie-break (best
  cost-ratio, then smallest id) is pinned by regression so identical
  picks come back run after run and worker count after worker count.
"""

import random
from contextlib import nullcontext

import pytest
from oracles import force_reference_kernel, networkx_flow

from repro.core.analyzer import solve_batch
from repro.query.zoo import ALL_QUERIES
from repro.resilience.approx import greedy_hitting_set
from repro.resilience.exact import (
    is_contingency_set,
    resilience_branch_and_bound,
    resilience_ilp,
)
from repro.resilience.solver import dispatch_plan, solve
from repro.resilience.types import UnbreakableQueryError
from repro.witness import clear_witness_cache
from repro.workloads import assign_skewed_costs, random_database_for_query

# 8 queries x 25 seeds = the 200-instance matrix.  The PTIME rows cover
# both weighted-sound specials and (via q_lin) the linear min-cost-flow
# path; the NP-hard rows exercise the cost-aware kernel and the
# weighted branch-and-bound.
PTIME_QUERIES = ("q_perm", "q_Aperm", "q_lin")
HARD_QUERIES = ("q_chain", "q_3chain", "q_sj1_rats", "q_conf", "q_triangle_sj1")
SEEDS_PER_QUERY = 25


def _matrix_queries():
    names = [n for n in PTIME_QUERIES if n in ALL_QUERIES] + list(HARD_QUERIES)
    assert len(names) * SEEDS_PER_QUERY >= 200
    return names


def _instance(name, seed):
    """One deterministic skewed-cost instance of the matrix."""
    query = ALL_QUERIES[name]
    rng = random.Random((hash(name) & 0xFFFF) * 1000 + seed)
    db = random_database_for_query(
        query,
        domain_size=rng.randint(4, 5),
        density=rng.uniform(0.3, 0.5),
        rng=rng,
    )
    assign_skewed_costs(db, rng=rng, max_cost=9)
    return db, query


def _weighted_exact(db, query):
    try:
        return solve(db, query, weighted=True)
    except UnbreakableQueryError:
        return None


class TestKernelBackendsAgreeWeighted:
    @pytest.mark.parametrize("name", _matrix_queries())
    def test_reference_and_bitset_kernels_identical(self, name):
        for seed in range(SEEDS_PER_QUERY):
            db, query = _instance(name, seed)
            answers = {}
            for backend in ("reference", "bitset"):
                with (
                    force_reference_kernel()
                    if backend == "reference"
                    else nullcontext()
                ):
                    clear_witness_cache()
                    res = _weighted_exact(db, query)
                answers[backend] = (
                    res
                    if res is None
                    else (res.value, res.contingency_set, res.method)
                )
            clear_witness_cache()
            assert answers["reference"] == answers["bitset"], (name, seed)


class TestFlowBackendsAgreeWeighted:
    def test_networkx_and_csgraph_values_equal(self):
        """Every flow-routed instance of the matrix: equal min-cost
        values, both certificates valid and paying exactly the value."""
        flow_cases = 0
        for name in _matrix_queries():
            query = ALL_QUERIES[name]
            if dispatch_plan(query, weighted=True).kind == "exact":
                continue
            for seed in range(SEEDS_PER_QUERY):
                db, query = _instance(name, seed)
                results = {}
                for backend in ("networkx", "csgraph"):
                    with (
                        networkx_flow() if backend == "networkx" else nullcontext()
                    ):
                        clear_witness_cache()
                        results[backend] = _weighted_exact(db, query)
                a, b = results["networkx"], results["csgraph"]
                if a is None or b is None:
                    assert a is None and b is None, (name, seed)
                    continue
                assert a.value == b.value, (name, seed)
                for res in (a, b):
                    assert db.total_cost(res.contingency_set) == res.value
                    assert is_contingency_set(db, query, res.contingency_set)
                flow_cases += 1
        assert flow_cases > 0


class TestSolverTiersAgreeWeighted:
    @pytest.mark.parametrize("name", _matrix_queries())
    def test_bnb_ilp_and_lp_bounds_agree(self, name):
        clear_witness_cache()
        for seed in range(SEEDS_PER_QUERY):
            db, query = _instance(name, seed)
            try:
                bnb = resilience_branch_and_bound(db, query, weighted=True)
            except UnbreakableQueryError:
                with pytest.raises(UnbreakableQueryError):
                    resilience_ilp(db, query, weighted=True)
                continue
            ilp = resilience_ilp(db, query, weighted=True)
            assert bnb.value == ilp.value, (name, seed)
            auto = _weighted_exact(db, query)
            assert auto is not None and auto.value == bnb.value, (name, seed)
            bounds = solve(db, query, mode="approx", weighted=True)
            assert bounds.lower_bound <= bnb.value <= bounds.upper_bound
            assert (
                db.total_cost(bounds.contingency_set) == bounds.upper_bound
            )


class TestExecutionPlansAgreeWeighted:
    def _pairs(self):
        return [
            _instance(name, seed)
            for name in _matrix_queries()
            for seed in range(3)
        ]

    @staticmethod
    def _key(results):
        return [(r.value, r.contingency_set, r.method) for r in results]

    def test_serial_and_two_workers_identical(self):
        pairs = self._pairs()
        clear_witness_cache()
        serial = solve_batch(pairs, weighted=True, workers=1)
        clear_witness_cache()
        pooled = solve_batch(pairs, weighted=True, workers=2)
        assert self._key(serial.results) == self._key(pooled.results)

    def test_cold_and_warm_cache_identical(self, tmp_path):
        pairs = self._pairs()
        cache_dir = tmp_path / "cache"
        clear_witness_cache()
        cold = solve_batch(pairs, weighted=True, cache_dir=cache_dir)
        assert cold.stats.cache_hits == 0
        clear_witness_cache()
        warm = solve_batch(pairs, weighted=True, cache_dir=cache_dir)
        assert warm.stats.cache_hits == len(pairs)
        assert self._key(cold.results) == self._key(warm.results)

    def test_weighted_and_unweighted_cache_keys_disjoint(self, tmp_path):
        """A cached unweighted answer must never serve a weighted
        request over the same database (and vice versa)."""
        pairs = [_instance("q_chain", 0)]
        cache_dir = tmp_path / "cache"
        clear_witness_cache()
        unweighted = solve_batch(pairs, cache_dir=cache_dir)
        clear_witness_cache()
        weighted = solve_batch(pairs, weighted=True, cache_dir=cache_dir)
        assert weighted.stats.cache_hits == 0
        db, _ = pairs[0]
        assert weighted.results[0].value == db.total_cost(
            weighted.results[0].contingency_set
        )
        assert unweighted.results[0].value == len(
            unweighted.results[0].contingency_set
        )


class TestWeightedGreedyTieBreak:
    """Regression: the weighted greedy pick is (best cost-ratio,
    smallest id) — integer cross-multiplication, no float ratios — so
    identical picks come back across runs and worker counts."""

    def test_equal_ratio_tie_picks_smallest_id(self):
        # Tuples 2 and 7 both hit two sets at cost 4 (ratio 1/2 each);
        # the tie must go to id 2.
        sets = [
            frozenset({2, 7}),
            frozenset({2, 9}),
            frozenset({7, 9}),
        ]
        costs = {2: 4, 7: 4, 9: 9}
        chosen = greedy_hitting_set(sets, costs=costs)
        assert 2 in chosen
        assert chosen == greedy_hitting_set(sets, costs=costs)

    def test_cheaper_ratio_beats_smaller_id(self):
        # Tuple 9 covers one set at cost 1 (ratio 1) vs tuple 1 at
        # cost 5 (ratio 5): the ratio decides, not the id.
        sets = [frozenset({1, 9})]
        assert greedy_hitting_set(sets, costs={1: 5, 9: 1}) == {9}

    def test_picks_stable_across_repeated_runs(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(2, 20)
            ids = rng.sample(range(60), n)
            sets = [
                frozenset(rng.sample(ids, rng.randint(1, min(4, n))))
                for _ in range(rng.randint(1, 30))
            ]
            costs = {t: rng.randint(1, 9) for t in ids}
            first = greedy_hitting_set(sets, costs=costs)
            assert all(
                greedy_hitting_set(sets, costs=costs) == first
                for _ in range(3)
            )

    def test_picks_stable_across_worker_counts(self):
        pairs = [_instance("q_chain", s) for s in range(4)]
        outcomes = []
        for workers in (1, 2):
            clear_witness_cache()
            batch = solve_batch(pairs, mode="approx", weighted=True,
                                workers=workers)
            outcomes.append(
                [
                    (r.lower_bound, r.upper_bound, r.contingency_set, r.method)
                    for r in batch.results
                ]
            )
        assert outcomes[0] == outcomes[1]
