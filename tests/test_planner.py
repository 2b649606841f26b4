"""Differential and property tests for the plan record and the engine's
thresholds.

The engine's per-instance choices are size thresholds, each applied by
the layer that owns it (:mod:`repro.planner` lists them); the
:class:`~repro.planner.Plan` record describes an instance through the
same predicates.  This module pins three contracts:

* **output-invisibility** — a ~200-instance differential matrix (8
  query families x seeds, unit and skewed costs, all three solving
  tiers) compares the default answer against **every** pinnable
  combination of join (``REPRO_JOIN_BACKEND``), kernel
  (``oracles.force_reference_kernel``), min cut
  (``oracles.networkx_flow``) and exact solver
  (``REPRO_SOLVER_BACKEND``): value and interval equality for all
  combinations (distinct backends may witness distinct optimal sets),
  full bit-identity against the combination the defaults resolve to;
* **no drift** — ``plan_instance(...).join``/``.split`` equal the
  engine predicates, and the join the plan names is the one that runs;
* **feature properties** (hypothesis) — purity, invariance under
  active-domain renaming and declaration order, and monotonicity of
  the size features under endogenous insertion.

It also covers admission control sharing the plan's size predicate
and the ``repro planner explain`` command.

Effort (``max_examples``) comes from the hypothesis profile registered
in ``conftest.py``; do not pin ``max_examples`` here.
"""

import itertools
import json
import random
from contextlib import ExitStack

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from oracles import force_reference_kernel, networkx_flow

from repro.core import solve_batch
from repro.core.analyzer import COMPONENT_SPLIT_THRESHOLD, split_instance
from repro.db import Database
from repro.planner import (
    DEFAULT_MAX_EXACT_TUPLES,
    WITNESS_ESTIMATE_CAP,
    extract_features,
    is_large_instance,
    plan_instance,
)
from repro.query.columnar import (
    MIN_TUPLES_DEFAULT,
    backend_counters,
    reset_backend_counters,
    use_columnar,
)
from repro.query.zoo import ALL_QUERIES, q_chain, q_a_chain
from repro.resilience.exact import choose_backend, effective_backend
from repro.resilience.solver import solve
from repro.resilience.types import Budget
from repro.witness import (
    clear_witness_cache,
    witness_cache_info,
    witness_structure,
)
from repro.workloads import assign_skewed_costs, random_database_for_queries

SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ---------------------------------------------------------------------------
# The differential matrix
# ---------------------------------------------------------------------------

# Eight query families spanning the dichotomy: NP-hard self-join
# queries (chain, a_chain, sj1_rats, 3chain), flow-handled PTIME
# queries (conf, perm, Aperm), and the linear q_lin with a ternary
# relation.  Each family gets its own compatible random database.
FAMILIES = (
    "q_chain",
    "q_a_chain",
    "q_sj1_rats",
    "q_conf",
    "q_3chain",
    "q_perm",
    "q_Aperm",
    "q_lin",
)
SEEDS = range(13)
MODES = ("exact", "approx", "anytime")

# Every combination the engine's paths can be pinned to: the full
# cross product of the two-way choices at each layer.
FORCED_COMBOS = tuple(
    itertools.product(
        ("columnar", "reference"),  # join
        ("bitset", "reference"),    # kernel
        ("csgraph", "networkx"),    # min cut
        ("bnb", "ilp"),             # exact solver
    )
)

# Deterministic anytime budget: node limits are exact replay, wall
# clocks are not.
ANYTIME_BUDGET = Budget(node_limit=64)


def _instance(family, seed, skewed):
    """One matrix instance: a random database for the family's query."""
    query = ALL_QUERIES[family]
    db = random_database_for_queries(
        [query], domain_size=5, density=0.4, seed=1000 * skewed + seed
    )
    if skewed:
        assign_skewed_costs(db, seed=seed + 1)
    return db, query


def _mode_of(family, seed, skewed):
    """Deterministic mode assignment covering all (family, mode) cells."""
    return MODES[(FAMILIES.index(family) + seed + skewed) % len(MODES)]


def _force(stack, monkeypatch, join, kernel, flow, solver_backend):
    """Pin one combination for the duration of ``stack``."""
    monkeypatch.setenv("REPRO_JOIN_BACKEND", join)
    # The env join backend keeps its own size gate; forcing columnar
    # means dropping that gate too.
    monkeypatch.setenv("REPRO_COLUMNAR_MIN_TUPLES", "0")
    monkeypatch.setenv("REPRO_SOLVER_BACKEND", solver_backend)
    if kernel == "reference":
        stack.enter_context(force_reference_kernel())
    if flow == "networkx":
        stack.enter_context(networkx_flow())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FAMILIES)
class TestDifferentialMatrix:
    """Default answers == pinned answers, instance by instance."""

    @pytest.mark.parametrize("skewed", (0, 1), ids=("unit", "skewed"))
    def test_planner_matches_every_forced_combination(
        self, family, seed, skewed, monkeypatch
    ):
        db, query = _instance(family, seed, skewed)
        mode = _mode_of(family, seed, skewed)
        weighted = bool(skewed)
        budget = ANYTIME_BUDGET if mode == "anytime" else None

        clear_witness_cache()
        default = solve(db, query, mode=mode, budget=budget, weighted=weighted)
        plan = plan_instance(
            db, query, mode=mode, budget=budget, weighted=weighted
        )
        # The solver the defaults resolve to; PTIME dispatch never
        # reaches it, so any pin is the default there.
        solver = (
            "bnb"
            if plan.features.ptime
            else choose_backend(
                witness_structure(db, query, weighted=plan.features.weighted)
            )
        )
        chosen = (plan.join, "bitset", "csgraph", solver)

        for combo in FORCED_COMBOS:
            with monkeypatch.context() as forced_env, ExitStack() as stack:
                _force(stack, forced_env, *combo)
                clear_witness_cache()
                forced = solve(
                    db, query, mode=mode, budget=budget, weighted=weighted
                )
            # Output-invisibility: every combination returns the same
            # value, and in bounded modes the same certified interval.
            assert forced.value == default.value, (combo, plan.signature())
            if mode != "exact":
                assert forced.interval == default.interval, (
                    combo,
                    plan.signature(),
                )
            if combo == chosen:
                # Pinning the combination the defaults resolve to is
                # bit-identical: same value, same witness set, same
                # method string.
                assert forced == default, plan.signature()

    def test_plans_deterministic_across_repeated_calls(self, family, seed):
        db, query = _instance(family, seed, skewed=0)
        mode = _mode_of(family, seed, 0)
        clear_witness_cache()
        cold = plan_instance(db, query, mode=mode)
        assert plan_instance(db, query, mode=mode) == cold
        solve(db, query, mode=mode, budget=ANYTIME_BUDGET if mode == "anytime" else None)
        # Cache state never changes a plan.
        assert plan_instance(db, query, mode=mode) == cold


class TestBatchPlanDeterminism:
    """solve_batch records the same plans at workers=1 and workers=2."""

    def _mixed_batch(self):
        pairs = []
        for i, family in enumerate(FAMILIES):
            db, query = _instance(family, seed=17 + i, skewed=i % 2)
            pairs.append((db, query))
        return pairs

    def test_workers_1_and_2_agree_bit_identically(self):
        pairs = self._mixed_batch()
        clear_witness_cache()
        serial = solve_batch(pairs, workers=1)
        clear_witness_cache()
        parallel = solve_batch(pairs, workers=2)
        assert list(serial.results) == list(parallel.results)
        assert dict(serial.stats.plans) == dict(parallel.stats.plans)
        assert sum(serial.stats.plans.values()) == len(pairs)

    def test_plans_surface_in_batch_summary(self):
        pairs = self._mixed_batch()
        clear_witness_cache()
        batch = solve_batch(pairs, workers=1)
        assert any(
            line.startswith("plans: ") for line in batch.stats.summary_lines()
        )


# ---------------------------------------------------------------------------
# The plan record cannot drift from the engine's own predicates
# ---------------------------------------------------------------------------

class TestPlanMatchesEnginePredicates:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_pairs(self, seed):
        rng = random.Random(seed)
        family = rng.choice(FAMILIES)
        query = ALL_QUERIES[family]
        # Sizes straddle the columnar gate (128 tuples).
        db = random_database_for_queries(
            [query],
            domain_size=rng.randint(3, 14),
            density=rng.uniform(0.2, 0.6),
            seed=seed,
        )
        plan = plan_instance(db, query)
        assert plan.join == ("columnar" if use_columnar(db) else "reference")
        assert plan.split == split_instance(db)
        # The join the plan names is the one the enumeration runs.
        clear_witness_cache()
        reset_backend_counters()
        try:
            witness_structure(db, query)
        except ValueError:
            pass  # unbreakable instance: enumeration still ran
        ran = backend_counters()
        assert ran["columnar"] + ran["fallback"] == (plan.join == "columnar")
        assert ran["reference"] == (plan.join == "reference")

    def test_snapshot_backed_database_joins_columnar(self, tmp_path):
        from repro.storage import ingest_database, open_stored_database

        db = Database()
        db.declare("R", 2)
        for i in range(20):
            db.add("R", i, i + 1)
        assert len(db) < MIN_TUPLES_DEFAULT
        stored = open_stored_database(ingest_database(db, tmp_path / "snap"))
        plan = plan_instance(stored, q_chain)
        assert use_columnar(stored) and plan.join == "columnar"
        assert plan.size_class == "out-of-core"
        assert plan.split == split_instance(stored)
        assert plan_instance(db, q_chain).join == "reference"

    def test_thresholds_match_the_historical_values(self):
        """Columnar from 128 total tuples, split from 400 endogenous
        tuples, interactive up to 2000 endogenous tuples."""
        assert MIN_TUPLES_DEFAULT == 128
        assert COMPONENT_SPLIT_THRESHOLD == 400
        assert DEFAULT_MAX_EXACT_TUPLES == 2000

        def db_of(n, exogenous=0):
            db = Database()
            db.declare("R", 2)
            db.declare("E", 2, exogenous=True)
            for i in range(n):
                db.add("R", i, i + 1)
            for i in range(exogenous):
                db.add("E", i, i)
            return db

        assert not use_columnar(db_of(127))
        assert use_columnar(db_of(128))
        assert not split_instance(db_of(399))
        assert split_instance(db_of(400))
        # Exogenous tuples never grow the search, so they do not split.
        assert not split_instance(db_of(399, exogenous=50))
        assert split_instance(db_of(1), split_components=0)
        assert not split_instance(db_of(10**3), split_components=False)
        assert not is_large_instance(db_of(2000))
        assert is_large_instance(db_of(2001))


# ---------------------------------------------------------------------------
# Precedence: explicit kwarg > env var pin > threshold default
# ---------------------------------------------------------------------------

class TestPrecedence:
    def test_env_var_beats_choose_backend_for_the_solver(self, monkeypatch):
        db, query = _instance("q_chain", seed=0, skewed=0)
        ws = witness_structure(db, query)
        monkeypatch.delenv("REPRO_SOLVER_BACKEND", raising=False)
        assert effective_backend(ws) == choose_backend(ws)
        for pinned in ("bnb", "ilp"):
            monkeypatch.setenv("REPRO_SOLVER_BACKEND", pinned)
            assert effective_backend(ws) == pinned

    def test_invalid_solver_backend_env_raises(self, monkeypatch):
        db, query = _instance("q_chain", seed=0, skewed=0)
        ws = witness_structure(db, query)
        monkeypatch.setenv("REPRO_SOLVER_BACKEND", "simplex")
        with pytest.raises(ValueError, match="REPRO_SOLVER_BACKEND"):
            effective_backend(ws)

    def test_explicit_method_kwarg_beats_everything(self):
        """method='exact' forces the hitting-set path even for a
        PTIME-dispatched query."""
        db, query = _instance("q_perm", seed=1, skewed=0)
        clear_witness_cache()
        result = solve(db, query, method="exact")
        assert result.method in ("branch-and-bound", "ilp")


# ---------------------------------------------------------------------------
# Feature-extraction properties (hypothesis)
# ---------------------------------------------------------------------------

edges = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    min_size=0,
    max_size=12,
    unique=True,
)
nodes = st.lists(st.integers(0, 4), min_size=0, max_size=5, unique=True)


def chain_db(edge_list):
    db = Database()
    db.declare("R", 2)
    for (u, v) in edge_list:
        db.add("R", u, v)
    return db


class TestFeatureProperties:
    @given(edges)
    @SETTINGS
    def test_features_are_pure(self, edge_list):
        """Same pair -> the very same features."""
        db = chain_db(edge_list)
        assert extract_features(db, q_chain) == extract_features(db, q_chain)

    @given(edges)
    @SETTINGS
    def test_plans_are_pure(self, edge_list):
        db = chain_db(edge_list)
        assert plan_instance(db, q_chain) == plan_instance(db, q_chain)

    @given(edges)
    @SETTINGS
    def test_features_invariant_under_domain_renaming(self, edge_list):
        db = chain_db(edge_list)
        renamed = Database()
        renamed.declare("R", 2)
        for (u, v) in edge_list:
            renamed.add("R", f"n{u}", f"n{v}")  # injective renaming
        assert extract_features(db, q_chain) == extract_features(
            renamed, q_chain
        )
        assert plan_instance(db, q_chain).signature() == plan_instance(
            renamed, q_chain
        ).signature()

    @given(edges, nodes)
    @SETTINGS
    def test_features_invariant_under_declaration_and_insertion_order(
        self, edge_list, a_nodes
    ):
        forward = Database()
        forward.declare("A", 1)
        forward.declare("R", 2)
        for (u, v) in edge_list:
            forward.add("R", u, v)
        for a in a_nodes:
            forward.add("A", a)
        backward = Database()
        for a in reversed(a_nodes):
            backward.add("A", a)
        backward.declare("R", 2)
        for (u, v) in reversed(edge_list):
            backward.add("R", u, v)
        backward.declare("A", 1)
        assert extract_features(forward, q_a_chain) == extract_features(
            backward, q_a_chain
        )

    @given(edges, st.tuples(st.integers(0, 4), st.integers(0, 4)))
    @SETTINGS
    def test_size_features_monotone_under_endogenous_insert(
        self, edge_list, extra
    ):
        db = chain_db(edge_list)
        before = extract_features(db, q_chain)
        db.add("R", *extra)
        after = extract_features(db, q_chain)
        assert after.total_tuples >= before.total_tuples
        assert after.endogenous_tuples >= before.endogenous_tuples
        assert after.witness_estimate >= before.witness_estimate

    def test_planning_leaves_the_witness_cache_untouched(self):
        """Features come from tuple counts alone: planning neither
        builds nor looks up a witness structure, so the cache telemetry
        is unchanged."""
        db, query = _instance("q_chain", seed=3, skewed=0)
        clear_witness_cache()
        witness_structure(db, query)
        before = witness_cache_info()
        plan_instance(db, query)
        extract_features(db, query)
        assert witness_cache_info() == before

    @given(edges)
    @SETTINGS
    def test_witness_estimate_bounds(self, edge_list):
        db = chain_db(edge_list)
        features = extract_features(db, q_chain)
        # q_chain has two R atoms: the estimate is |R|^2, capped.
        assert features.witness_estimate == min(
            len(edge_list) ** 2, WITNESS_ESTIMATE_CAP
        )


# ---------------------------------------------------------------------------
# Admission control and the plan share one size predicate
# ---------------------------------------------------------------------------

class TestAdmissionPlannerConsistency:
    def _oversized_db(self):
        db = Database()
        db.declare("R", 2)
        for i in range(DEFAULT_MAX_EXACT_TUPLES + 100):
            db.add("R", i, i + 1)
        return db

    def test_rerouted_request_is_exactly_a_planner_large_instance(self):
        from repro.serving.admission import AdmissionPolicy
        from repro.serving.wire import SolveRequest

        policy = AdmissionPolicy()
        db = self._oversized_db()
        request = SolveRequest(db, q_chain, mode="exact")
        decision = policy.admit(request, active_solves=0)
        assert decision.accepted and decision.rerouted
        assert decision.mode == "anytime"
        # The same predicate, the same threshold, the same verdict.
        assert is_large_instance(db)
        assert plan_instance(db, q_chain).size_class == "large"

    def test_small_request_is_interactive_and_planner_small(self):
        from repro.serving.admission import AdmissionPolicy
        from repro.serving.wire import SolveRequest

        policy = AdmissionPolicy()
        db, query = _instance("q_chain", seed=2, skewed=0)
        request = SolveRequest(db, query, mode="exact")
        decision = policy.admit(request, active_solves=0)
        assert decision.accepted and not decision.rerouted
        assert plan_instance(db, query).size_class == "small"

    def test_instance_size_is_the_planner_feature(self):
        from repro.serving.admission import AdmissionPolicy
        from repro.serving.wire import SolveRequest

        policy = AdmissionPolicy()
        db, query = _instance("q_a_chain", seed=3, skewed=0)
        request = SolveRequest(db, query)
        assert policy.instance_size(request) == extract_features(
            db, query
        ).endogenous_tuples

    def test_custom_threshold_keeps_admission_and_classifier_aligned(self):
        from repro.serving.admission import AdmissionPolicy
        from repro.serving.wire import SolveRequest

        policy = AdmissionPolicy(max_exact_tuples=10)
        db, query = _instance("q_chain", seed=4, skewed=0)
        request = SolveRequest(db, query, mode="exact")
        decision = policy.admit(request, active_solves=0)
        assert decision.rerouted == is_large_instance(
            db, max_exact_tuples=policy.max_exact_tuples
        )


# ---------------------------------------------------------------------------
# Plan shape and the explain command
# ---------------------------------------------------------------------------

class TestPlanShape:
    def test_plan_signature_and_dict_are_stable(self):
        db, query = _instance("q_chain", seed=10, skewed=0)
        plan = plan_instance(db, query)
        assert plan.signature() == "join=reference,split=no,size=small"
        payload = plan.features.as_dict()
        assert payload["endogenous_tuples"] == len(db)
        json.dumps(payload)  # serializable for explain / bench records

    def test_solve_builds_no_plan_and_batches_do(self, monkeypatch):
        """A single solve applies the predicates directly and builds no
        plan; solve_batch plans each unique pair once for
        ``stats.plans``."""
        import repro.planner

        calls = []
        planned = repro.planner.plan_instance

        def counting(*args, **kwargs):
            calls.append(args)
            return planned(*args, **kwargs)

        monkeypatch.setattr(repro.planner, "plan_instance", counting)
        db, query = _instance("q_chain", seed=4, skewed=0)
        solve(db, query)
        assert calls == []
        batch = solve_batch([(db, query), (db, query)], workers=1)
        assert len(calls) == 1
        assert sum(batch.stats.plans.values()) == 1

    def test_cli_explain_smoke(self, tmp_path, capsys):
        from repro.cli import main
        from repro.serving.wire import database_to_spec

        db, query = _instance("q_chain", seed=8, skewed=0)
        db_path = tmp_path / "db.json"
        db_path.write_text(json.dumps(database_to_spec(db)))
        assert main(["planner", "explain", "q_chain", str(db_path)]) == 0
        output = capsys.readouterr().out
        assert "plan: join=" in output
        assert "endogenous_tuples" in output
