"""E21 — the engine's default thresholds vs every pinnable global configuration.

The engine's per-instance choices are size thresholds inside the two
pipelines of the dichotomy (see :mod:`repro.planner`): exact resilience
is NP-complete in general (Theorem 24) but PTIME on the flow specials
(Proposition 31), the columnar join only pays above a size threshold,
and ``choose_backend`` picks branch and bound or ILP per kernelized
structure.  A fixed global environment, by contrast, commits the whole
batch to one choice and pays wherever that choice is wrong.

This benchmark builds one mixed batch spanning the regimes where each
choice wins and loses:

* **leg A (small/mid PTIME)** — flow specials (``q_perm``/``q_conf``
  plus ``q_Aperm`` at domain sizes where flow beats search);
* **leg B1 (many small NP-hard)** — dozens of small ``q_chain``/
  ``q_3chain``/``q_a_chain`` instances whose kernels are tiny, so
  ``choose_backend`` picks branch-and-bound; pinning ``ilp`` pays a
  per-instance setup cost on every one;
* **leg B2 (mid NP-hard, dense)** — a few dense ``q_3chain``
  instances whose kernels stay large, where branch-and-bound blows up
  and the ILP wins by seconds; pinning ``bnb`` pays here;
* **leg C (large weighted)** — skewed-cost instances whose witness
  enumeration dominates (``q_vc``/``q_sj1_rats`` kernelize to almost
  nothing, so the structure *build* is the entire cost and pinning the
  ``reference`` join pays), plus large weighted ``q_Aperm`` flow
  instances.

**Gate.**  The default ``solve_batch`` must be at least
``MIN_SPEEDUP``x faster end-to-end than the **best single global
configuration**, with bit-identical values on the exact batch and
bit-identical certified intervals on a bounded anytime batch.  A
"configuration" is one of the 4 ``(join, solver)`` pins the engine
still exposes — ``REPRO_JOIN_BACKEND`` (with
``REPRO_COLUMNAR_MIN_TUPLES=0``, so a pinned join runs unconditionally)
times ``REPRO_SOLVER_BACKEND``; the kernel and min cut always run the
bitset and csgraph engines (their reference implementations are
differential oracles in ``tests/oracles``).

``REPRO_BENCH_E21_SEEDS`` (default 40) scales leg B1,
``REPRO_BENCH_E21_REPEATS`` (default 2) the timing repeats, and
``REPRO_BENCH_E21_MIN_SPEEDUP`` (default 1.2) the gate threshold —
CI's smoke run shrinks the matrix and relaxes the timing gate (tiny
batches measure mostly noise) while still checking bit-identity
everywhere and uploading the record.  Results are written to
``BENCH_e21_planner.json`` at the repository root (same trajectory
format as ``BENCH_e18_hotpaths.json``; see ``docs/performance.md``).
"""

import itertools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core import solve_batch
from repro.planner import plan_instance
from repro.query.zoo import ALL_QUERIES
from repro.resilience.types import Budget
from repro.witness import clear_witness_cache
from repro.workloads import assign_skewed_costs, random_database_for_query

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_e21_planner.json"

SEEDS = max(4, int(os.environ.get("REPRO_BENCH_E21_SEEDS", "40")))
REPEATS = max(1, int(os.environ.get("REPRO_BENCH_E21_REPEATS", "2")))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_E21_MIN_SPEEDUP", "1.2"))

# The 4 pinnable global configurations the default competes with.
JOIN_BACKENDS = ("columnar", "reference")
SOLVER_BACKENDS = ("bnb", "ilp")
ALL_CONFIGS = tuple(itertools.product(JOIN_BACKENDS, SOLVER_BACKENDS))

# Results accumulated across the gate tests; the final test writes the
# BENCH record from whatever ran.
RESULTS = {}


@contextmanager
def _env(**overrides):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _forced_env(join, solver):
    """Environment pinning one global configuration."""
    return {
        "REPRO_JOIN_BACKEND": join,
        # The columnar path normally defers to the reference join below
        # its crossover; a *pinned* configuration means the backend is
        # used unconditionally.
        "REPRO_COLUMNAR_MIN_TUPLES": "0",
        "REPRO_SOLVER_BACKEND": solver,
    }


def _config_key(join, solver):
    """The record label: join/kernel/flow/solver, as in earlier records."""
    return f"{join}/bitset/csgraph/{solver}"


def _warm_imports():
    """Pay one-time import costs outside the timed region (E18 idiom)."""
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401


def _scaled(n):
    """Scale a leg size with the seed knob (full scale at SEEDS=40)."""
    return max(1, round(n * SEEDS / 40))


def _build_exact_batch():
    """The mixed exact batch: legs A, B1, B2 and C (see module doc)."""
    pairs = []
    # Leg A — small/mid PTIME flow specials (unit costs).
    for name, dom, dens, count in (
        ("q_perm", 24, 0.25, _scaled(4)),
        ("q_conf", 30, 0.2, _scaled(4)),
        ("q_Aperm", 120, 0.3, _scaled(6)),
    ):
        query = ALL_QUERIES[name]
        for seed in range(count):
            db = random_database_for_query(
                query, domain_size=dom, density=dens, seed=seed
            )
            pairs.append((db, query))
    # Leg B1 — many small NP-hard instances (auto picks bnb on all).
    for name in ("q_chain", "q_3chain", "q_a_chain"):
        query = ALL_QUERIES[name]
        for seed in range(SEEDS):
            db = random_database_for_query(
                query, domain_size=6, density=0.45, seed=seed
            )
            pairs.append((db, query))
    # Leg B2 — dense mid NP-hard instances where bnb blows up
    # (auto picks ilp; seeds chosen for consistently large kernels).
    q3 = ALL_QUERIES["q_3chain"]
    for seed in (2, 4):
        db = random_database_for_query(q3, domain_size=11, density=0.4, seed=seed)
        pairs.append((db, q3))
    # Leg C — large weighted: build-dominated kernelizers plus large
    # weighted flow instances.
    for seed in range(_scaled(3)):
        for name, dom, dens, cost_seed in (
            ("q_vc", 40, 0.35, 100),
            ("q_sj1_rats", 24, 0.35, 200),
            ("q_Aperm", 100, 0.3, 300),
        ):
            query = ALL_QUERIES[name]
            db = random_database_for_query(
                query, domain_size=dom, density=dens, seed=seed
            )
            assign_skewed_costs(db, seed=cost_seed + seed)
            pairs.append((db, query))
    return pairs


def _build_anytime_batch():
    """A small bounded batch for the interval-equality gate."""
    pairs = []
    for name in ("q_chain", "q_3chain", "q_conf", "q_sj1_rats"):
        query = ALL_QUERIES[name]
        for seed in range(min(SEEDS, 4)):
            db = random_database_for_query(
                query, domain_size=6, density=0.45, seed=seed
            )
            if seed % 2:
                assign_skewed_costs(db, seed=seed + 7)
            pairs.append((db, query))
    return pairs


def _timed_batch(pairs, repeats=1, **env_overrides):
    """Best-of-``repeats`` wall time for one cold-cache batch solve."""
    best = None
    batch = None
    for _ in range(repeats):
        with _env(**env_overrides):
            clear_witness_cache()
            start = time.perf_counter()
            batch = solve_batch(pairs, weighted=True)
            elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, batch


def test_gate_default_beats_best_fixed_config():
    """Gate: the default batch is >= MIN_SPEEDUP x faster than the best
    of the 4 pinned configurations, with bit-identical values."""
    _warm_imports()
    pairs = _build_exact_batch()
    # Warm every code path once so no configuration is charged for
    # lazy imports or first-call setup.
    _timed_batch(pairs, **_forced_env("columnar", "ilp"))

    default_seconds, default_batch = _timed_batch(pairs, repeats=REPEATS)
    default_values = default_batch.values()
    assert default_batch.stats.plans, "batch recorded no plans"

    config_times = {}
    mismatches = []
    for join, solver in ALL_CONFIGS:
        seconds, batch = _timed_batch(
            pairs, repeats=REPEATS, **_forced_env(join, solver)
        )
        key = _config_key(join, solver)
        config_times[key] = round(seconds, 3)
        if batch.values() != default_values:
            mismatches.append(key)
    assert not mismatches, (
        f"default values differ from pinned configurations: {mismatches}"
    )

    best_key = min(config_times, key=config_times.get)
    best_seconds = config_times[best_key]
    speedup = best_seconds / default_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"default {default_seconds:.3f}s vs best fixed config "
        f"{best_key} {best_seconds:.3f}s: speedup {speedup:.2f}x "
        f"< required {MIN_SPEEDUP}x"
    )
    RESULTS["exact_batch"] = {
        "pairs": len(pairs),
        "repeats": REPEATS,
        "default_seconds": round(default_seconds, 3),
        "best_config": best_key,
        "best_config_seconds": best_seconds,
        "speedup_vs_best_config": round(speedup, 3),
        "min_speedup_required": MIN_SPEEDUP,
        "config_seconds": config_times,
        "plans": dict(default_batch.stats.plans),
        "values_identical_configs": len(ALL_CONFIGS),
    }


def test_gate_anytime_intervals_identical():
    """Gate: bounded anytime intervals are bit-identical between the
    default and every pinned configuration."""
    _warm_imports()
    pairs = _build_anytime_batch()
    budget = Budget(node_limit=64)

    def _run(**env_overrides):
        with _env(**env_overrides):
            clear_witness_cache()
            return solve_batch(pairs, mode="anytime", budget=budget, weighted=True)

    default_batch = _run()
    default_intervals = default_batch.intervals()
    checked = 0
    for join, solver in ALL_CONFIGS:
        batch = _run(**_forced_env(join, solver))
        assert batch.intervals() == default_intervals, (
            f"intervals diverge under {_config_key(join, solver)}"
        )
        assert list(batch.results) == list(default_batch.results)
        checked += 1
    RESULTS["anytime_batch"] = {
        "pairs": len(pairs),
        "node_limit": budget.node_limit,
        "intervals_identical_configs": checked,
    }


def test_gate_plans_deterministic_across_runs():
    """Gate: the plan records of the timed batch are reproducible —
    describing every instance cold again yields the same signatures."""
    pairs = _build_exact_batch()
    signatures = []
    for _ in range(2):
        clear_witness_cache()
        signatures.append(
            [plan_instance(db, query, weighted=True).signature() for db, query in pairs]
        )
    assert signatures[0] == signatures[1]
    RESULTS["plan_determinism"] = {
        "pairs": len(pairs),
        "distinct_plans": len(set(signatures[0])),
    }


def test_write_bench_record():
    """Persist the measured trajectory entry (runs last in this file)."""
    import repro

    exact = RESULTS.get("exact_batch", {})
    record = {
        "schema": 1,
        "bench": "e21_planner",
        "version": repro.__version__,
        "matrix": {
            "seeds": SEEDS,
            "repeats": REPEATS,
            "configs": len(ALL_CONFIGS),
        },
        "gates": {
            "speedup_vs_best_config": exact.get("speedup_vs_best_config"),
            "min_speedup_required": MIN_SPEEDUP,
            "values_identical_configs": exact.get("values_identical_configs"),
            "intervals_identical_configs": RESULTS.get("anytime_batch", {}).get(
                "intervals_identical_configs"
            ),
            "plans_deterministic": "plan_determinism" in RESULTS,
        },
        "exact_batch": exact,
        "anytime_batch": RESULTS.get("anytime_batch"),
        "plan_determinism": RESULTS.get("plan_determinism"),
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    assert RECORD_PATH.exists()
