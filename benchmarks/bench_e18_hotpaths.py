"""E18 — the hot-path engine overhaul, gated and recorded.

Three drop-in engine layers replaced the pure-Python hot paths behind
every tier (PR 5): the columnar witness join (``repro.query.columnar``),
the bitset hitting-set kernel (``repro.witness.structure`` +
``repro.resilience.approx``), and the scipy csgraph flow backbone
(``repro.resilience.flownet``).  The original implementations are
timed as reference oracles: the backtracking join via
``REPRO_JOIN_BACKEND=reference``, the frozenset kernel and the networkx
min cut through ``tests/oracles`` (``force_reference_kernel`` /
``networkx_flow``).

Acceptance gates (the ISSUE/E18 contract), all measured old-path vs
new-path in the same process on the existing scaling workloads:

* **layer (a)** — witness-structure construction ≥ **3x** faster on the
  hard-scaling instances (~3000 tuples per binary relation), with the
  vectorized join actually running (no silent fallback);
* **layer (b)** — exact branch-and-bound solves on prebuilt kernelized
  components ≥ **2x** faster, answers (values *and* contingency sets)
  identical;
* **layer (c)** — flow-tier special-solver solves ≥ **2x** faster,
  values identical (cut sets are backend-specific but equally minimal —
  see ``tests/test_flow_backends.py``);
* **equality** — batch answers bit-identical to the reference engines
  in all three modes, serial and 2-worker, cold and warm cache.

The measured numbers are written to ``BENCH_e18_hotpaths.json`` at the
repository root — the first entry of the machine-readable benchmark
trajectory (``repro bench --json`` emits the same record format; see
``docs/performance.md``).
"""

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from oracles import force_reference_kernel, networkx_flow

from repro.query.columnar import backend_counters, reset_backend_counters
from repro.query.zoo import ALL_QUERIES
from repro.resilience.exact import resilience_branch_and_bound
from repro.resilience.flow_special import (
    solve_qA3perm_R,
    solve_qAperm,
    solve_qz3,
)
from repro.resilience.types import Budget
from repro.core import solve_batch
from repro.witness import clear_witness_cache, witness_structure
from repro.witness.structure import WitnessStructure
from repro.workloads import (
    HARD_SCALING_QUERIES,
    large_random_database,
    random_database_for_queries,
    random_database_for_query,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_e18_hotpaths.json"

# Results accumulated across the gate tests; the final test writes the
# BENCH record from whatever ran.
RESULTS = {}

NEW_ENGINES = {"REPRO_JOIN_BACKEND": "columnar"}


@contextmanager
def _env(overrides):
    old = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            os.environ[key] = value
        yield
    finally:
        for key, value in old.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@contextmanager
def _reference_engines():
    """The pre-overhaul paths: backtracking join, frozenset kernel and
    budgeted search, networkx min cut."""
    with _env({"REPRO_JOIN_BACKEND": "reference"}):
        with force_reference_kernel(), networkx_flow():
            yield


def _scaling_workload():
    queries = [ALL_QUERIES[name] for name in HARD_SCALING_QUERIES]
    db = large_random_database(queries, n_tuples=3000, seed=0)
    return db, queries


def test_layer_a_structure_construction(benchmark):
    """Gate: ≥3x faster witness-structure construction on the scaling
    workload, identical structures, vectorized join actually running."""
    db, queries = _scaling_workload()

    def build_all():
        return [WitnessStructure.build(db, q) for q in queries]

    with _env(NEW_ENGINES):
        build_all()  # warm imports (scipy csgraph, numpy ufuncs)

    with _reference_engines():
        build_all()  # warm the reference side too
        t0 = time.perf_counter()
        reference = build_all()
        t_reference = time.perf_counter() - t0

    with _env(NEW_ENGINES):
        reset_backend_counters()
        engine = benchmark(build_all)
        counters = backend_counters()
    t_engine = benchmark.stats.stats.min

    for ws_ref, ws_new in zip(reference, engine):
        assert ws_new.sets == ws_ref.sets
        assert ws_new.forced_ids == ws_ref.forced_ids
        assert ws_new.universe == ws_ref.universe
        assert ws_new.stats.rounds == ws_ref.stats.rounds
    assert counters["fallback"] == 0, "vectorized join silently fell back"
    assert counters["columnar"] >= len(queries)

    speedup = t_reference / t_engine
    benchmark.extra_info["tuples"] = len(db)
    benchmark.extra_info["queries"] = len(queries)
    benchmark.extra_info["reference_seconds"] = round(t_reference, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    RESULTS["a_structure_build"] = {
        "workload": {
            "kind": "hard_scaling",
            "n_tuples": 3000,
            "queries": list(HARD_SCALING_QUERIES),
        },
        "reference_seconds": round(t_reference, 4),
        "engine_seconds": round(t_engine, 4),
        "speedup": round(speedup, 2),
        "gate": 3.0,
    }
    assert speedup >= 3.0, (
        f"witness-structure construction only {speedup:.2f}x faster"
    )


# BnB-heavy instances: NP-hard chain queries at densities where the
# kernelized components still require real search.
BNB_INSTANCES = tuple(
    ("q_3chain", 9, 0.45, seed) for seed in range(6)
) + tuple(("q_chain", 10, 0.45, seed) for seed in range(4))


def test_layer_b_bnb_solve(benchmark):
    """Gate: ≥2x faster exact branch-and-bound on prebuilt kernelized
    components, bit-identical results."""
    instances = []
    for name, domain, density, seed in BNB_INSTANCES:
        query = ALL_QUERIES[name]
        db = random_database_for_query(
            query, domain_size=domain, density=density, seed=seed
        )
        instances.append((db, query, witness_structure(db, query)))

    def solve_all():
        return [
            resilience_branch_and_bound(db, query, structure=ws)
            for db, query, ws in instances
        ]

    with _reference_engines():
        solve_all()  # warm
        t0 = time.perf_counter()
        reference = solve_all()
        t_reference = time.perf_counter() - t0

    with _env(NEW_ENGINES):
        engine = benchmark(solve_all)
    t_engine = benchmark.stats.stats.min

    for r_ref, r_new in zip(reference, engine):
        assert (r_new.value, r_new.contingency_set) == (
            r_ref.value,
            r_ref.contingency_set,
        )

    speedup = t_reference / t_engine
    benchmark.extra_info["instances"] = len(instances)
    benchmark.extra_info["reference_seconds"] = round(t_reference, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    RESULTS["b_bnb_solve"] = {
        "workload": {
            "kind": "kernelized_bnb",
            "instances": [
                {"query": n, "domain": d, "density": s}
                for n, d, s, _ in BNB_INSTANCES[:1]
            ]
            + [{"n_instances": len(BNB_INSTANCES)}],
        },
        "reference_seconds": round(t_reference, 4),
        "engine_seconds": round(t_engine, 4),
        "speedup": round(speedup, 2),
        "gate": 2.0,
    }
    assert speedup >= 2.0, f"BnB solve only {speedup:.2f}x faster"


FLOW_INSTANCES = (
    ("q_A3perm_R", lambda db: solve_qA3perm_R(db), 80, 0.2),
    ("q_Aperm", lambda db: solve_qAperm(db), 96, 0.3),
    ("q_z3", lambda db: solve_qz3(db), 110, 0.3),
)


def test_layer_c_flow_solves(benchmark):
    """Gate: ≥2x faster flow-tier solves on the csgraph backbone,
    values identical."""
    instances = []
    for name, fn, domain, density in FLOW_INSTANCES:
        query = ALL_QUERIES[name]
        for seed in range(2):
            db = random_database_for_query(
                query, domain_size=domain, density=density, seed=seed
            )
            instances.append((db, fn))

    def solve_all():
        return [fn(db).value for db, fn in instances]

    with _reference_engines():
        solve_all()  # warm
        t0 = time.perf_counter()
        reference = solve_all()
        t_reference = time.perf_counter() - t0

    with _env(NEW_ENGINES):
        engine = benchmark(solve_all)
    t_engine = benchmark.stats.stats.min

    assert engine == reference

    speedup = t_reference / t_engine
    benchmark.extra_info["instances"] = len(instances)
    benchmark.extra_info["reference_seconds"] = round(t_reference, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    RESULTS["c_flow_min_cut"] = {
        "workload": {
            "kind": "flow_specials",
            "instances": [
                {"query": n, "domain": d, "density": s}
                for n, _fn, d, s in FLOW_INSTANCES
            ],
        },
        "reference_seconds": round(t_reference, 4),
        "engine_seconds": round(t_engine, 4),
        "speedup": round(speedup, 2),
        "gate": 2.0,
    }
    assert speedup >= 2.0, f"flow-tier solves only {speedup:.2f}x faster"


def test_answers_bit_identical_across_engines(tmp_path):
    """Answers match the reference engines in all modes — exact values,
    contingency sets on the hitting-set path, certified intervals — for
    serial and 2-worker execution, cold and warm persistent cache.

    The instances are small enough for the reference engines, so the
    columnar size threshold is forced to 0 to make the comparison
    meaningful everywhere.
    """
    names = [
        "q_chain", "q_sj1_rats", "q_perm", "q_Aperm",
        "q_ACconf", "q_z3", "q_conf", "q_a_chain",
    ]
    queries = [ALL_QUERIES[n] for n in names]
    dbs = [
        random_database_for_queries(
            queries, domain_size=5, density=0.4, seed=seed
        )
        for seed in range(3)
    ]
    pairs = [(db, q) for db in dbs for q in queries]
    budget = Budget(node_limit=200)  # node budgets are deterministic
    checked = 0

    for mode in ("exact", "approx", "anytime"):
        kwargs = {"mode": mode}
        if mode == "anytime":
            kwargs["budget"] = budget
        with _reference_engines():
            clear_witness_cache()
            baseline = solve_batch(pairs, **kwargs)
        runs = {}
        with _env({**NEW_ENGINES, "REPRO_COLUMNAR_MIN_TUPLES": "0"}):
            cache_dir = tmp_path / mode
            for label, extra in (
                ("serial", {}),
                ("workers2", {"workers": 2}),
                ("cache_cold", {"cache_dir": cache_dir}),
                ("cache_warm", {"cache_dir": cache_dir}),
            ):
                clear_witness_cache()
                runs[label] = solve_batch(pairs, **kwargs, **extra)
        for label, batch in runs.items():
            assert batch.values() == baseline.values(), (mode, label)
            if mode != "exact":
                assert batch.intervals() == baseline.intervals(), (mode, label)
            for got, ref in zip(batch, baseline):
                # Hitting-set answers are bit-identical; flow-tier cuts
                # are backend-specific (equal value, equally minimal).
                if ref.method in ("branch-and-bound", "ilp", "anytime",
                                  "lp+greedy", "unsatisfied"):
                    assert got.contingency_set == ref.contingency_set, (
                        mode, label, ref.method,
                    )
                    assert got.method == ref.method
            checked += 1
    clear_witness_cache()
    RESULTS["equality"] = {
        "modes": ["exact", "approx", "anytime"],
        "executions": ["serial", "workers2", "cache_cold", "cache_warm"],
        "pairs": len(pairs),
        "runs_checked": checked,
        "ok": True,
    }


def test_write_bench_record():
    """Persist the measured trajectory entry (runs last in this file)."""
    import repro

    record = {
        "schema": 1,
        "bench": "e18_hotpaths",
        "version": repro.__version__,
        "gates": {"a_structure_build": 3.0, "b_bnb_solve": 2.0,
                  "c_flow_min_cut": 2.0},
        "layers": {
            key: RESULTS[key]
            for key in ("a_structure_build", "b_bnb_solve", "c_flow_min_cut")
            if key in RESULTS
        },
        "equality": RESULTS.get("equality"),
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    assert RECORD_PATH.exists()
