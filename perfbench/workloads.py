"""The benchmark's four workloads: input generation, warm-up, one timed
pass, and the output checks.

Inputs come only from the seed.  Every call into ``repro`` goes through
a module attribute looked up at call time (``repro.solve``, not a name
bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
import repro.ijp
from repro.cli import DEFAULT_BENCH_QUERIES
from repro.query.columnar import backend_counters
from repro.query.zoo import ALL_QUERIES, q_triangle
from repro.resilience.exact import resilience_ilp
from repro.resilience.solver import dispatch_plan
from repro.serving import ServingClient
from repro.witness import clear_witness_cache, witness_cache_info
from repro.workloads.random_db import (
    HARD_SCALING_QUERIES,
    assign_skewed_costs,
    hard_scaling_workload,
    random_database_for_queries,
    random_database_for_query,
)

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "workloads.json").read_text())["workloads"]
DEFAULT_QUERIES = [ALL_QUERIES[n] for n in DEFAULT_BENCH_QUERIES.split(",")]


def child_env() -> Dict[str, str]:
    """The environment of the benchmark's child interpreters."""
    path = [str(ROOT / "src"), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def scratch_dir() -> Path:
    """Where runs write: a git-ignored directory inside the checkout."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def warm_up(queries) -> None:
    """Pay first-call costs before timing: dispatch plans for every
    query, csgraph max-flow, the HiGHS ILP and ``linprog``."""
    db = random_database_for_queries(queries, domain_size=4, density=0.5, seed=7)
    weighted = assign_skewed_costs(db.copy(), seed=11)
    for q in queries:
        repro.solve(db, q)
        repro.solve(db, q, mode="approx")
        repro.solve(weighted, q, weighted=True)
    chain = ALL_QUERIES["q_chain"]
    resilience_ilp(random_database_for_queries([chain], domain_size=4, seed=3), chain)
    clear_witness_cache()


def fresh(pairs):
    """The pairs over new database objects (shared databases stay
    shared), so per-database memos and indexes start cold."""
    copies = {}
    out = []
    for db, q in pairs:
        if id(db) not in copies:
            copies[id(db)] = db.copy()
        out.append((copies[id(db)], q))
    return out


# ---------------------------------------------------------------------------
# Independent output checks (no repro evaluator, join, kernel or solver)
# ---------------------------------------------------------------------------

def _holds(query, facts: Dict[str, List[tuple]]) -> bool:
    """Backtracking evaluation of ``query`` over plain value tuples."""
    indexes: Dict[tuple, Dict[tuple, List[tuple]]] = {}

    def candidates(atom, binding):
        bound = tuple(i for i, v in enumerate(atom.args) if v in binding)
        rows = facts.get(atom.relation, [])
        if not bound:
            return rows
        index = indexes.get((atom.relation, bound))
        if index is None:
            index = indexes[(atom.relation, bound)] = {}
            for row in rows:
                index.setdefault(tuple(row[i] for i in bound), []).append(row)
        return index.get(tuple(binding[atom.args[i]] for i in bound), [])

    def extend(remaining, binding) -> bool:
        if not remaining:
            return True
        atom = max(remaining, key=lambda a: sum(v in binding for v in a.args))
        rest = [a for a in remaining if a is not atom]
        for row in candidates(atom, binding):
            new = dict(binding)
            if all(new.setdefault(v, x) == x for v, x in zip(atom.args, row)):
                if extend(rest, new):
                    return True
        return False

    return extend(list(query.atoms), {})


def contingency_error(db, query, gamma, value, weighted=False) -> Optional[str]:
    """Why ``gamma`` is not a contingency set of size (or cost)
    ``value`` for ``query`` on ``db``; ``None`` when it is one."""
    for t in gamma:
        rel = db.relations.get(t.relation)
        if rel is None or t not in rel:
            return f"{t!r} is not in the database"
        if rel.exogenous:
            return f"{t!r} is exogenous"
    size = sum(db.cost(t) for t in gamma) if weighted else len(gamma)
    if size != value:
        return f"contingency set size {size} != value {value}"
    facts = {
        name: [t.values for t in rel if t not in gamma]
        for name, rel in db.relations.items()
    }
    if _holds(query, facts):
        return "the query still holds after the deletions"
    return None


def result_key(result) -> tuple:
    """Everything a result asserts, in a canonical comparable form."""
    interval = getattr(result, "interval", None)
    return (
        result.value,
        interval,
        result.method,
        tuple(sorted(repr(t) for t in result.contingency_set)),
    )


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One timed pass: per-operation latencies (s) and wall (s), as
    measured and at the reference speed (``speed.py``), units of work
    done (pairs, requests or partitions) and the outputs, which
    :meth:`Workload.check` consumes."""

    latencies: List[float]
    wall: float
    ref_latencies: List[float]
    ref_wall: float
    units: int
    outputs: list
    extra: Dict[str, float] = field(default_factory=dict)


def timed_pass(sampler: "speed.Sampler", units: int, outputs: list,
               wall: Optional[float] = None, **extra) -> Pass:
    """The :class:`Pass` of a finished ``sampler``; ``wall`` defaults
    to the sum of its operations' latencies."""
    latencies = [end - start for start, end in sampler.ops]
    if wall is None:
        wall = sum(latencies)
    ref_latencies, ref_wall = sampler.scaled(wall)
    return Pass(latencies, wall, ref_latencies, ref_wall, units, outputs, extra)


class Workload:
    name = ""
    queries: list = []

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = CONFIG[self.name]
        self.setup_times: Dict[str, float] = {}
        self.reference = None
        # Probe the host's speed during operations (speed.Sampler); off
        # in the traced run, whose spans would time the probes.
        self.interrupt = True

    def generate(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Warm up (and start any server) before the first timed op."""
        t0 = time.perf_counter()
        warm_up(self.queries)
        self.setup_times["warmup_s"] = time.perf_counter() - t0

    def run_pass(self, i: int) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass) -> Tuple[int, int, List[str]]:
        """Check one pass's outputs against the independent checker and
        the first pass, then drop them: ``(attempted, failed,
        messages)``."""
        raise NotImplementedError

    def begin_trace(self, rec) -> None:
        """Install the spans, switched off, then redo the warm-up traced."""
        self.interrupt = False
        spans.install(rec, spans.ENGINE_TARGETS)
        rec.active = False
        # Cached dispatch plans hold solver methods bound before the
        # wrappers existed; rebuild them under the trace.
        dispatch_plan.cache_clear()
        clear_witness_cache()
        self._traced(rec, lambda: warm_up(self.queries))

    def traced_pass(self, rec, i: int) -> Pass:
        """:meth:`run_pass` with the spans recording."""
        return self._traced(rec, lambda: self.run_pass(i))

    def _traced(self, rec, fn):
        """Run ``fn`` recording spans, and add the program's own
        counters over just that stretch."""
        before = self._counters()
        rec.active = True
        try:
            return fn()
        finally:
            rec.active = False
            for key, value in self._counters().items():
                rec.add(key, value - before[key])

    def end_trace(self, rec) -> None:
        """Add what is only known once the traced passes are done."""

    @staticmethod
    def _counters() -> Dict[str, float]:
        joins = backend_counters()
        hits, misses, _ = witness_cache_info()
        info = dispatch_plan.cache_info()
        return {
            "query.join.columnar_calls": joins["columnar"],
            "query.join.reference_calls": joins["reference"],
            "witness.structure_cache.hits": hits,
            "witness.structure_cache.misses": misses,
            "resilience.dispatch.hits": info.hits,
            "resilience.dispatch.misses": info.misses,
        }

    def _check_pairs(self, outputs, feasible) -> Tuple[int, int, List[str]]:
        """The first pass: ``feasible(db, q, out)`` names what is wrong
        with each output.  Later passes: the same outputs as the first."""
        keys = [None if isinstance(o, Exception) else result_key(o) for o in outputs]
        messages = []
        if self.reference is None:
            self.reference = keys
            for (db, q), out in zip(self.pairs, outputs):
                err = repr(out) if isinstance(out, Exception) else feasible(db, q, out)
                if err:
                    messages.append(f"{q.name}: {err}")
            return len(outputs), len(messages), messages
        changed = sum(k is None or k != r for k, r in zip(keys, self.reference))
        if changed:
            messages.append(f"{changed} results differ from the first pass")
        return len(outputs), changed, messages

    def close(self) -> float:
        """Stop what :meth:`start` started; the MB of peak RSS it used
        outside this process."""
        return 0.0


class ExactSmall(Workload):
    name = "exact_small"
    queries = DEFAULT_QUERIES

    def generate(self) -> None:
        rng = random.Random(self.seed)
        dbs = [
            random_database_for_queries(
                self.queries,
                domain_size=self.cfg["domain_size"],
                density=self.cfg["density"],
                rng=rng,
            )
            for _ in range(self.cfg["databases"])
        ]
        self.pairs = [(db, q) for db in dbs for q in self.queries]

    def run_pass(self, i: int) -> Pass:
        clear_witness_cache()
        work = fresh(self.pairs)
        outputs = []
        with speed.Sampler(interrupt=self.interrupt) as sampler:
            clock = sampler.clock
            for db, q in work:
                t0 = clock()
                try:
                    out = repro.solve(db, q)
                except Exception as exc:  # counted as a failed operation
                    out = exc
                sampler.record(t0, clock())
                outputs.append(out)
        return timed_pass(sampler, len(work), outputs)

    def check(self, p):
        outputs, p.outputs = p.outputs, None
        return self._check_pairs(
            outputs,
            lambda db, q, out: contingency_error(db, q, out.contingency_set, out.value),
        )


class AnytimeHard(Workload):
    name = "anytime_hard"
    queries = [ALL_QUERIES[n] for n in HARD_SCALING_QUERIES]

    def generate(self) -> None:
        self.pairs = hard_scaling_workload(
            n_tuples=self.cfg["n_tuples"],
            n_databases=self.cfg["databases"],
            seed=16 * self.seed,
        )
        self.budget = repro.Budget(node_limit=self.cfg["node_limit"])

    def run_pass(self, i: int) -> Pass:
        clear_witness_cache()
        work = fresh(self.pairs)
        with speed.Sampler(interrupt=self.interrupt) as sampler:
            t0 = sampler.clock()
            batch = repro.solve_batch(work, mode="anytime", budget=self.budget, workers=1)
            sampler.record(t0, sampler.clock())
        return timed_pass(
            sampler, len(work), list(batch.results),
            intervals_closed=batch.stats.intervals_exact,
            gap_total=batch.stats.gap_total,
        )

    def check(self, p):
        outputs, p.outputs = p.outputs, None

        def feasible(db, q, out):
            if out.lower_bound > out.upper_bound:
                return f"lower bound {out.lower_bound} > upper bound {out.upper_bound}"
            return contingency_error(db, q, out.contingency_set, out.upper_bound)

        return self._check_pairs(outputs, feasible)


class IjpTriangle(Workload):
    name = "ijp_triangle"
    queries = [q_triangle]

    def generate(self) -> None:
        self.k = self.cfg["k"]

    def run_pass(self, i: int) -> Pass:
        clear_witness_cache()
        with speed.Sampler(interrupt=self.interrupt) as sampler:
            t0 = sampler.clock()
            sweep = repro.ijp.sweep_range(q_triangle, self.k, query_name="q_triangle")
            sampler.record(t0, sampler.clock())
        return timed_pass(sampler, sweep.stats.covered, [sweep])

    def check(self, p):
        sweep = p.outputs[0]
        p.outputs = None
        expected = self.cfg["expected"]
        certs = sweep.certificates
        proper = [c for c in certs if repro.ijp.certificate_is_proper(c)]
        found = digest((c.rgs, repr(c.pair), c.resilience) for c in certs)
        messages = []
        if (len(certs), len(proper), found) != (
            expected["certificates"], expected["proper"], expected["digest"]
        ):
            messages.append(
                f"{len(certs)} certificates ({len(proper)} proper, digest "
                f"{found[:12]}), expected {expected['certificates']} "
                f"({expected['proper']}, {expected['digest'][:12]})"
            )
        example_62 = [c for c in proper if len(c.blocks(q_triangle)) == 5]
        if not example_62:
            messages.append("Example 62's 5-block triangle IJP not found")
        else:
            cert = example_62[0]
            report = repro.ijp.check_ijp(cert.database(q_triangle), q_triangle, *cert.pair)
            if not report.is_ijp or report.resilience != cert.resilience:
                messages.append("Example 62's certificate fails re-checking")
        return 1, int(bool(messages)), messages


class Served(Workload):
    name = "served"
    queries = DEFAULT_QUERIES

    def generate(self) -> None:
        self.prepared = {0: self.round(0)}
        self.checker_warm = False

    def round(self, r: int) -> list:
        """Round ``r``'s requests: ``(database, query, weighted)``.  The
        same ``r`` always gives equal requests."""
        cfg = self.cfg
        rng = random.Random(self.seed * 1000003 + r)
        distinct = []
        for i in range(cfg["distinct_per_round"]):
            q = self.queries[i % len(self.queries)]
            db = random_database_for_query(
                q, domain_size=cfg["domain_size"], density=cfg["density"], rng=rng
            )
            weighted = i % 2 == 1
            if weighted:
                assign_skewed_costs(db, max_cost=cfg["max_cost"], rng=rng)
            distinct.append((db, q, weighted))
        requests = distinct + [
            rng.choice(distinct) for _ in range(cfg["repeats_per_round"])
        ]
        rng.shuffle(requests)
        return requests

    def start(self) -> None:
        self.server = ServerProcess()
        self.setup_times["server_start_s"] = self.server.start_s
        self.setup_times["warmup_s"] = self.server.warmup_s

    def run_pass(self, i: int, server: Optional["ServerProcess"] = None) -> Pass:
        requests = self.prepared.pop(i, None) or self.round(i)
        address = (server or self.server).address
        outputs: list = [None] * len(requests)
        order = itertools.count()

        def client() -> None:
            conn = ServingClient(address, timeout=60)
            clock = sampler.clock
            while True:
                n = next(order)
                if n >= len(requests):
                    return
                db, q, weighted = requests[n]
                t0 = clock()
                try:
                    outputs[n] = conn.solve(db, q, weighted=weighted)[0]
                except Exception as exc:  # counted as a failed request
                    outputs[n] = exc
                sampler.record(t0, clock())

        threads = [threading.Thread(target=client) for _ in range(2)]
        # The host's speed is probed on this thread while it waits for
        # the client threads.
        with speed.Sampler(interrupt=self.interrupt, ops_here=False) as sampler:
            t0 = sampler.clock()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = sampler.clock() - t0
        return timed_pass(sampler, len(requests), list(zip(requests, outputs)), wall)

    def check(self, p):
        answered, p.outputs = p.outputs, None
        if not self.checker_warm:
            # The direct solves below load lazy backends in this process;
            # load them all at once, so that peak RSS does not depend on
            # which ones the first rounds happen to need.
            warm_up(self.queries)
            self.checker_warm = True
        failed, messages = 0, []
        expected: Dict[int, tuple] = {}
        for (db, q, weighted), out in answered:
            if id(db) not in expected:
                direct = repro.solve(db, q, weighted=weighted)
                err = contingency_error(db, q, direct.contingency_set, direct.value, weighted)
                if err:
                    messages.append(f"direct solve of {q.name}: {err}")
                expected[id(db)] = result_key(direct)
            if isinstance(out, Exception):
                failed += 1
                messages.append(f"request failed: {out!r}")
            elif result_key(out) != expected[id(db)]:
                failed += 1
                messages.append(f"{q.name}: served answer differs from a direct solve")
        return len(answered), failed, messages

    def begin_trace(self, rec) -> None:
        """Start a second, traced server; the first stays untraced."""
        self.interrupt = False
        spans.install(rec, spans.CLIENT_TARGETS)
        rec.active = False
        self.traced_server = ServerProcess(trace=True)

    def traced_pass(self, rec, i: int) -> Pass:
        rec.active = True
        try:
            return self.run_pass(i, self.traced_server)
        finally:
            rec.active = False

    def end_trace(self, rec) -> None:
        snapshot = ServingClient(self.traced_server.address, timeout=60).metrics()
        rec.add("serving.cache_hits_total", snapshot["cache_hits_total"])
        rec.add("serving.coalesced_total", snapshot["coalesced_total"])

    def close(self) -> float:
        """Stop the servers; the untraced one's peak RSS in MB.  The
        traced one's report (spans and counters) is kept as
        ``server_report``."""
        rss = 0.0
        server, self.server = getattr(self, "server", None), None
        if server is not None:
            rss = server.stop()["peak_rss_mb"]
        traced, self.traced_server = getattr(self, "traced_server", None), None
        if traced is not None:
            self.server_report = traced.stop()
        return rss


class ServerProcess:
    """A ``serve.py`` child with a fresh result cache, ready to serve
    once constructed."""

    def __init__(self, trace: bool = False):
        self.cache_dir = tempfile.mkdtemp(prefix="served-cache-", dir=scratch_dir())
        self.out = Path(self.cache_dir + ".json")
        cmd = [sys.executable, str(HERE / "serve.py"),
               "--cache-dir", self.cache_dir, "--out", str(self.out)]
        if trace:
            cmd.append("--trace")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            cwd=str(ROOT),
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("the server launcher exited before it was ready")
        ready = json.loads(line)
        self.start_s = time.perf_counter() - t0
        self.warmup_s = ready["warmup_s"]
        self.address = ready["address"]

    def stop(self) -> dict:
        """Stop the server and wait for it; its report (``peak_rss_mb``,
        and with tracing its span table and counters)."""
        try:
            self.proc.stdin.write(b"stop\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if not self.out.exists():
            return {"peak_rss_mb": 0.0}
        report = json.loads(self.out.read_text())
        self.out.unlink()
        spans_file = Path(str(self.out) + ".spans.json")
        if spans_file.exists():
            spans_file.replace(scratch_dir() / "spans-served-server.json")
        return report


WORKLOADS = {w.name: w for w in (ExactSmall, AnytimeHard, Served, IjpTriangle)}
