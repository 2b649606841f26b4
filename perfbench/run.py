#!/usr/bin/env python3
"""The repository benchmark: four named workloads over ``repro``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/workloads.json``): ``exact_small``,
``anytime_hard``, ``served`` and ``ijp_triangle``.  Run from the root of
a source checkout; the program is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up is timed in fresh interpreters (median of several), then timed
passes run for about ``--seconds``; the median latency and the rate
are medians over passes, the p99 is over every operation.  Every time
and rate in the result line is at the reference speed of
``perfbench/speed.py`` (the wall time summed at the speed a host-speed
probe runs at meanwhile), which takes out the shared host's drift; the
table prints the raw wall times beside them.  ``--trace 1``
wraps each layer's entry points (``perfbench/spans.py``) with the probe
off and reports per-layer self time (as measured) and counts
over a fixed number of traced passes, each following an untraced pass
over the same inputs for the overhead figure; the spans are written to
``.perfbench/``.  Every output is checked in both modes, between
passes and untimed.  ``--workload all`` runs every workload in turn.

A table of every metric goes to standard output, and the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3

# name, unit: present on every workload (see workloads.json for the
# workload-specific names they stand for).  The cold import time and
# the p99 are in the table (and the import time is the per-layer
# setup.import_s), but not here: on a shared host their run-to-run
# spread comes near the largest bound a metric may have (file and
# library loading; the slowest few dozen requests on ``served``).
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# The end-to-end metrics by their workload-specific names, printed in
# this order on every untraced run ("n/a" where a workload lacks one).
TABLE_METRICS = [
    ("setup_s", "s"),
    ("import_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_p99_ms", "ms"),
    ("pairs_per_s", "1/s"),
    ("intervals_closed", "count"),
    ("gap_total", "count"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("partitions_per_s", "1/s"),
    ("failed_share", "ratio"),
    ("peak_rss_mb", "MB"),
]

# name, unit.  Times are self seconds and counts are totals over the
# traced window: one warm-up plus the workload's traced passes.  The
# setup.* times are this process's own set-up.  A layer that does not
# run on a workload reads 0.
PER_LAYER = [
    ("setup.import_s", "s"),
    ("setup.generate_s", "s"),
    ("setup.server_start_s", "s"),
    ("setup.warmup_s", "s"),
    ("query.satisfies.calls", "count"),
    ("query.satisfies_s", "s"),
    ("query.witnesses.calls", "count"),
    ("query.witnesses_s", "s"),
    ("query.join.columnar_calls", "count"),
    ("query.join.reference_calls", "count"),
    ("structure.classify.calls", "count"),
    ("structure.classify_s", "s"),
    ("resilience.dispatch.hit_ratio", "ratio"),
    ("planner.plan.calls", "count"),
    ("planner.plan_s", "s"),
    ("witness.build.calls", "count"),
    ("witness.build_s", "s"),
    ("witness.enumerate_s", "s"),
    ("witness.reduce_s", "s"),
    ("witness.tuples_kept_ratio", "ratio"),
    ("witness.witnesses_kept_ratio", "ratio"),
    ("witness.structure_cache.hit_ratio", "ratio"),
    ("witness.cache_key_s", "s"),
    ("db.canonical_s", "s"),
    ("witness.result_cache.get_s", "s"),
    ("witness.result_cache.put_s", "s"),
    ("witness.result_cache.hit_ratio", "ratio"),
    ("resilience.solve_s", "s"),
    ("resilience.flow.min_cut.calls", "count"),
    ("resilience.flow.min_cut_s", "s"),
    ("resilience.flow.edges_mean", "count"),
    ("resilience.flow.build_s", "s"),
    ("resilience.exact.calls", "count"),
    ("resilience.exact_s", "s"),
    ("resilience.anytime.calls", "count"),
    ("resilience.anytime_s", "s"),
    ("resilience.anytime.intervals_closed", "count"),
    ("resilience.anytime.gap_total", "count"),
    ("core.batch.calls", "count"),
    ("core.batch_s", "s"),
    ("core.batch.unique_ratio", "ratio"),
    ("serving.decode_s", "s"),
    ("serving.handle_s", "s"),
    ("serving.encode_s", "s"),
    ("serving.http_s", "s"),
    ("serving.cache_hits_total", "count"),
    ("serving.coalesced_total", "count"),
    ("serving.transport_s", "s"),
    ("client.encode_s", "s"),
    ("client.decode_s", "s"),
    ("ijp.sweep_s", "s"),
    ("ijp.space.enumerated", "count"),
    ("ijp.space.pruned_ratio", "ratio"),
    ("ijp.screen_s", "s"),
    ("ijp.probe.calls", "count"),
    ("ijp.probe_s", "s"),
    ("ijp.probe_survival", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _import_program():
    """Put ``src/`` and this directory on the path; import ``repro``
    and return how long the import took."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t0 = time.perf_counter()
    import repro  # noqa: F401

    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Set-up, timed in fresh interpreters
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> int:
    """Child mode: import, generate and warm up (start the server on
    ``served``), report the phase times as one JSON line, then stop."""
    import_s = _import_program()
    import workloads

    t0 = time.perf_counter()
    w = workloads.WORKLOADS[workload](seed)
    w.generate()
    times = {"import_s": import_s, "generate_s": time.perf_counter() - t0}
    try:
        w.start()
        times.update(w.setup_times)
        print(json.dumps(times), flush=True)
    finally:
        w.close()
    return 0


def _probe(args) -> dict:
    """Run this script in a fresh interpreter with ``args``; the time
    until its one JSON line arrives, as measured (``ready_s``) and at
    the reference speed of the host-speed probes this process runs
    meanwhile (``ref_ready_s``), with that line's contents."""
    import workloads

    with speed.Sampler(interrupt=True, ops_here=False) as sampler:
        t0 = sampler.clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), *args],
            stdout=subprocess.PIPE, env=workloads.child_env(), cwd=str(ROOT),
        )
        try:
            line = proc.stdout.readline()
            ready = sampler.record(t0, sampler.clock())
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if code != 0 or not line:
        raise RuntimeError(f"probe {args} failed")
    (ref_ready,), _ = sampler.scaled()
    return dict(json.loads(line), ready_s=ready, ref_ready_s=ref_ready)


def measure_setup(workload: str, seed: int):
    """Over :data:`SETUP_PROBES` fresh interpreters, the median set-up
    time (spawn to ready) at the reference speed and as measured, and
    the median cold ``import repro`` within it, as measured."""
    probes = [
        _probe(["--setup-probe", "--workload", workload, "--seed", str(seed)])
        for _ in range(SETUP_PROBES)
    ]
    return tuple(
        statistics.median(p[key] for p in probes)
        for key in ("ref_ready_s", "ready_s", "import_s")
    )


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_untraced(name: str, seed: int, seconds: float):
    import workloads

    setup_s, raw_setup_s, import_s = measure_setup(name, seed)
    w = workloads.WORKLOADS[name](seed)
    w.generate()
    passes = []
    attempted = failed = 0
    messages: list = []
    measured = 0.0
    try:
        w.start()
        # At least two passes, so outputs can be compared across passes;
        # no pass is started that would likely end past --seconds of
        # measured time (passes and their speed probes).  Checks run
        # between passes, untimed.
        while len(passes) < 2 or measured * (len(passes) + 1) / len(passes) <= seconds:
            t0 = time.perf_counter()
            p = w.run_pass(len(passes))
            measured += time.perf_counter() - t0
            passes.append(p)
            n, bad, notes = w.check(p)
            attempted, failed, messages = attempted + n, failed + bad, messages + notes
            if len(passes) == 2:
                # Peak RSS over set-up and the first two passes: a fixed
                # amount of work, where later passes would add allocator
                # growth that depends on how many passes fit.
                own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        server_rss = w.close()
    # The median and rate are medians over passes of each pass's figure,
    # so a pass slowed by a passing load spike moves them little; the
    # p99 is over every operation of every pass, for the most samples
    # beyond it.  ``ref`` is at the reference speed,
    # ``raw`` as measured.
    def timings(lats, wall):
        return {
            "op_p50_ms": statistics.median(
                statistics.median(lats(p)) for p in passes
            ) * 1e3,
            "op_p99_ms": workloads.percentile(
                [x for p in passes for x in lats(p)], 99
            ) * 1e3,
            "ops_per_s": statistics.median(p.units / wall(p) for p in passes),
        }

    ref = timings(lambda p: p.ref_latencies, lambda p: p.ref_wall)
    raw = timings(lambda p: p.latencies, lambda p: p.wall)
    metrics = {
        "setup_s": setup_s,
        **ref,
        "peak_rss_mb": own_rss + server_rss,
    }
    names = json.loads((HERE / "workloads.json").read_text())["end_to_end_names"][name]
    per_pass = len(passes[0].latencies)
    n_ops = per_pass * len(passes)

    def row(key, label, note):
        return label, (metrics[key], f"raw {raw[key]:.4g}; {note}")

    found = dict([
        ("setup_s", (setup_s, f"raw {raw_setup_s:.4g}; median of {SETUP_PROBES} "
                              "fresh interpreters")),
        ("import_s", (import_s, f"as measured; median of {SETUP_PROBES} cold imports")),
        row("op_p50_ms", names["op_p50_ms"],
            f"median of {len(passes)} passes of {per_pass} ops"),
        row("op_p99_ms", names["op_p99_ms"], f"of all {n_ops} ops"
            + ("; the slowest" if n_ops < 100 else "")),
        row("ops_per_s", names["ops_per_s"], f"median of {len(passes)} passes"),
    ])
    found.update({
        "failed_share": (_ratio(failed, attempted), f"{failed}/{attempted}"),
        "peak_rss_mb": (
            metrics["peak_rss_mb"],
            f"benchmark process {own_rss:.1f} + server {server_rss:.1f}"
            if name == "served" else "benchmark process",
        ),
    })
    if name == "anytime_hard":
        found["intervals_closed"] = (passes[0].extra["intervals_closed"], "per pass")
        found["gap_total"] = (passes[0].extra["gap_total"], "per pass")
    units = dict(TABLE_METRICS)
    units.setdefault(names["op_p50_ms"], "ms")
    units.setdefault(names["op_p99_ms"], "ms")
    rows = []
    table_labels = [label for label, _ in TABLE_METRICS]
    for label in table_labels + [l for l in found if l not in table_labels]:
        value, note = found.get(label, ("n/a", "not measured on this workload"))
        rows.append((label, value, units[label], note))
    return rows, metrics, attempted, failed, messages


def run_traced(name: str, seed: int, import_s: float):
    import spans
    import workloads

    t0 = time.perf_counter()
    w = workloads.WORKLOADS[name](seed)
    w.generate()
    setup = {"setup.generate_s": time.perf_counter() - t0}
    n = w.cfg["traced_passes"]
    rec = spans.Recorder()
    untraced, traced = [], []
    try:
        w.start()
        setup["setup.server_start_s"] = w.setup_times.get("server_start_s", 0.0)
        setup["setup.warmup_s"] = w.setup_times["warmup_s"]
        w.begin_trace(rec)
        first_pass_span = len(rec.spans)
        # Untraced and traced passes alternate over the same inputs, so
        # a drift in machine speed lands on both sides of the overhead.
        checks = []
        for i in range(n):
            untraced.append(w.run_pass(i))
            checks.append(w.check(untraced[-1]))
            traced.append(w.traced_pass(rec, i))
            checks.append(w.check(traced[-1]))
        w.end_trace(rec)
    finally:
        w.close()
    attempted = sum(c[0] for c in checks)
    failed = sum(c[1] for c in checks)
    messages = [m for c in checks for m in c[2]]

    table = rec.table()
    counts = dict(rec.counts)
    roots = rec.root_seconds(since=first_pass_span)
    threads = 2 if name == "served" else 1
    coverage = _ratio(sum(roots.values()), threads * sum(p.wall for p in traced))
    report = getattr(w, "server_report", None)
    if report is not None:
        for span, entry in report.get("table", {}).items():
            mine = table.setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in mine:
                mine[key] += entry[key]
        for key, value in report.get("counts", {}).items():
            counts[key] = counts.get(key, 0.0) + value
    rec.dump(workloads.scratch_dir() / f"spans-{name}.json")

    def calls(span):
        return table.get(span, {}).get("calls", 0)

    def self_s(span):
        return table.get(span, {}).get("self_s", 0.0)

    def c(key):
        return counts.get(key, 0.0)

    metrics = dict(setup)
    metrics["setup.import_s"] = import_s
    metrics.update({
        "query.satisfies.calls": calls("query.satisfies"),
        "query.satisfies_s": self_s("query.satisfies"),
        "query.witnesses.calls": calls("query.witnesses"),
        "query.witnesses_s": self_s("query.witnesses"),
        "query.join.columnar_calls": c("query.join.columnar_calls"),
        "query.join.reference_calls": c("query.join.reference_calls"),
        "structure.classify.calls": calls("structure.classify"),
        "structure.classify_s": self_s("structure.classify"),
        "resilience.dispatch.hit_ratio": _ratio(
            c("resilience.dispatch.hits"),
            c("resilience.dispatch.hits") + c("resilience.dispatch.misses"),
        ),
        "planner.plan.calls": calls("planner.plan"),
        "planner.plan_s": self_s("planner.plan"),
        "witness.build.calls": calls("witness.build"),
        "witness.build_s": self_s("witness.build"),
        "witness.enumerate_s": c("witness.enumerate_s"),
        "witness.reduce_s": c("witness.reduce_s"),
        "witness.tuples_kept_ratio": _ratio(
            c("witness.tuples_final"), c("witness.tuples_raw")
        ),
        "witness.witnesses_kept_ratio": _ratio(
            c("witness.witnesses_final"), c("witness.witnesses_raw")
        ),
        "witness.structure_cache.hit_ratio": _ratio(
            c("witness.structure_cache.hits"),
            c("witness.structure_cache.hits") + c("witness.structure_cache.misses"),
        ),
        "witness.cache_key_s": self_s("witness.cache_key"),
        "db.canonical_s": self_s("db.canonical"),
        "witness.result_cache.get_s": self_s("witness.result_cache.get"),
        "witness.result_cache.put_s": self_s("witness.result_cache.put"),
        "witness.result_cache.hit_ratio": _ratio(
            c("witness.result_cache.hits"), c("witness.result_cache.gets")
        ),
        "resilience.solve_s": self_s("resilience.solve"),
        "resilience.flow.min_cut.calls": calls("resilience.flow.min_cut"),
        "resilience.flow.min_cut_s": self_s("resilience.flow.min_cut"),
        "resilience.flow.edges_mean": _ratio(
            c("resilience.flow.edges"), calls("resilience.flow.min_cut")
        ),
        "resilience.flow.build_s": self_s("resilience.flow"),
        "resilience.exact.calls": calls("resilience.exact"),
        "resilience.exact_s": self_s("resilience.exact"),
        "resilience.anytime.calls": calls("resilience.anytime"),
        "resilience.anytime_s": self_s("resilience.anytime"),
        "resilience.anytime.intervals_closed": sum(
            p.extra.get("intervals_closed", 0) for p in traced
        ),
        "resilience.anytime.gap_total": sum(p.extra.get("gap_total", 0) for p in traced),
        "core.batch.calls": calls("core.batch"),
        "core.batch_s": self_s("core.batch"),
        "core.batch.unique_ratio": _ratio(
            c("core.batch.unique_pairs"), c("core.batch.pairs")
        ),
        "serving.decode_s": self_s("serving.decode"),
        "serving.handle_s": self_s("serving.handle"),
        "serving.encode_s": self_s("serving.encode"),
        "serving.http_s": self_s("serving.request"),
        "serving.cache_hits_total": c("serving.cache_hits_total"),
        "serving.coalesced_total": c("serving.coalesced_total"),
        "serving.transport_s": max(
            0.0,
            table.get("client.transport", {}).get("total_s", 0.0)
            - (report or {}).get("request_s", 0.0),
        ),
        "client.encode_s": self_s("client.encode"),
        "client.decode_s": self_s("client.decode"),
        "ijp.sweep_s": self_s("ijp.sweep"),
        "ijp.space.enumerated": c("ijp.space.enumerated"),
        "ijp.space.pruned_ratio": _ratio(c("ijp.space.pruned"), c("ijp.space.covered")),
        "ijp.screen_s": self_s("ijp.screen"),
        "ijp.probe.calls": c("ijp.space.probes"),
        "ijp.probe_s": self_s("ijp.probe"),
        "ijp.probe_survival": _ratio(c("ijp.space.probes"), c("ijp.space.candidates")),
        "trace.coverage_frac": coverage,
        "trace.overhead_frac": _ratio(
            statistics.median(x for p in traced for x in p.latencies),
            statistics.median(x for p in untraced for x in p.latencies),
        ) - 1.0,
    })
    rows = [(key, metrics[key], unit, "") for key, unit in PER_LAYER]
    return rows, metrics, attempted, failed, messages


def run_all(args) -> int:
    """Run every workload, each in its own interpreter so that one
    workload's traced wrappers or caches never reach the next, and echo
    each table; the last line sums the four results."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", help="a workload name, or 'all' for every one"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import_s = _import_program()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        rows, metrics, attempted, failed, messages = run_traced(
            args.workload, args.seed, import_s
        )
        units = dict(PER_LAYER)
    else:
        rows, metrics, attempted, failed, messages = run_untraced(
            args.workload, args.seed, args.seconds
        )
        units = dict(END_TO_END)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for label, value, unit, note in rows:
        shown = f"{value:14.6g}" if isinstance(value, (int, float)) else f"{value:>14s}"
        print(f"  {label:38s} {shown} {unit:6s} {note}")
    for message in messages[:20]:
        print(f"  CHECK FAILED: {message}")
    if len(messages) > 20:
        print(f"  ... and {len(messages) - 20} more failed checks")
    print(json.dumps({
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
