"""Launch a ``repro`` HTTP server for the ``served`` workload.

    python3 perfbench/serve.py --cache-dir DIR --out FILE [--trace]

Warms up, starts a :class:`repro.serving.ResilienceServer` on an
ephemeral localhost port with a persistent result cache in ``DIR``, and
prints one JSON line ``{"address", "import_s", "warmup_s"}`` when it is
ready.  It serves until a line arrives on standard input (or standard
input closes), then stops and writes its peak RSS — and, with
``--trace``, the server-side span table and counters — to ``FILE``.
With ``--trace`` the spans are installed before the warm-up, so the
warm-up's dispatch plans are built under them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0
    import spans
    import workloads
    from repro.serving import ResilienceServer

    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec, spans.ENGINE_TARGETS + spans.SERVER_TARGETS)
        before = workloads.Workload._counters()
    t0 = time.perf_counter()
    workloads.warm_up(workloads.DEFAULT_QUERIES)
    warmup_s = time.perf_counter() - t0

    server = ResilienceServer(port=0, cache_dir=args.cache_dir)
    server.start()
    try:
        print(
            json.dumps(
                {"address": server.address, "import_s": import_s, "warmup_s": warmup_s}
            ),
            flush=True,
        )
        sys.stdin.readline()
    finally:
        server.stop()

    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    }
    if rec is not None:
        after = workloads.Workload._counters()
        for key, value in after.items():
            rec.add(key, value - before[key])
        report["table"] = rec.table()
        report["counts"] = dict(rec.counts)
        report["request_s"] = report["table"].get("serving.request", {}).get(
            "total_s", 0.0
        )
        rec.dump(args.out + ".spans.json")
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
