"""Resilience-as-a-service: the HTTP daemon.

The server turns the deterministic solver stack into a shared
primitive: many clients POST resilience instances (Definition 1's
``(D, q, k)`` inputs, generalized to the three solving tiers) and the
daemon answers them with exactly the bytes a direct
:func:`repro.resilience.solver.solve` call would produce.  Three
mechanisms make that safe and fast under concurrency:

* **Request coalescing** — identical in-flight requests (equal
  :func:`~repro.witness.cache.pair_cache_key`, which covers database
  contents, query signature, tier, backend, and budget) share one
  solve through an :class:`~repro.witness.cache.InFlightRegistry`;
  followers wait on the leader's published result.  Determinism of
  every tier is what licenses this: equal keys imply equal answers.
* **Admission control** — oversized exact requests are rerouted to
  certified anytime intervals under server-owned budgets, and load
  beyond the concurrency gate is rejected with 429 + ``Retry-After``
  (see :mod:`repro.serving.admission`).
* **Result caching** — an optional persistent
  :class:`~repro.witness.cache.ResultCache` serves repeat instances
  across server restarts; the in-flight registry handles the window
  *before* a result lands in the cache.

Transport is pure-stdlib :class:`http.server.ThreadingHTTPServer`
(one thread per connection) — no third-party event loop is required
anywhere in the serving path.  Anytime solves may opt into a chunked
``application/x-ndjson`` stream of certified ``[lb, ub]`` intervals as
the branch-and-bound tightens them, terminated by the final result
frame.

The request/solve logic lives in :class:`ServingApp`, independent of
the transport, so the test suite can drive coalescing and fault paths
deterministically in-process; :class:`ResilienceServer` binds it to a
socket.
"""

from __future__ import annotations

import json
import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.core.analyzer import solve_batch
from repro.parallel.executor import WorkerPool
from repro.resilience.solver import solve
from repro.serving.admission import AdmissionDecision, AdmissionPolicy
from repro.serving.wire import (
    WIRE_SCHEMA,
    SolveRequest,
    WireError,
    budget_to_spec,
    database_from_spec,
    encode_result,
    query_from_spec,
)
from repro.witness.cache import InFlightRegistry, ResultCache, pair_cache_key

# Default request-body ceiling: large enough for every benchmark
# database, small enough that a hostile body cannot exhaust memory.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

# How long a coalesced follower waits for its leader before giving up
# with 504.  Generous: the leader runs the same instance the follower
# would have, so a timeout here means the solve itself is stuck.
DEFAULT_COALESCE_TIMEOUT = 300.0


class ServingError(Exception):
    """Base for errors that map to a specific HTTP status."""

    status = 500

    def __init__(self, message: str, **extra: Any):
        super().__init__(message)
        self.extra = extra


class CapacityError(ServingError):
    """Admission gate refused the request (HTTP 429, retryable)."""

    status = 429


class BatchTooLargeError(ServingError):
    """Batch exceeds ``max_batch_items`` (HTTP 413)."""

    status = 413


class CoalesceTimeoutError(ServingError):
    """A follower's leader did not publish in time (HTTP 504)."""

    status = 504


class SolveFailedError(ServingError):
    """The solver raised; reported to every coalesced waiter (HTTP 500)."""

    status = 500


class ServerMetrics:
    """Thread-safe counters and gauges exposed at ``GET /metrics``.

    ``active_solves`` counts solves actually *running* (coalesced
    followers and cache hits run nothing, so they never touch it);
    it is the gauge admission control gates on.  ``plans`` histograms
    the solves by :class:`~repro.planner.Plan` signature, so an
    operator can see *how* the server is solving, not just how often.
    """

    _COUNTERS = (
        "requests_total",
        "solves_total",
        "coalesced_total",
        "cache_hits_total",
        "cache_misses_total",
        "rerouted_total",
        "rejected_total",
        "errors_total",
        "streams_total",
        "batch_requests_total",
        "batch_pairs_total",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self._COUNTERS}
        self._plans: Dict[str, int] = {}
        self._active = 0

    def incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] += n

    def record_plan(self, signature: str, n: int = 1) -> None:
        """Count one (or ``n``) solve(s) run under a plan signature."""
        with self._lock:
            self._plans[signature] = self._plans.get(signature, 0) + n

    def solve_started(self) -> None:
        with self._lock:
            self._active += 1
            self._counts["solves_total"] += 1

    def solve_finished(self) -> None:
        with self._lock:
            self._active -= 1

    def active_solves(self) -> int:
        with self._lock:
            return self._active

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            out: Dict[str, Any] = dict(self._counts)
            out["active_solves"] = self._active
            out["plans"] = dict(sorted(self._plans.items()))
            return out


class ServingApp:
    """Transport-independent request handling: decode, admit, coalesce,
    solve, encode.

    Parameters
    ----------
    cache_dir:
        Directory for the persistent :class:`ResultCache`; ``None``
        disables cross-restart caching (coalescing still applies).
    policy:
        :class:`AdmissionPolicy`; defaults to
        :meth:`AdmissionPolicy.from_env`.
    workers:
        Process-pool size for ``/solve_batch``.  The pool is created
        lazily and reused across batches (:class:`WorkerPool`);
        ``workers <= 1`` solves batches in the request thread.
    solve_fn:
        Override for the single-instance solver — signature
        ``(database, query, mode=..., method=..., budget=...,
        on_interval=...)``.  The test suite injects gated/exploding
        solvers here to drive coalescing and fault paths
        deterministically; production servers keep the default
        (:func:`repro.resilience.solver.solve`).
    coalesce:
        Disable to measure the uncoalesced baseline (benchmarks only).
    """

    def __init__(
        self,
        cache_dir=None,
        policy: Optional[AdmissionPolicy] = None,
        workers: int = 1,
        solve_fn=None,
        coalesce: bool = True,
        coalesce_timeout: float = DEFAULT_COALESCE_TIMEOUT,
    ):
        self.cache_dir = cache_dir
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.registry = InFlightRegistry()
        self.metrics = ServerMetrics()
        self.policy = policy if policy is not None else AdmissionPolicy.from_env()
        self.workers = max(1, int(workers))
        self.pool = WorkerPool(self.workers) if self.workers > 1 else None
        self.coalesce = coalesce
        self.coalesce_timeout = coalesce_timeout
        self._solve_fn = solve_fn if solve_fn is not None else solve

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        if self.pool is not None:
            self.pool.shutdown()

    @staticmethod
    def decode(payload: Any) -> SolveRequest:
        """Decode one ``/solve`` payload (:func:`~repro.serving.wire.decode_request`)."""
        from repro.serving.wire import decode_request

        return decode_request(payload)

    # ------------------------------------------------------------------
    # /solve
    # ------------------------------------------------------------------
    def handle_solve(self, request: SolveRequest) -> Dict[str, Any]:
        """Admit, (maybe) coalesce, solve, and encode one request."""
        decision = self._admit(request)
        key = pair_cache_key(
            request.database,
            request.query,
            mode=decision.mode,
            method=decision.method,
            budget=decision.budget,
            weighted=request.weighted,
        )
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self.metrics.incr("cache_hits_total")
                return self._respond(hit, decision, coalesced=False, cache="hit")
            self.metrics.incr("cache_misses_total")

        if not self.coalesce:
            result = self._run_solve(request, decision)
            self._store(key, result)
            return self._respond(result, decision, coalesced=False, cache="miss")

        leader, group = self.registry.lease(key)
        if leader:
            try:
                result = self._run_solve(request, decision)
            except BaseException as exc:
                # Pop the group before anything else: a failure must
                # never poison the key for the next arrival.
                self.registry.fail(key, exc)
                raise
            self.registry.resolve(key, result)
            self._store(key, result)
            return self._respond(result, decision, coalesced=False, cache="miss")

        self.metrics.incr("coalesced_total")
        try:
            result = self.registry.result(group, timeout=self.coalesce_timeout)
        except TimeoutError:
            raise CoalesceTimeoutError(
                "coalesced solve did not complete within "
                f"{self.coalesce_timeout:.0f}s"
            )
        except Exception as exc:
            raise SolveFailedError(f"coalesced solve failed: {exc}")
        return self._respond(result, decision, coalesced=True, cache="coalesced")

    # ------------------------------------------------------------------
    # /solve with stream=true
    # ------------------------------------------------------------------
    def stream_solve(self, request: SolveRequest) -> Iterator[Dict[str, Any]]:
        """Yield ndjson frames for a streaming anytime solve.

        Frames are ``{"event": "interval", "seq", "lower_bound",
        "upper_bound"}`` — each a certified enclosure of the true
        resilience, monotonically tightening — followed by one
        ``{"event": "result", ...}`` (or ``{"event": "error", ...}``)
        terminal frame.  Streaming solves bypass coalescing and the
        result cache: the point of the stream is to watch *this*
        solve's trajectory.
        """
        # Validation and admission run eagerly — before the transport
        # commits a 200 and starts the chunked body — so a refused
        # stream still gets its clean 400/429.  Only the generator
        # below is lazy.
        if request.mode != "anytime":
            raise WireError("streaming requires mode='anytime'")
        decision = self._admit(request)
        self.metrics.incr("streams_total")
        return self._stream_frames(request, decision)

    def _stream_frames(
        self, request: SolveRequest, decision: AdmissionDecision
    ) -> Iterator[Dict[str, Any]]:
        frames: "queue.Queue[Tuple[str, Any]]" = queue.Queue()

        def on_interval(lb: int, ub: int) -> None:
            frames.put(("interval", (lb, ub)))

        def run() -> None:
            try:
                result = self._run_solve(request, decision, on_interval=on_interval)
            except BaseException as exc:  # delivered as the error frame
                frames.put(("error", exc))
            else:
                frames.put(("result", result))

        worker = threading.Thread(target=run, name="repro-stream-solve", daemon=True)
        worker.start()
        seq = 0
        while True:
            kind, payload = frames.get()
            if kind == "interval":
                seq += 1
                lb, ub = payload
                yield {
                    "event": "interval",
                    "seq": seq,
                    "lower_bound": lb,
                    "upper_bound": ub,
                }
            elif kind == "result":
                frame = self._respond(payload, decision, coalesced=False, cache="stream")
                frame["event"] = "result"
                yield frame
                return
            else:
                self.metrics.incr("errors_total")
                yield {"event": "error", "error": str(payload)}
                return

    # ------------------------------------------------------------------
    # /solve_batch
    # ------------------------------------------------------------------
    def handle_batch(self, payload: Any) -> Dict[str, Any]:
        """Decode and run one homogeneous batch through
        :func:`repro.core.analyzer.solve_batch` (worker pool reused
        across calls).

        Payload: ``{"wire_schema", "pairs": [{"database", "query"},
        ...], "mode"?, "method"?, "budget"?, "weighted"?}`` — one tier
        (and one objective) shared by the whole batch, results in input
        order.
        """
        if not isinstance(payload, dict):
            raise WireError("batch request must be an object")
        if payload.get("wire_schema") != WIRE_SCHEMA:
            raise WireError(
                f"unsupported wire_schema {payload.get('wire_schema')!r} "
                f"(this server speaks {WIRE_SCHEMA})"
            )
        pairs_spec = payload.get("pairs")
        if not isinstance(pairs_spec, list) or not pairs_spec:
            raise WireError("batch 'pairs' must be a non-empty array")
        if len(pairs_spec) > self.policy.max_batch_items:
            raise BatchTooLargeError(
                f"batch of {len(pairs_spec)} exceeds the "
                f"{self.policy.max_batch_items}-pair limit"
            )
        if self.metrics.active_solves() >= self.policy.max_concurrent_solves:
            self.metrics.incr("rejected_total")
            raise CapacityError("server at capacity; retry the batch later")
        mode = payload.get("mode", "exact")
        method = payload.get("method")
        from repro.serving.wire import MODES, METHODS, budget_from_spec

        if mode not in MODES:
            raise WireError(f"unknown mode {mode!r}")
        if method not in METHODS:
            raise WireError(f"unknown method {method!r}")
        weighted = payload.get("weighted", False)
        if not isinstance(weighted, bool):
            raise WireError("'weighted' must be a boolean")
        budget = budget_from_spec(payload.get("budget"))
        pairs = []
        for i, pair_spec in enumerate(pairs_spec):
            if not isinstance(pair_spec, dict):
                raise WireError(f"pair {i} must be an object")
            try:
                db = database_from_spec(pair_spec.get("database"))
                q = query_from_spec(pair_spec.get("query"))
            except WireError as exc:
                raise WireError(f"pair {i}: {exc}") from exc
            pairs.append((db, q))

        # Batch-level admission: one oversized pair reroutes the whole
        # homogeneous batch to the anytime tier (results stay certified).
        requests = [
            SolveRequest(db, q, mode=mode, method=method, budget=budget,
                         weighted=weighted)
            for db, q in pairs
        ]
        oversized = [
            i for i, r in enumerate(requests) if self.policy.is_oversized(r)
        ]
        rerouted = False
        tier = "interactive"
        if oversized and mode != "anytime":
            mode, method = "anytime", None
            budget = self.policy.reroute_budget
            rerouted, tier = True, "batch"
            self.metrics.incr("rerouted_total")

        self.metrics.incr("batch_requests_total")
        self.metrics.incr("batch_pairs_total", len(pairs))
        self.metrics.solve_started()
        try:
            batch = solve_batch(
                pairs,
                mode=mode,
                method=method,
                budget=budget,
                workers=self.workers,
                pool=self.pool,
                cache_dir=self.cache_dir,
                weighted=weighted,
            )
        finally:
            self.metrics.solve_finished()
        stats = batch.stats
        for signature, count in sorted(stats.plans.items()):
            self.metrics.record_plan(signature, count)
        return {
            "wire_schema": WIRE_SCHEMA,
            "results": [encode_result(r) for r in batch.results],
            "mode": mode,
            "tier": tier,
            "rerouted": rerouted,
            "stats": {
                "pairs": stats.pairs,
                "unique_pairs": stats.unique_pairs,
                "workers": stats.workers,
                "shards": stats.shards,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "time_total": stats.time_total,
                "plans": dict(sorted(stats.plans.items())),
            },
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, request: SolveRequest) -> AdmissionDecision:
        decision = self.policy.admit(request, self.metrics.active_solves())
        if not decision.accepted:
            self.metrics.incr("rejected_total")
            raise CapacityError(decision.reason)
        if decision.rerouted:
            self.metrics.incr("rerouted_total")
        return decision

    def _run_solve(
        self,
        request: SolveRequest,
        decision: AdmissionDecision,
        on_interval=None,
    ):
        from repro.planner import plan_instance

        plan = plan_instance(
            request.database,
            request.query,
            mode=decision.mode,
            budget=decision.budget,
            weighted=request.weighted,
        )
        self.metrics.record_plan(plan.signature())
        self.metrics.solve_started()
        try:
            kwargs: Dict[str, Any] = {
                "mode": decision.mode,
                "method": decision.method,
                "budget": decision.budget,
            }
            # Added only when set, so injected test solvers with the
            # historical signature keep working for unweighted requests.
            if request.weighted:
                kwargs["weighted"] = True
            if on_interval is not None:
                kwargs["on_interval"] = on_interval
            return self._solve_fn(request.database, request.query, **kwargs)
        finally:
            self.metrics.solve_finished()

    def _store(self, key: str, result) -> None:
        if self.cache is not None:
            self.cache.put(key, result)

    def _respond(
        self,
        result,
        decision: AdmissionDecision,
        coalesced: bool,
        cache: str,
    ) -> Dict[str, Any]:
        payload = {
            "wire_schema": WIRE_SCHEMA,
            "result": encode_result(result),
            "mode": decision.mode,
            "tier": decision.tier,
            "rerouted": decision.rerouted,
            "coalesced": coalesced,
            "cache": cache,
        }
        if decision.rerouted:
            payload["reason"] = decision.reason
            payload["budget"] = budget_to_spec(decision.budget)
        return payload


class _Handler(BaseHTTPRequestHandler):
    """stdlib request handler: routing, body limits, error mapping."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"

    @property
    def app(self) -> ServingApp:
        return self.server.app  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # servers are quiet; metrics carry the signal

    def _send_json(self, status: int, obj: Dict[str, Any], headers=()) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str, headers=()) -> None:
        self.app.metrics.incr("errors_total")
        self._send_json(status, {"error": message, "status": status}, headers)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after an error response."""
        length = self.headers.get("Content-Length")
        if length is None:
            self._send_error_json(411, "Content-Length required")
            return None
        try:
            length = int(length)
        except ValueError:
            self._send_error_json(400, "malformed Content-Length")
            return None
        limit = self.server.max_body_bytes  # type: ignore[attr-defined]
        if length > limit:
            # The client would keep sending a body we refuse to read;
            # answer and drop the connection rather than stall.
            self.close_connection = True
            self._send_error_json(
                413, f"request body of {length} bytes exceeds the {limit}-byte limit"
            )
            return None
        return self.rfile.read(length)

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:
        self.app.metrics.incr("requests_total")
        if self.path == "/health":
            from repro import __version__

            self._send_json(
                200,
                {
                    "status": "ok",
                    "version": __version__,
                    "wire_schema": WIRE_SCHEMA,
                },
            )
        elif self.path == "/metrics":
            snapshot = self.app.metrics.snapshot()
            snapshot["in_flight_groups"] = len(self.app.registry)
            snapshot["in_flight_waiters"] = self.app.registry.waiters()
            self._send_json(200, snapshot)
        else:
            self._send_error_json(404, f"no such endpoint {self.path!r}")

    def do_POST(self) -> None:
        self.app.metrics.incr("requests_total")
        if self.path not in ("/solve", "/solve_batch"):
            self._send_error_json(404, f"no such endpoint {self.path!r}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            self._send_error_json(400, "request body is not valid JSON")
            return
        try:
            if self.path == "/solve_batch":
                self._send_json(200, self.app.handle_batch(payload))
                return
            request = self.app.decode(payload)
            if request.stream:
                self._stream(request)
            else:
                self._send_json(200, self.app.handle_solve(request))
        except WireError as exc:
            self._send_error_json(400, str(exc))
        except CapacityError as exc:
            self._send_error_json(429, str(exc), headers=[("Retry-After", "1")])
        except ServingError as exc:
            self._send_error_json(exc.status, str(exc))
        except Exception as exc:  # solver bugs and the like: clean 500
            self._send_error_json(500, f"solve failed: {exc}")

    def _stream(self, request: SolveRequest) -> None:
        """Chunked ``application/x-ndjson`` interval stream."""
        frames = self.app.stream_solve(request)  # raises (400/429) pre-headers
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for frame in frames:
                line = (json.dumps(frame) + "\n").encode("utf-8")
                self.wfile.write(b"%x\r\n" % len(line) + line + b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except OSError:
            # Client hung up mid-stream; the solve thread finishes on
            # its own and the connection is simply torn down.
            self.close_connection = True


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # Requests are independent; a slow client must not wedge a worker
    # thread forever.
    timeout = 60


class ResilienceServer:
    """The socket-facing daemon: a :class:`ServingApp` behind
    :class:`http.server.ThreadingHTTPServer`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`), which is what the tests and the benchmark do.  Use
    as a context manager, or :meth:`start`/:meth:`stop` explicitly;
    :meth:`serve_forever` blocks (the CLI path).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir=None,
        policy: Optional[AdmissionPolicy] = None,
        workers: int = 1,
        solve_fn=None,
        coalesce: bool = True,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        coalesce_timeout: float = DEFAULT_COALESCE_TIMEOUT,
    ):
        self.app = ServingApp(
            cache_dir=cache_dir,
            policy=policy,
            workers=workers,
            solve_fn=solve_fn,
            coalesce=coalesce,
            coalesce_timeout=coalesce_timeout,
        )
        self._httpd = _Server((host, port), _Handler)
        self._httpd.app = self.app  # type: ignore[attr-defined]
        self._httpd.max_body_bytes = max_body_bytes  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ResilienceServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serving",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI path)."""
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self.app.close()

    def stop(self) -> None:
        """Shut down the listener, join the thread, release the pool."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.app.close()

    def __enter__(self) -> "ResilienceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"ResilienceServer({self.address}, workers={self.app.workers})"
