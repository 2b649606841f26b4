"""Span recorder for the benchmark's traced run.

The recorder wraps the public entry points of each ``repro`` layer from
outside the program.  Modules bind those functions with ``from ...
import``, so a function is replaced at *every* module that holds it,
not only where it is defined.  Each call records one span: name, start,
end, parent and thread.  A span's self time is its duration minus the
time its child spans cover.  Counters that the public APIs already
return (``ReductionStats``, ``BatchStats``, ``SpaceSweepStats``, flow
network sizes) are added at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    """Spans and counters kept in memory until :meth:`dump`."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Finished spans: [id, name_id, start_ns, end_ns, parent_id,
        # thread_id, child_ns].  list.append is atomic, so server
        # threads may finish spans concurrently.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        # Cleared to stop recording; the wrappers then only pass through.
        self.active = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._count_lock:
            self.counts[name] += value

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None):
        """``fn`` recording one ``name`` span per call; ``note(rec,
        args, kwargs, result)`` adds counters from the result."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = stack_of()
            row = [next(ids), name_id, 0, 0, stack[-1][0] if stack else -1,
                   threading.get_ident(), 0]
            stack.append(row)
            row[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = end = clock()
                stack.pop()
                if stack:
                    stack[-1][6] += end - row[2]
                spans.append(row)
            if note is not None:
                note(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        out: Dict[str, Dict[str, float]] = {}
        for _id, name_id, start, end, _parent, _tid, child in self.spans:
            entry = out.setdefault(
                self.names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child) / 1e9
        return out

    def root_seconds(self, since: int = 0) -> Dict[int, float]:
        """Per thread, the summed duration of its outermost spans among
        those finished after the first ``since``."""
        out: Dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, tid, _child in self.spans[since:]:
            if parent == -1:
                out[tid] += (end - start) / 1e9
        return dict(out)

    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["id", "name", "start_ns", "end_ns", "parent",
                                "thread", "self_ns"],
                    "spans": [
                        [i, n, s, e, p, t, e - s - c]
                        for i, n, s, e, p, t, c in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )


# ---------------------------------------------------------------------------
# Counters read from what the wrapped calls return
# ---------------------------------------------------------------------------

def _note_build(rec, args, kwargs, ws) -> None:
    s = ws.stats
    rec.add("witness.enumerate_s", s.time_enumerate)
    rec.add("witness.reduce_s", s.time_reduce)
    rec.add("witness.tuples_raw", s.tuples_raw)
    rec.add("witness.tuples_final", s.tuples_final)
    rec.add("witness.witnesses_raw", s.witnesses_raw)
    rec.add("witness.witnesses_final", s.witnesses_final)


def _note_min_cut(rec, args, kwargs, result) -> None:
    rec.add("resilience.flow.edges", args[0].graph.number_of_edges())


def _note_batch(rec, args, kwargs, batch) -> None:
    rec.add("core.batch.pairs", batch.stats.pairs)
    rec.add("core.batch.unique_pairs", batch.stats.unique_pairs)


def _note_cache_get(rec, args, kwargs, result) -> None:
    rec.add("witness.result_cache.gets", 1)
    if result is not None:
        rec.add("witness.result_cache.hits", 1)


def _note_sweep(rec, args, kwargs, sweep) -> None:
    s = sweep.stats
    for field in ("covered", "enumerated", "pruned", "candidates", "probes"):
        rec.add(f"ijp.space.{field}", getattr(s, field))


_FLOW_SPECIALS = (
    "solve_qperm", "solve_qAperm", "solve_qACconf", "solve_qA3perm_R",
    "solve_qSwx3perm_R", "solve_qTS3conf", "solve_qz3",
)

# (span name, module, class or None, attribute, counter hook).  The
# spans of the in-process layers; CLIENT_TARGETS and SERVER_TARGETS add
# the serving tier's two sides.
ENGINE_TARGETS: List[Tuple] = [
    ("resilience.solve", "repro.resilience.solver", None, "solve", None),
    ("query.satisfies", "repro.query.evaluation", None, "satisfies", None),
    ("query.witnesses", "repro.query.evaluation", None, "witness_tuple_sets", None),
    ("structure.classify", "repro.structure.classifier", None, "classify", None),
    ("planner.plan", "repro.planner", None, "plan_instance", None),
    ("witness.build", "repro.witness.structure", "WitnessStructure", "build", _note_build),
    ("witness.cache_key", "repro.witness.cache", None, "pair_cache_key", None),
    ("witness.result_cache.get", "repro.witness.cache", "ResultCache", "get", _note_cache_get),
    ("witness.result_cache.put", "repro.witness.cache", "ResultCache", "put", None),
    ("db.canonical", "repro.db.database", "Database", "canonical_form", None),
    ("db.canonical", "repro.db.database", "Database", "canonical_text", None),
    ("resilience.flow", "repro.resilience.flow_linear", "LinearFlowSolver", "solve", None),
    ("resilience.flow.min_cut", "repro.resilience.flownet", "FlowNetwork", "min_cut", _note_min_cut),
    ("resilience.exact", "repro.resilience.exact", None, "resilience_exact", None),
    ("resilience.anytime", "repro.resilience.approx", None, "resilience_anytime", None),
    ("core.batch", "repro.core.analyzer", None, "solve_batch", _note_batch),
    ("ijp.sweep", "repro.ijp.sweep", None, "sweep_range", _note_sweep),
    ("ijp.screen", "repro.ijp.space", "PartitionSpace", "filter_leaves", None),
    ("ijp.screen", "repro.ijp.space", "PartitionSpace", "evaluate_leaf", None),
    ("ijp.probe", "repro.ijp.space", None, "certify_candidates", None),
] + [
    ("resilience.flow", "repro.resilience.flow_special", None, name, None)
    for name in _FLOW_SPECIALS
]

CLIENT_TARGETS: List[Tuple] = [
    ("client.solve", "repro.serving.client", "ServingClient", "solve", None),
    ("client.encode", "repro.serving.client", None, "encode_request", None),
    ("client.transport", "repro.serving.client", "ServingClient", "post", None),
    ("client.decode", "repro.serving.client", None, "decode_result", None),
]

SERVER_TARGETS: List[Tuple] = [
    ("serving.request", "repro.serving.server", "_Handler", "do_POST", None),
    ("serving.decode", "repro.serving.server", "ServingApp", "decode", None),
    ("serving.handle", "repro.serving.server", "ServingApp", "handle_solve", None),
    ("serving.encode", "repro.serving.server", None, "encode_result", None),
]


def _rebind_everywhere(original, replacement) -> None:
    """Replace ``original`` in every loaded ``repro`` module namespace."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder, targets) -> None:
    """Wrap every target.  Every module the targets' callers live in must
    already be imported, so that their ``from ... import`` bindings
    exist to be replaced."""
    for name, mod_name, cls_name, attr, note in targets:
        module = importlib.import_module(mod_name)
        if cls_name is None:
            original = getattr(module, attr)
            _rebind_everywhere(original, rec.wrap(name, original, note))
            continue
        cls = getattr(module, cls_name)
        static = inspect.getattr_static(cls, attr)
        if isinstance(static, classmethod):
            setattr(cls, attr, classmethod(rec.wrap(name, static.__func__, note)))
        elif isinstance(static, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(name, static.__func__, note)))
        else:
            setattr(cls, attr, rec.wrap(name, static, note))
