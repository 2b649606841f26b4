"""Memoized witness structures and the persistent result cache.

Building a :class:`~repro.witness.structure.WitnessStructure` (the
Section 2 hitting-set view of resilience) is the dominant cost of an
exact solve (full witness enumeration plus the
reduction fixpoint), and the benchmark suites solve the same
(query, database) pair repeatedly — dispatch vs. cross-check, BnB vs.
ILP, batch reruns.  :func:`witness_structure` keys a small LRU on the
database's :meth:`~repro.db.database.Database.canonical_form` and the
query's :meth:`~repro.query.cq.ConjunctiveQuery.canonical_signature`,
so mutated databases (or flag changes) miss the cache instead of
returning stale structures.

:class:`ResultCache` extends the same idea across process lifetimes: a
content-hash-keyed on-disk store of finished *results* (exact values
with their minimum contingency sets, Definition 1, or certified
intervals from the bounded tiers), so repeated CLI / benchmark
invocations skip solved instances entirely.  Keys cover the full
database contents, the query signature, the solving tier and budget,
and a schema salt — anything that could change the answer changes the
key, so invalidation is automatic (see ``docs/parallelism.md`` for the
exact key semantics).

:class:`InFlightRegistry` is the *in-flight* complement the serving
tier (:mod:`repro.serving`) builds on: identical concurrent requests —
same :func:`pair_cache_key` — share one solve instead of racing the
result cache, which the determinism contract makes safe (equal keys
mean equal answers, so any requester may consume the leader's result).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import DatabaseIndex
from repro.witness.structure import WitnessStructure

_MAXSIZE = 128
_cache: "OrderedDict[Tuple[frozenset, frozenset, bool, bool], WitnessStructure]" = (
    OrderedDict()
)
_hits = 0
_misses = 0
# The serving tier calls witness_structure from many handler threads at
# once; OrderedDict reordering/eviction is not atomic, so every cache
# touch happens under this lock (builds themselves run outside it).
_cache_lock = threading.RLock()


def witness_structure(
    database: Database,
    query: ConjunctiveQuery,
    reduce: bool = True,
    index: Optional[DatabaseIndex] = None,
    weighted: bool = False,
) -> WitnessStructure:
    """The (cached) witness structure of a (query, database) pair.

    The key covers the full database contents (including any non-unit
    endogenous tuple costs, via the canonical form) plus the
    ``weighted`` flag — a weighted build runs the cost-aware
    kernelization, so it never aliases an unweighted build of the same
    instance.  The cache is safe under mutation: any change to tuples,
    flags, or costs produces a fresh build.  ``index`` is only
    consulted on a miss.  Thread-safe; concurrent misses on the same
    key may build twice (the builds are pure, so either result is
    correct and the last one is kept).
    """
    global _hits, _misses
    key = (
        database.canonical_form(),
        query.canonical_signature(),
        reduce,
        weighted,
    )
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _hits += 1
            _cache.move_to_end(key)
            return cached
        _misses += 1
    ws = WitnessStructure.build(
        database, query, reduce=reduce, index=index, weighted=weighted
    )
    with _cache_lock:
        _cache[key] = ws
        while len(_cache) > _MAXSIZE:
            _cache.popitem(last=False)
    return ws


def clear_witness_cache() -> None:
    """Drop every cached structure (and reset the hit/miss counters)."""
    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def witness_cache_info() -> Tuple[int, int, int]:
    """``(hits, misses, currsize)`` — mirrors ``lru_cache.cache_info``."""
    with _cache_lock:
        return _hits, _misses, len(_cache)


# ---------------------------------------------------------------------------
# Persistent result cache
# ---------------------------------------------------------------------------

# Bumped whenever the stored payload layout or the key semantics change;
# old entries then simply never match and age out.  Schema 2: keys gained
# the ``weighted`` flag and per-tuple cost text (weighted resilience) —
# every schema-1 entry is invalidated wholesale rather than risking a
# unit-cost key colliding with a weighted one.
CACHE_SCHEMA = 2


def _canonical_pair_text(database: Database, query: ConjunctiveQuery) -> str:
    """A deterministic textual form of one (database, query) pair.

    Built from sorted relation declarations and sorted tuple reprs (the
    same repr-based total order as :meth:`DBTuple.sort_key`), plus the
    sorted atom signatures of the query — no ``hash()`` anywhere, so the
    text is stable across processes and interpreter runs regardless of
    ``PYTHONHASHSEED``.  Non-unit endogenous tuple costs contribute a
    ``$costs`` segment per relation (exogenous costs are never charged,
    so they are excluded), keeping all-unit databases textually
    identical whether or not anyone ever touched the cost API.
    """
    return database.canonical_text() + "#" + _canonical_query_text(query)


def _canonical_query_text(query: ConjunctiveQuery) -> str:
    """The query segment of the pair text: sorted atom signatures."""
    return ";".join(
        sorted(
            f"{a.relation}({','.join(a.args)}){'^x' if a.exogenous else ''}"
            for a in query.atoms
        )
    )


def pair_cache_key(
    database: Database,
    query: ConjunctiveQuery,
    mode: str = "exact",
    method: Optional[str] = None,
    budget=None,
    weighted: bool = False,
) -> str:
    """The content-hash key one solved result is stored under.

    SHA-256 over the canonical pair text plus every parameter that can
    change the result: the solving tier, a forced backend, the anytime
    budget, the ``weighted`` objective flag, and :data:`CACHE_SCHEMA`.
    Equal-content databases produce equal keys; any tuple, flag, cost,
    or parameter change produces a different key (which is the entire
    invalidation story).

    ``budget`` accepts everything the solvers do — ``None``, a bare
    number of seconds, or a :class:`~repro.resilience.types.Budget` —
    and is normalized first, so ``budget=2.5`` and
    ``Budget(time_limit=2.5)`` share one key while distinct budgets
    never collide.
    """
    time_limit = node_limit = None
    if budget is not None:
        # Imported here: repro.resilience.types imports this package.
        from repro.resilience.types import Budget

        budget = Budget.coerce(budget)
        time_limit = budget.time_limit
        node_limit = budget.node_limit
    # Fed to the hash segment by segment — never concatenated into one
    # O(|D|) ``material`` string.  The database segment comes from the
    # epoch-memoized Database.canonical_text(), so a repeat lookup on an
    # unmutated database neither rebuilds nor copies the tuple text.
    # Byte-identical to hashing
    # "\x1f".join([...fixed segments..., _canonical_pair_text(db, q)]),
    # which the golden-key suite pins.
    hasher = hashlib.sha256()
    for segment in (
        f"schema={CACHE_SCHEMA}",
        f"mode={mode}",
        f"method={method}",
        f"time_limit={time_limit!r}",
        f"node_limit={node_limit!r}",
        f"weighted={bool(weighted)}",
    ):
        hasher.update(segment.encode())
        hasher.update(b"\x1f")
    hasher.update(database.canonical_text().encode())
    hasher.update(b"#")
    hasher.update(_canonical_query_text(query).encode())
    return hasher.hexdigest()


def component_cache_key(
    witness_sets,
    mode: str = "exact",
    backend: Optional[str] = None,
) -> str:
    """The content-hash key one solved witness *component* is stored under.

    Per-component minimum hitting sets (and certified per-component
    intervals) are pure functions of the component's witness sets — the
    database and query only matter through them — so the key hashes just
    the sets (as sorted fact reprs, the same process-stable text as
    :func:`pair_cache_key`), the solving tier, the backend that will run
    (exact tier only; ``bnb`` and ``ilp`` pick different optimal sets),
    and :data:`CACHE_SCHEMA`.  :class:`repro.incremental.IncrementalSession`
    keys its per-component store this way, which is what lets witness
    components untouched by an update hit the cache across database
    states (and across sessions sharing one ``cache_dir``).
    """
    # Streaming equivalent of hashing "\x1f".join([...segments..., rows])
    # where rows is the ","-join of the sorted per-set texts: the per-set
    # strings must exist to be sorted, but the joined component text and
    # the final material string are never materialized.
    hasher = hashlib.sha256()
    for segment in (
        f"schema={CACHE_SCHEMA}",
        "granularity=component",
        f"mode={mode}",
        f"backend={backend}",
    ):
        hasher.update(segment.encode())
        hasher.update(b"\x1f")
    set_texts = sorted(
        "{" + ";".join(sorted(repr(t) for t in s)) + "}"
        for s in witness_sets
    )
    for i, text in enumerate(set_texts):
        if i:
            hasher.update(b",")
        hasher.update(text.encode())
    return hasher.hexdigest()


class ResultCache:
    """A persistent, content-hash-keyed store of solved results.

    One entry per :func:`pair_cache_key`, stored as
    ``<cache_dir>/<key>.pkl`` — a pickle of ``(CACHE_SCHEMA, key,
    result)``.  Writes are atomic (temp file + ``os.replace``), and a
    read validates the schema and the embedded key before trusting the
    payload: torn, truncated, or otherwise corrupted entries are
    deleted and reported as misses, then transparently recomputed and
    rewritten by the caller.

    The store is safe to share between concurrent processes — even two
    writers landing on the *same* key: each ``os.replace`` installs a
    complete entry, so the survivor is whichever finished last, and
    results for equal keys are identical by construction (exact tier)
    or equally valid certified intervals (bounded tiers).  Two
    guarantees make this hold under load:

    * in-progress temp files use a ``.part`` suffix, outside the
      ``*.pkl`` entry namespace, so they are never read, counted, or
      cleared as entries mid-write;
    * corrupted-entry eviction is *guarded*: the bad file is unlinked
      only if it is still the same file that failed validation
      (``st_ino``/``st_dev`` comparison), so a reader that lost a race
      with a concurrent valid rewrite never deletes the fresh entry.
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def get(self, key: str):
        """The stored result for ``key``, or ``None`` on a miss.

        Any failure to read or validate the entry (missing file, torn
        write, schema drift, unpicklable garbage) is a miss; the bad
        file is removed so the rewrite starts clean.
        """
        path = self._path(key)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            with handle:
                stamp = os.fstat(handle.fileno())
                schema, stored_key, result = pickle.load(handle)
            if schema != CACHE_SCHEMA or stored_key != key:
                raise ValueError("cache entry does not match its key")
        except Exception:
            self.misses += 1
            self._evict_if_unchanged(path, stamp)
            return None
        self.hits += 1
        return result

    def _evict_if_unchanged(self, path: Path, stamp) -> None:
        """Unlink ``path`` only if it is still the file ``stamp`` was
        taken from.

        Between a failed read and the eviction, a concurrent writer may
        have atomically replaced the entry with a valid one; deleting
        blindly would throw that fresh result away (and, with a reader
        hammering the key, could starve the cache indefinitely).  A
        replaced entry is a different inode, so the comparison is exact
        on POSIX filesystems.
        """
        try:
            current = os.stat(path)
        except OSError:
            return
        if (current.st_ino, current.st_dev) == (stamp.st_ino, stamp.st_dev):
            try:
                path.unlink()
            except OSError:
                pass

    def put(self, key: str, result) -> None:
        """Store ``result`` under ``key`` atomically.

        The temp file's ``.part`` suffix keeps half-written entries out
        of the ``*.pkl`` namespace that :meth:`get`, :meth:`__len__`,
        and :meth:`clear` operate on — a concurrent ``clear()`` cannot
        unlink an entry mid-write out from under ``os.replace``.
        """
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump((CACHE_SCHEMA, key, result), handle)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))

    def clear(self) -> None:
        """Delete every entry (and reset the hit/miss counters).

        Also sweeps stale ``.part`` temp files left behind by writers
        that died mid-:meth:`put`.
        """
        for pattern in ("*.pkl", ".tmp-*.part"):
            for path in self.cache_dir.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        self.hits = 0
        self.misses = 0

    def info(self) -> Tuple[int, int, int]:
        """``(hits, misses, currsize)`` — mirrors ``lru_cache.cache_info``."""
        return self.hits, self.misses, len(self)

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.cache_dir)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


# ---------------------------------------------------------------------------
# In-flight request coalescing
# ---------------------------------------------------------------------------


class InFlightGroup:
    """One in-flight solve and the requests waiting on it.

    Created by :meth:`InFlightRegistry.lease`; consumers block on
    :meth:`InFlightRegistry.result`.  The outcome slots are written
    exactly once (by ``resolve``/``fail``) before ``done`` is set, so
    readers need no further synchronization after the event fires.
    """

    __slots__ = ("key", "done", "followers", "result", "error")

    def __init__(self, key: str):
        self.key = key
        self.done = threading.Event()
        self.followers = 0
        self.result = None
        self.error: Optional[BaseException] = None


class InFlightRegistry:
    """Coalesces identical concurrent solves onto one computation.

    Requests for the same :func:`pair_cache_key` are provably the same
    problem — the key covers the database contents, query signature,
    tier, backend, and budget, and every tier is deterministic for a
    fixed key — so while one solve is in flight, later arrivals wait
    for its result instead of recomputing (Definition 1's decision
    problem answered once per distinct instance, however many clients
    ask).

    The first caller to :meth:`lease` a key becomes the *leader* and
    must eventually call :meth:`resolve` or :meth:`fail`; both remove
    the group **before** publishing the outcome, so a failed group
    never poisons the key — the next request simply starts a fresh
    solve.  All methods are thread-safe.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._groups: dict = {}

    def lease(self, key: str) -> Tuple[bool, InFlightGroup]:
        """Join (or start) the in-flight group for ``key``.

        Returns ``(leader, group)``: the leader runs the solve and owes
        the group a :meth:`resolve`/:meth:`fail`; followers pass the
        group to :meth:`result` and block.
        """
        with self._lock:
            group = self._groups.get(key)
            if group is not None:
                group.followers += 1
                return False, group
            group = InFlightGroup(key)
            self._groups[key] = group
            return True, group

    def resolve(self, key: str, result) -> None:
        """Publish the leader's result to every waiter and retire the group."""
        with self._lock:
            group = self._groups.pop(key, None)
        if group is not None:
            group.result = result
            group.done.set()

    def fail(self, key: str, error: BaseException) -> None:
        """Propagate the leader's failure to every waiter and retire the
        group (so the next identical request retries from scratch)."""
        with self._lock:
            group = self._groups.pop(key, None)
        if group is not None:
            group.error = error
            group.done.set()

    def result(self, group: InFlightGroup, timeout: Optional[float] = None):
        """Block until ``group`` resolves; re-raise the leader's error."""
        if not group.done.wait(timeout):
            raise TimeoutError(
                f"coalesced solve for {group.key[:16]}… did not finish "
                f"within {timeout}s"
            )
        if group.error is not None:
            raise group.error
        return group.result

    def waiters(self) -> int:
        """Total followers currently blocked across all groups."""
        with self._lock:
            return sum(g.followers for g in self._groups.values())

    def __len__(self) -> int:
        """Number of distinct solves currently in flight."""
        with self._lock:
            return len(self._groups)
