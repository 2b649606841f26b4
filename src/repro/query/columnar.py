"""Columnar (vectorized) witness enumeration.

The reference evaluator of :mod:`repro.query.evaluation` enumerates the
witnesses of ``D |= q`` (Section 2) with a Python backtracking join:
per-valuation dict copies, per-fact index probes, per-atom loops.  That
is the dominant cost of building a
:class:`~repro.witness.structure.WitnessStructure` on the scaling
workloads, so this module re-implements the *same* enumeration as a
vectorized hash/sort-merge join over dictionary-encoded relations:

1. :class:`ColumnarDatabase` interns every constant of the database
   into a dense integer code and stores each relation as a
   ``(n, arity)`` numpy int64 code matrix plus a parallel vector of
   global tuple ids (positions into one flat fact list);
2. the join processes atoms in the exact order the reference evaluator
   uses (:func:`repro.query.evaluation._order_atoms`), keeping the
   frontier of partial valuations as numpy columns — one array per
   bound variable, one array of matched tuple ids per processed atom —
   and extends it per atom with a sort/searchsorted equi-join on the
   composite key of already-bound positions;
3. the result is the witness → tuple-id incidence *directly*: a
   ``(witnesses, atoms)`` matrix of global tuple ids, from which the
   endogenous witness tuple sets of Section 2 / Definition 1 (the input
   of every resilience solver) are produced by columnwise filtering,
   rowwise sorting, and row deduplication — no Python valuation dicts
   on the hot path.

The enumerations are equivalent: both realize exactly the set of
valuations ``w`` with ``D |= q[w/x]``, and the property suite in
``tests/test_columnar.py`` checks multiset equality of the valuations
themselves against the reference evaluator on random databases and
queries.

Backend selection
-----------------
:func:`use_columnar` is the enumeration gate for
:func:`repro.query.evaluation.witness_tuple_sets`: databases of at
least :data:`MIN_TUPLES_DEFAULT` tuples, and every snapshot-backed
database (:mod:`repro.storage`, whose data already lives as on-disk
code matrices), take the vectorized join; tiny in-memory instances stay
on the reference path where numpy call overhead would dominate.
``REPRO_JOIN_BACKEND`` (``columnar``/``reference``) and
``REPRO_COLUMNAR_MIN_TUPLES`` pin the historical gate instead: the
named backend above the named size threshold.

:func:`backend_counters` reports how often each path actually ran —
``columnar`` (vectorized), ``reference`` (disabled or below the size
threshold), ``fallback`` (eligible but unsupported: an atom/relation
arity mismatch).  Join frontiers larger than
:func:`frontier_chunk_rows` no longer fall back — the enumeration
streams bounded blocks (at most that many rows live at once) and
merges per-block deduplicated results, so memory stays bounded at any
scale.  The CI perf-smoke job fails when an eligible workload silently
falls back.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.cq import ConjunctiveQuery

#: Databases smaller than this (in tuples) stay on the reference
#: evaluator by default: the vectorized join pays fixed numpy call
#: overhead per atom that only amortizes on non-trivial instances.
MIN_TUPLES_DEFAULT = 128

#: Default bound on the join frontier (partial valuations materialized
#: at once).  The enumeration streams the join in blocks of at most
#: this many rows — an expansion that would exceed it is split into
#: bounded segments, never handed to the O(n^k) reference evaluator.
MAX_FRONTIER_ROWS = 4_000_000


def frontier_chunk_rows() -> int:
    """The frontier block bound, ``REPRO_COLUMNAR_CHUNK_ROWS`` or the
    :data:`MAX_FRONTIER_ROWS` default (clamped to at least 1).

    Tests and the out-of-core benchmarks force tiny chunks through the
    environment variable to exercise the splitting paths at small
    scale; chunking never changes results — only peak memory."""
    raw = os.environ.get("REPRO_COLUMNAR_CHUNK_ROWS")
    if raw is None:
        return MAX_FRONTIER_ROWS
    try:
        value = int(raw)
    except ValueError:
        return MAX_FRONTIER_ROWS
    return max(1, value)

_counters = {"columnar": 0, "reference": 0, "fallback": 0}


def join_backend() -> str:
    """The enumeration backend selected by ``REPRO_JOIN_BACKEND``."""
    backend = os.environ.get("REPRO_JOIN_BACKEND", "columnar")
    if backend not in ("columnar", "reference"):
        raise ValueError(
            f"REPRO_JOIN_BACKEND={backend!r} (expected 'columnar' or 'reference')"
        )
    return backend


def min_columnar_tuples() -> int:
    """The size threshold selected by ``REPRO_COLUMNAR_MIN_TUPLES``."""
    raw = os.environ.get("REPRO_COLUMNAR_MIN_TUPLES")
    if raw is None:
        return MIN_TUPLES_DEFAULT
    try:
        return int(raw)
    except ValueError:
        return MIN_TUPLES_DEFAULT


def use_columnar(database: Database) -> bool:
    """The enumeration gate shared by both ``try_*`` dispatchers.

    With either environment variable set, the pinned gate runs: the
    named backend, above the named size threshold.  Otherwise
    snapshot-backed databases always join columnar, and in-memory ones
    from :data:`MIN_TUPLES_DEFAULT` tuples up.
    """
    if (
        os.environ.get("REPRO_JOIN_BACKEND") is None
        and os.environ.get("REPRO_COLUMNAR_MIN_TUPLES") is None
        and getattr(database, "storage_snapshot", None) is not None
    ):
        return True
    return join_backend() == "columnar" and len(database) >= min_columnar_tuples()


def backend_counters() -> Dict[str, int]:
    """``{"columnar": runs, "reference": runs, "fallback": runs}`` so far."""
    return dict(_counters)


def reset_backend_counters() -> None:
    """Zero the run counters (benchmarks isolate phases this way)."""
    for key in _counters:
        _counters[key] = 0


class ColumnarDatabase:
    """A dictionary-encoded snapshot of one :class:`Database`.

    ``facts`` is the flat, deterministic (sorted per relation, relations
    in sorted name order) list of all facts; a *global tuple id* is a
    position into it.  ``relations`` maps each relation name to a
    ``(codes, ids)`` pair: an ``(n, arity)`` int64 matrix of interned
    constant codes and the parallel ``(n,)`` vector of global tuple
    ids.  ``constants`` is the reverse intern table (code → constant).

    A snapshot-backed handle (:class:`repro.storage.StoredDatabase`,
    detected through its ``storage_snapshot`` attribute) skips the
    encoding pass entirely: the code matrices are the snapshot's own
    ``numpy.memmap`` views, and ``facts``/``constants`` become lazy
    decoders that touch Python objects only for tuples a witness
    actually emits.
    """

    def __init__(self, database: Database):
        self.database = database
        self._repr_cache: Dict[int, str] = {}
        self._const_reprs: Optional[List[str]] = None
        snapshot = getattr(database, "storage_snapshot", None)
        if snapshot is not None:
            from repro.storage.stored import columnar_parts

            (
                self.facts,
                self.relations,
                self._ranges,
                self.constants,
                self.n_constants,
            ) = columnar_parts(snapshot)
            self._lazy_constants = True
            return
        self._lazy_constants = False
        self.facts: List[DBTuple] = []
        self.relations: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._ranges: List[Tuple[str, int, np.ndarray]] = []
        intern: Dict[Hashable, int] = {}
        for name in sorted(database.relations):
            rel = database.relations[name]
            # Relation iteration order (a set) is process-dependent, like
            # the reference evaluator's probe order; every consumer is
            # order-insensitive past the deterministic kernelization.
            facts = list(rel)
            codes = np.empty((len(facts), rel.arity), dtype=np.int64)
            ids = np.arange(
                len(self.facts), len(self.facts) + len(facts), dtype=np.int64
            )
            for i, fact in enumerate(facts):
                for j, value in enumerate(fact.values):
                    code = intern.get(value)
                    if code is None:
                        code = len(intern)
                        intern[value] = code
                    codes[i, j] = code
            self._ranges.append((name, len(self.facts), codes))
            self.facts.extend(facts)
            self.relations[name] = (codes, ids)
        self.constants: List[Hashable] = list(intern)
        self.n_constants = max(1, len(intern))

    def sort_keys_for(self, gids: np.ndarray) -> List[Tuple[str, Tuple[str, ...]]]:
        """:meth:`DBTuple.sort_key` for each (ascending) global tuple id.

        Built from per-constant ``repr`` strings cached once, instead of
        re-``repr``-ing every value of every fact per comparison.  On a
        snapshot-backed encoding the cache fills lazily per code — a
        million-constant snapshot pays for exactly the constants that
        appear in witness universes, not the whole table.
        """
        if self._lazy_constants:
            cache = self._repr_cache
            constants = self.constants

            def repr_of(code: int) -> str:
                text = cache.get(code)
                if text is None:
                    text = repr(constants[code])
                    cache[code] = text
                return text
        else:
            if self._const_reprs is None:
                self._const_reprs = [repr(c) for c in self.constants]
            repr_of = self._const_reprs.__getitem__
        keys: List[Tuple[str, Tuple[str, ...]]] = []
        for name, start, codes in self._ranges:
            lo, hi = np.searchsorted(gids, [start, start + len(codes)])
            if lo == hi:
                continue
            rows = np.asarray(codes)[gids[lo:hi] - start]
            keys.extend(
                (name, tuple(repr_of(c) for c in row)) for row in rows.tolist()
            )
        return keys


# ---------------------------------------------------------------------------
# The vectorized join
# ---------------------------------------------------------------------------

def _combine_keys(
    rel_cols: List[np.ndarray], probe_cols: List[np.ndarray], base: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold multi-column join keys into single int64 keys on both sides.

    Codes are dense (< ``base``), so columns combine positionally as
    digits base-``base``; when the running magnitude would overflow
    int64, both sides are re-compressed to dense codes first (one
    ``np.unique`` over the concatenation keeps the two sides aligned).
    """
    limit = 1 << 62
    key_a = rel_cols[0].astype(np.int64, copy=True)
    key_b = probe_cols[0].astype(np.int64, copy=True)
    cur_max = base
    for col_a, col_b in zip(rel_cols[1:], probe_cols[1:]):
        if cur_max >= limit // base:
            both = np.concatenate([key_a, key_b])
            _, inverse = np.unique(both, return_inverse=True)
            key_a = inverse[: len(key_a)].astype(np.int64)
            key_b = inverse[len(key_a):].astype(np.int64)
            cur_max = len(both) + 1
        key_a = key_a * base + col_a
        key_b = key_b * base + col_b
        cur_max *= base
    return key_a, key_b


def _match_runs(
    rel_key: np.ndarray, probe_key: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-merge match: all (probe row, rel row) pairs with equal keys.

    Returns ``(probe_idx, rel_idx)`` — parallel arrays enumerating every
    match, probe-major (ascending probe row, then ascending sorted rel
    position), which keeps the expansion deterministic.
    """
    order = np.argsort(rel_key, kind="stable")
    sorted_rel = rel_key[order]
    starts = np.searchsorted(sorted_rel, probe_key, side="left")
    ends = np.searchsorted(sorted_rel, probe_key, side="right")
    counts = ends - starts
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(probe_key), dtype=np.int64), counts)
    if total:
        run_offsets = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(run_offsets, counts)
        rel_idx = order[np.repeat(starts, counts) + within]
    else:
        rel_idx = np.empty(0, dtype=np.int64)
    return probe_idx, rel_idx


def _atom_join_plan(cdb: ColumnarDatabase, query: ConjunctiveQuery):
    """Validate and prepare the join: one step per ordered atom.

    Returns ``None`` when some atom's arity disagrees with the stored
    relation (the only remaining unsupported case — the caller falls
    back to the reference evaluator), else a list of
    ``(atom, codes, ids, bound, free)`` steps where ``bound``/``free``
    are ``(slot, column)`` pairs over the shared variable-slot layout
    (slot = order of first binding across the ordered atoms).
    Within-atom repeated variables are filtered here, once.
    """
    from repro.query.evaluation import _order_atoms

    ordered = _order_atoms(query)
    var_slot: Dict[str, int] = {}
    steps = []
    for atom in ordered:
        entry = cdb.relations.get(atom.relation)
        if entry is None:
            codes = np.empty((0, atom.arity), dtype=np.int64)
            ids = np.empty(0, dtype=np.int64)
        else:
            codes, ids = entry
            if codes.shape[1] != atom.arity:
                return None
        first_pos: Dict[str, int] = {}
        mask = None
        for j, var in enumerate(atom.args):
            if var in first_pos:
                agree = codes[:, first_pos[var]] == codes[:, j]
                mask = agree if mask is None else (mask & agree)
            else:
                first_pos[var] = j
        if mask is not None:
            codes = codes[mask]
            ids = np.asarray(ids)[mask]
        bound = []
        free = []
        for var, j in first_pos.items():
            slot = var_slot.get(var)
            if slot is not None:
                bound.append((slot, j))
            else:
                var_slot[var] = len(var_slot)
                free.append((var_slot[var], j))
        steps.append((atom, codes, ids, bound, free))
    return steps


def _cartesian_pairs(n_rows: int, n_new: int, chunk: int):
    """Lazy ``(old_idx, new_idx)`` segments of the ``n_rows x n_new``
    cross product, each segment at most ``chunk`` pairs."""
    if n_rows == 0 or n_new == 0:
        return
    if n_new > chunk:
        for lo in range(0, n_new, chunk):
            hi = min(lo + chunk, n_new)
            new_idx = np.arange(lo, hi, dtype=np.int64)
            for row in range(n_rows):
                yield np.full(hi - lo, row, dtype=np.int64), new_idx
        return
    rows_per = max(1, chunk // n_new)
    for lo in range(0, n_rows, rows_per):
        hi = min(lo + rows_per, n_rows)
        old_idx = np.repeat(np.arange(lo, hi, dtype=np.int64), n_new)
        new_idx = np.tile(np.arange(n_new, dtype=np.int64), hi - lo)
        yield old_idx, new_idx


def _materialize_matches(starts, counts, order, a: int, b: int):
    """The ``(probe_idx, rel_idx)`` expansion restricted to probe rows
    ``[a, b)`` — the per-segment core of :func:`_match_runs`."""
    cseg = counts[a:b]
    total = int(cseg.sum())
    probe_idx = np.repeat(np.arange(a, b, dtype=np.int64), cseg)
    run_offsets = np.cumsum(cseg) - cseg
    within = np.arange(total, dtype=np.int64) - np.repeat(run_offsets, cseg)
    rel_idx = order[np.repeat(starts[a:b], cseg) + within]
    return probe_idx, rel_idx


def _match_pairs(rel_key: np.ndarray, probe_key: np.ndarray, chunk: int):
    """Lazy sort-merge match: ``(probe_idx, rel_idx)`` segments, probe-
    major, each at most ``chunk`` pairs.

    A probe row whose own match run exceeds ``chunk`` is emitted as
    slices of its contiguous sorted-relation run; concatenated in
    order, the segments are exactly :func:`_match_runs`'s expansion.
    """
    order = np.argsort(rel_key, kind="stable")
    sorted_rel = rel_key[order]
    starts = np.searchsorted(sorted_rel, probe_key, side="left")
    ends = np.searchsorted(sorted_rel, probe_key, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return
    n = len(probe_key)
    if total <= chunk:
        yield _materialize_matches(starts, counts, order, 0, n)
        return
    cum = np.cumsum(counts)
    big_rows = np.flatnonzero(counts > chunk)
    a = 0
    big_pos = 0
    while a < n:
        if big_pos < len(big_rows) and big_rows[big_pos] == a:
            s, e = int(starts[a]), int(ends[a])
            row = np.int64(a)
            for off in range(s, e, chunk):
                hi = min(off + chunk, e)
                yield np.full(hi - off, row, dtype=np.int64), order[off:hi]
            a += 1
            big_pos += 1
            continue
        base = int(cum[a - 1]) if a else 0
        b = int(np.searchsorted(cum, base + chunk, side="right"))
        b = max(b, a + 1)
        if big_pos < len(big_rows):
            b = min(b, int(big_rows[big_pos]))
            b = max(b, a + 1)
        b = min(b, n)
        if int(cum[b - 1]) - base > 0:
            yield _materialize_matches(starts, counts, order, a, b)
        a = b


def _assemble_block(
    query: ConjunctiveQuery, ordered, fact_cols: List[np.ndarray], n_rows: int
) -> np.ndarray:
    """One output block: join-ordered fact columns mapped back to body
    positions.

    Map each join-ordered column back to a *distinct* body position.
    Keyed by signature alone this collapsed duplicate atoms onto one
    column, leaving another as uninitialized np.empty garbage; the
    per-signature position queues below give every occurrence its own
    column (duplicate atoms match identical facts, so which occurrence
    gets which column is immaterial — that each gets one is not).
    """
    out = np.empty((n_rows, len(query.atoms)), dtype=np.int64)
    positions: Dict[str, List[int]] = {}
    for i, atom in enumerate(query.atoms):
        positions.setdefault(atom.signature(), []).append(i)
    for atom, col in zip(ordered, fact_cols):
        out[:, positions[atom.signature()].pop(0)] = col
    return out


def _fact_matrix_blocks(cdb: ColumnarDatabase, query: ConjunctiveQuery):
    """The witness → tuple-id incidence of ``D |= q``, streamed.

    Returns ``None`` when the instance is unsupported (atom/relation
    arity mismatch) and the caller must fall back to the reference
    evaluator; otherwise an iterator of ``(rows, len(query.atoms))``
    int64 blocks whose entry ``[w, a]`` is the global tuple id witness
    ``w`` uses at atom ``a`` (columns in ``query.atoms`` order).  Each
    block holds at most :func:`frontier_chunk_rows` rows, and no
    intermediate frontier larger than that is ever materialized — the
    depth-first expansion keeps at most one live segment per join
    level.  Concatenated, the blocks equal the unchunked enumeration
    row for row.
    """
    steps = _atom_join_plan(cdb, query)
    if steps is None:
        return None
    return _iter_fact_blocks(cdb, query, steps, frontier_chunk_rows())


def _iter_fact_blocks(
    cdb: ColumnarDatabase, query: ConjunctiveQuery, steps, chunk: int
):
    ordered = [atom for atom, *_rest in steps]

    def expand(ai: int, var_cols: List[np.ndarray], fact_cols: List[np.ndarray]):
        if ai == len(steps):
            n_rows = len(fact_cols[0]) if fact_cols else 0
            yield _assemble_block(query, ordered, fact_cols, n_rows)
            return
        _atom, codes, ids, bound, free = steps[ai]
        if ai == 0:
            for lo in range(0, len(ids), chunk):
                hi = min(lo + chunk, len(ids))
                new_vars = [codes[lo:hi, j].copy() for _slot, j in free]
                yield from expand(ai + 1, new_vars, [np.asarray(ids[lo:hi])])
            return
        n_rows = len(fact_cols[0])
        if n_rows == 0:
            return
        if not bound:
            segments = _cartesian_pairs(n_rows, len(ids), chunk)
        else:
            rel_cols = [codes[:, j] for _slot, j in bound]
            probe_cols = [var_cols[slot] for slot, _j in bound]
            rel_key, probe_key = _combine_keys(
                rel_cols, probe_cols, cdb.n_constants
            )
            segments = _match_pairs(rel_key, probe_key, chunk)
        for old_idx, new_idx in segments:
            new_vars = [col[old_idx] for col in var_cols]
            new_vars.extend(codes[new_idx, j] for _slot, j in free)
            new_facts = [col[old_idx] for col in fact_cols]
            new_facts.append(np.asarray(ids)[new_idx])
            yield from expand(ai + 1, new_vars, new_facts)

    if not steps:
        return iter(())
    return expand(0, [], [])


def _enumerate_fact_matrix(
    cdb: ColumnarDatabase, query: ConjunctiveQuery
) -> Optional[np.ndarray]:
    """The full witness → tuple-id incidence matrix of ``D |= q``.

    The concatenation of :func:`_fact_matrix_blocks` (``None`` on arity
    mismatch).  Row order is identical to the historical unchunked
    enumeration.  Hot paths stream the blocks instead; this
    materializing form serves :func:`columnar_valuations` and the
    equivalence suites.
    """
    blocks = _fact_matrix_blocks(cdb, query)
    if blocks is None:
        return None
    collected = [b for b in blocks if b.shape[0]]
    if not collected:
        return np.empty((0, len(query.atoms)), dtype=np.int64)
    if len(collected) == 1:
        return collected[0]
    return np.concatenate(collected, axis=0)


def columnar_valuations(
    database: Database, query: ConjunctiveQuery
) -> Optional[List[Dict[str, Hashable]]]:
    """Every witness of ``D |= q`` as a variable valuation (decoded).

    The vectorized counterpart of
    :func:`repro.query.evaluation.witnesses` — same valuations, possibly
    in a different order.  Returns ``None`` when the instance is
    unsupported.  Exposed for the equivalence property suite; the hot
    path feeds solvers through :func:`columnar_witness_tuple_sets`
    without ever building these dicts.
    """
    cdb = ColumnarDatabase(database)
    matrix = _enumerate_fact_matrix(cdb, query)
    if matrix is None:
        return None
    out: List[Dict[str, Hashable]] = []
    facts = cdb.facts
    for row in matrix:
        valuation: Dict[str, Hashable] = {}
        for atom, tid in zip(query.atoms, row):
            fact = facts[tid]
            for var, value in zip(atom.args, fact.values):
                valuation[var] = value
        out.append(valuation)
    return out


def _distinct_witness_rows(
    cdb: ColumnarDatabase, query: ConjunctiveQuery, endogenous_only: bool
) -> Optional[np.ndarray]:
    """Deduplicated witness rows of global tuple ids (or ``None``).

    Rows are ascending with ``-1`` padding in *front* (within-row
    duplicates — one fact matched by several atoms — and exogenous
    columns are normalized away), one row per distinct witness tuple
    set.  A width-0 row set encodes the all-exogenous-atoms case.

    Streams the enumeration block by block: each frontier block (at
    most :func:`frontier_chunk_rows` rows) is normalized and
    deduplicated on its own, then merged into the accumulated distinct
    rows — peak memory is one block plus the distinct result, never
    the full witness multiset.
    """
    blocks = _fact_matrix_blocks(cdb, query)
    if blocks is None:
        return None
    flags = dict(query.relation_flags())
    for name, rel in cdb.database.relations.items():
        if rel.exogenous:
            flags[name] = True
    if endogenous_only:
        keep_cols = [
            i
            for i, atom in enumerate(query.atoms)
            if not flags.get(atom.relation, False)
        ]
    else:
        keep_cols = list(range(len(query.atoms)))
    acc: Optional[np.ndarray] = None
    saw_rows = False
    for matrix in blocks:
        if matrix.shape[0] == 0:
            continue
        saw_rows = True
        if not keep_cols:
            # Every atom is exogenous: each witness restricts to the
            # empty set (the unbreakable case the structure builder
            # rejects); one nonempty block settles the answer.
            break
        sub = np.sort(matrix[:, keep_cols], axis=1)
        if sub.shape[1] > 1:
            # Normalize within-row duplicates (the same fact matched by
            # several atoms) to -1 so set-equal rows become array-equal.
            dup = np.zeros(sub.shape, dtype=bool)
            dup[:, 1:] = sub[:, 1:] == sub[:, :-1]
            sub = np.where(dup, np.int64(-1), sub)
            sub = np.sort(sub, axis=1)
        distinct = np.unique(sub, axis=0)
        acc = (
            distinct
            if acc is None
            else np.unique(np.concatenate([acc, distinct], axis=0), axis=0)
        )
    if not saw_rows:
        return np.empty((0, len(keep_cols)), dtype=np.int64)
    if not keep_cols:
        return np.empty((1, 0), dtype=np.int64)
    return acc


def _columnar_snapshot(database: Database, index) -> ColumnarDatabase:
    """The database's columnar encoding, reused from ``index`` when a
    :class:`~repro.query.evaluation.DatabaseIndex` was provided."""
    if index is not None:
        return index.columnar()
    return ColumnarDatabase(database)


def columnar_witness_tuple_sets(
    database: Database,
    query: ConjunctiveQuery,
    endogenous_only: bool = True,
    index=None,
) -> Optional[List[FrozenSet[DBTuple]]]:
    """The deduplicated witness tuple sets, enumerated vectorized.

    Produces exactly the sets
    :func:`repro.query.evaluation.witness_tuple_sets` produces (order
    may differ; every consumer is order-insensitive past the
    deterministic kernelization), or ``None`` when the instance is
    unsupported and the caller must fall back.
    """
    cdb = _columnar_snapshot(database, index)
    rows = _distinct_witness_rows(cdb, query, endogenous_only)
    if rows is None:
        return None
    facts = cdb.facts
    return [
        frozenset(facts[tid] for tid in row if tid >= 0)
        for row in rows.tolist()
    ]


def columnar_witness_incidence(
    database: Database, query: ConjunctiveQuery, index=None
) -> Optional[Tuple[Tuple[DBTuple, ...], np.ndarray]]:
    """The witness structure's raw input, fully vectorized.

    Returns ``(universe, matrix)``: the endogenous tuples appearing in
    any witness sorted by :meth:`DBTuple.sort_key` (a tuple's id is its
    position, exactly as ``WitnessStructure`` assigns ids), and one row
    per distinct witness tuple set over those local ids — ascending,
    right-padded with ``len(universe)``.  A ``(1, 0)`` matrix encodes
    an all-exogenous witness (the unbreakable case); ``None`` means the
    instance is unsupported and the caller must enumerate via the
    reference evaluator.
    """
    cdb = _columnar_snapshot(database, index)
    rows = _distinct_witness_rows(cdb, query, endogenous_only=True)
    if rows is None:
        return None
    if rows.shape[0] == 0 or rows.shape[1] == 0:
        return (), rows
    used = np.unique(rows)
    used = used[used >= 0]
    facts = cdb.facts
    keys = cdb.sort_keys_for(used)
    order = sorted(range(len(used)), key=keys.__getitem__)
    universe = tuple(facts[used[i]] for i in order)
    local_of = np.empty(len(used), dtype=np.int64)
    for local, i in enumerate(order):
        local_of[i] = local
    pad = len(universe)
    pos = np.searchsorted(used, np.clip(rows, 0, None))
    local = np.where(rows < 0, np.int64(pad), local_of[pos])
    local.sort(axis=1)
    return universe, local


def try_witness_incidence(
    database: Database, query: ConjunctiveQuery, index=None
) -> Optional[Tuple[Tuple[DBTuple, ...], np.ndarray]]:
    """Backend dispatcher for :meth:`WitnessStructure.build`.

    Same gating and counter accounting as
    :func:`try_witness_tuple_sets`, returning the
    :func:`columnar_witness_incidence` payload instead of fact sets.
    """
    if not use_columnar(database):
        _counters["reference"] += 1
        return None
    result = columnar_witness_incidence(database, query, index=index)
    if result is None:
        _counters["fallback"] += 1
        return None
    _counters["columnar"] += 1
    return result


def try_witness_tuple_sets(
    database: Database,
    query: ConjunctiveQuery,
    endogenous_only: bool = True,
    index=None,
) -> Optional[List[FrozenSet[DBTuple]]]:
    """The backend dispatcher used by ``witness_tuple_sets``.

    Returns the columnar result when :func:`use_columnar` admits the
    database and the instance is supported; ``None``
    otherwise (the caller runs the reference evaluator).  Every
    outcome is tallied in :func:`backend_counters`.
    """
    if not use_columnar(database):
        _counters["reference"] += 1
        return None
    result = columnar_witness_tuple_sets(
        database, query, endogenous_only=endogenous_only, index=index
    )
    if result is None:
        _counters["fallback"] += 1
        return None
    _counters["columnar"] += 1
    return result
