"""Vectorized Definition 48 screening over RGS partition batches.

The Appendix C.2 search tests every merged-copy database against the
five IJP conditions (Definition 48).  Conditions 1-4 are pure
set/vector tests, and — crucially — several of their *failure* modes
are monotone under adding facts, so they can be decided on partial
partitions and on whole numpy batches without materializing a single
:class:`~repro.db.database.Database`:

* *copy self-collapse* — two atoms of one canonical copy mapped to the
  same fact leave that copy's canonical witness with fewer than ``m``
  distinct tuples, so every fact in it fails condition 2 as an
  endpoint, forever (extra facts only add witnesses);
* *condition-3 extinction* — an endogenous fact whose constant set is
  a strict subset of a candidate endpoint's kills that endpoint, and
  stays in the database for every completion of the prefix;
* *condition-1 incomparability* — decided per fact pair on the leaf
  batch via uint64 value-set bitmasks (``f ⊆ g`` iff
  ``mask_f | mask_g == mask_g``).

A prefix whose every endogenous relation cannot muster two surviving
endpoint candidates (determined survivors plus facts not yet
determined) has no IJP below it, and the whole RGS subtree is skipped
— its exact size charged to the partition budget via the restricted
Bell recurrence (:mod:`repro.ijp.rgs`).  Condition 4 is *not* monotone
(a later fact can restore exogenous subvector symmetry), so it is only
ever checked on leaves.  Condition 5 — the Figure 8 "or-property" —
needs four resilience probes per surviving pair and is batched through
:func:`repro.core.analyzer.solve_batch`, so the bitset
kernel, columnar join, and content-hash result cache from the engine
PRs all apply, and the unmodified-``D`` probe is shared by every pair
of the same candidate database.

The screen is *sound*, never complete: it only discards candidates a
Definition 48 condition provably rules out, so the pruned search finds
exactly the certificates the exhaustive one does (pinned by tests and
the E23 gates); Example 62's triangle IJP is rediscovered from the
21147 three-copy partitions with only a few hundred leaves surviving
to a per-database check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.ijp.checker import check_conditions_1_4, combined_flags
from repro.ijp.rgs import LeafBatch, iter_leaf_batches, partition_from_rgs
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import witness_tuple_sets
from repro.witness.cache import CACHE_SCHEMA, _canonical_query_text


@dataclass(frozen=True)
class IJPCertificate:
    """One found IJP, content-addressed and rebuildable.

    The partition is stored as its RGS code over the ``k * |vars|``
    copy-tagged constants (tag-major, variables sorted), so the
    candidate database — and with it the full Definition 48 report —
    can be reconstructed exactly with :meth:`database`.
    """

    query_name: str
    k: int
    rgs: Tuple[int, ...]
    pair: Tuple[DBTuple, DBTuple]
    resilience: int

    def database(self, query: ConjunctiveQuery) -> Database:
        return PartitionSpace(query, self.k).merge(self.rgs)

    def blocks(self, query: ConjunctiveQuery) -> List[List]:
        """The partition as blocks of ``(copy, variable)`` constants."""
        return partition_from_rgs(self.rgs, PartitionSpace(query, self.k).items)

    def sort_key(self) -> Tuple:
        return (self.k, self.rgs, repr(self.pair))

    def content_key(self, query: ConjunctiveQuery) -> str:
        """SHA-256 content key for the certificate store: covers the
        query text, copy count, partition, and endpoint pair — equal
        certificates collide, anything else cannot."""
        hasher = hashlib.sha256()
        for segment in (
            f"schema={CACHE_SCHEMA}",
            "kind=ijp-certificate",
            _canonical_query_text(query),
            f"k={self.k}",
            f"rgs={','.join(map(str, self.rgs))}",
            f"pair={self.pair!r}",
        ):
            hasher.update(segment.encode())
            hasher.update(b"\x1f")
        return hasher.hexdigest()


@dataclass(frozen=True)
class NearMiss:
    """A candidate that passed conditions 1-4 but failed the
    condition-5 "or-property" — the paper's interesting failure class
    (Example 61 is exactly such a near miss)."""

    query_name: str
    k: int
    rgs: Tuple[int, ...]
    pair: Tuple[DBTuple, DBTuple]
    probe_values: Tuple[int, int, int, int]

    def sort_key(self) -> Tuple:
        return (self.k, self.rgs, repr(self.pair))


@dataclass
class LeafEvaluation:
    """Full conditions-1-4 evaluation of one surviving leaf.

    ``witness_sets`` keeps the database's (deduplicated) witness tuple
    sets alive for the condition-5 stage: removing an endpoint ``a``
    from ``D`` removes exactly the witnesses containing ``a`` and
    creates none, so all four condition-5 probes are hitting-set
    problems over *subsets of one shared witness enumeration* — the
    kernelized component the probes share.
    """

    rgs: Tuple[int, ...]
    database: Database
    candidates: List[Tuple[DBTuple, DBTuple]]
    unbreakable: bool
    witness_sets: List[frozenset] = field(default_factory=list)
    endo_tuples: List[DBTuple] = field(default_factory=list)


@dataclass
class SpaceSweepStats:
    """Accounting for one (query, k) sweep range.

    ``covered = enumerated + pruned`` is the number of partitions the
    sweep *proved something about* — enumerated leaves were screened
    individually, pruned leaves were discarded by a sound subtree rule
    — and is the numerator of the E23 partitions/second gate.
    """

    k: int
    n: int
    covered: int = 0
    enumerated: int = 0
    pruned: int = 0
    checked_rows: int = 0
    candidates: int = 0
    prescreened: int = 0
    probes: int = 0
    exhausted: bool = True

    def merge(self, other: "SpaceSweepStats") -> None:
        self.covered += other.covered
        self.enumerated += other.enumerated
        self.pruned += other.pruned
        self.checked_rows += other.checked_rows
        self.candidates += other.candidates
        self.prescreened += other.prescreened
        self.probes += other.probes
        self.exhausted = self.exhausted and other.exhausted

    def to_dict(self) -> Dict:
        return {
            "k": self.k,
            "n": self.n,
            "covered": self.covered,
            "enumerated": self.enumerated,
            "pruned": self.pruned,
            "checked_rows": self.checked_rows,
            "candidates": self.candidates,
            "prescreened": self.prescreened,
            "probes": self.probes,
            "exhausted": self.exhausted,
        }


@dataclass
class SpaceSweepResult:
    """Certificates, near misses, and accounting for one sweep range."""

    stats: SpaceSweepStats
    certificates: List[IJPCertificate] = field(default_factory=list)
    near_misses: List[NearMiss] = field(default_factory=list)


class PartitionSpace:
    """The RGS search space of ``k`` canonical copies of one query.

    Constants are ``(copy, variable)`` pairs indexed tag-major with
    variables sorted — constant ``(t, v)`` is RGS position
    ``t * |vars| + index(v)`` — and a partition maps each constant to
    its block id, so the merged candidate database (Appendix C.2) is
    just the query's atoms re-addressed through integer block labels.
    """

    def __init__(self, query: ConjunctiveQuery, k: int):
        if k < 1:
            raise ValueError(f"need at least one copy, got k={k}")
        self.query = query
        self.k = k
        self.variables = sorted(query.variables())
        self.width = len(self.variables)
        self.n = k * self.width
        if self.n > 63:
            raise ValueError(
                f"{self.n} constants exceed the 63-bit value-set masks"
            )
        self.items = [(tag, v) for tag in range(k) for v in self.variables]
        var_pos = {v: i for i, v in enumerate(self.variables)}
        self.flags = query.relation_flags()
        self.m = len(query.atoms)
        # One "fact slot" per (copy, atom): the merged database's tuple
        # for that atom under the partition.
        self.fact_rel: List[str] = []
        self.fact_cols: List[Tuple[int, ...]] = []
        self.fact_copy: List[int] = []
        self.fact_endo: List[bool] = []
        self.fact_level: List[int] = []
        for tag in range(k):
            for atom in query.atoms:
                cols = tuple(tag * self.width + var_pos[a] for a in atom.args)
                self.fact_rel.append(atom.relation)
                self.fact_cols.append(cols)
                self.fact_copy.append(tag)
                self.fact_endo.append(not self.flags[atom.relation])
                self.fact_level.append(max(cols) + 1)
        self.F = len(self.fact_rel)
        # Same-copy same-relation slot pairs: if such a pair maps to one
        # fact, the copy's canonical witness collapses below m tuples.
        self.collapse_pairs: List[Tuple[int, int]] = [
            (i, j)
            for i, j in combinations(range(self.F), 2)
            if self.fact_copy[i] == self.fact_copy[j]
            and self.fact_rel[i] == self.fact_rel[j]
        ]
        self.endo_relations = sorted(
            {r for r, e in zip(self.fact_rel, self.fact_endo) if e}
        )

    # -- batch helpers ----------------------------------------------------

    def _vec(self, codes: np.ndarray, slot: int) -> np.ndarray:
        return codes[:, list(self.fact_cols[slot])]

    def _mask(self, codes: np.ndarray, slot: int) -> np.ndarray:
        """Per-row uint64 bitmask of the slot's constant (block) set."""
        cols = codes[:, list(self.fact_cols[slot])].astype(np.uint64)
        return np.bitwise_or.reduce(np.uint64(1) << cols, axis=1)

    def _collapsed(
        self, codes: np.ndarray, determined_level: Optional[int] = None
    ) -> np.ndarray:
        """(rows, k) — copies whose canonical witness has collapsed.

        Only slot pairs determined at ``determined_level`` (default:
        all) are consulted, so on prefixes this under-reports — which
        is the sound direction for pruning.
        """
        rows = codes.shape[0]
        out = np.zeros((rows, self.k), dtype=bool)
        for i, j in self.collapse_pairs:
            if determined_level is not None and (
                self.fact_level[i] > determined_level
                or self.fact_level[j] > determined_level
            ):
                continue
            equal = np.all(self._vec(codes, i) == self._vec(codes, j), axis=1)
            out[:, self.fact_copy[i]] |= equal
        return out

    def prune_prefixes(self, codes: np.ndarray, maxes: np.ndarray) -> np.ndarray:
        """Keep mask for a prefix batch (sound subtree pruning).

        A prefix is discarded only when *no* endogenous relation can
        ever hold two condition-2/3-eligible endpoints: determined
        slots already killed by a collapse or a determined strict
        subset stay dead in every completion, and undetermined slots of
        a collapsed copy are born dead.  Everything else is counted as
        potentially alive, so no IJP below the prefix is ever lost.
        """
        level = codes.shape[1]
        rows = codes.shape[0]
        collapsed = self._collapsed(codes, determined_level=level)
        determined = [
            s
            for s in range(self.F)
            if self.fact_level[s] <= level and self.fact_endo[s]
        ]
        masks = {s: self._mask(codes, s) for s in determined}
        dead = {}
        for s in determined:
            d = collapsed[:, self.fact_copy[s]].copy()
            for t in determined:
                if t == s:
                    continue
                mt, ms = masks[t], masks[s]
                d |= ((mt | ms) == ms) & (mt != ms)
            dead[s] = d
        viable = np.zeros(rows, dtype=bool)
        for rel in self.endo_relations:
            alive = np.zeros(rows, dtype=np.int64)
            for s in determined:
                if self.fact_rel[s] == rel:
                    alive += (~dead[s]).astype(np.int64)
            for s in range(self.F):
                if (
                    self.fact_rel[s] == rel
                    and self.fact_endo[s]
                    and self.fact_level[s] > level
                ):
                    alive += (~collapsed[:, self.fact_copy[s]]).astype(np.int64)
            viable |= alive >= 2
        return viable

    def filter_leaves(self, codes: np.ndarray) -> np.ndarray:
        """Keep mask for a leaf batch: rows that still admit a
        condition-1-compatible pair of condition-2/3-alive endpoints.

        Checks, fully vectorized: copy self-collapse (including facts
        equal to a collapsed copy's facts — they share its undersized
        witness), condition-3 strict-subset extinction, and
        condition-1 incomparability, per endogenous same-relation slot
        pair.  Rows failing have no IJP pair; survivors go to the
        per-database conditions 1-4 check.
        """
        rows = codes.shape[0]
        if rows == 0:
            return np.zeros(0, dtype=bool)
        collapsed = self._collapsed(codes)
        vecs = [self._vec(codes, s) for s in range(self.F)]
        masks = [self._mask(codes, s) for s in range(self.F)]
        dead = []
        for s in range(self.F):
            d = collapsed[:, self.fact_copy[s]].copy()
            for t in range(self.F):
                if t == s or self.fact_rel[t] != self.fact_rel[s]:
                    continue
                if self.fact_copy[t] != self.fact_copy[s]:
                    equal = np.all(vecs[s] == vecs[t], axis=1)
                    d |= equal & collapsed[:, self.fact_copy[t]]
            if self.fact_endo[s]:
                for t in range(self.F):
                    if t == s or not self.fact_endo[t]:
                        continue
                    mt, ms = masks[t], masks[s]
                    d |= ((mt | ms) == ms) & (mt != ms)
            dead.append(d)
        keep = np.zeros(rows, dtype=bool)
        for i, j in combinations(range(self.F), 2):
            if (
                self.fact_rel[i] != self.fact_rel[j]
                or not self.fact_endo[i]
                or not self.fact_endo[j]
            ):
                continue
            mi, mj = masks[i], masks[j]
            incomparable = ((mi | mj) != mi) & ((mi | mj) != mj)
            keep |= incomparable & ~dead[i] & ~dead[j]
        return keep

    # -- per-leaf machinery -----------------------------------------------

    def merge(self, code: Sequence[int]) -> Database:
        """The candidate database of one partition: every copy's atoms,
        re-addressed through integer block labels."""
        from repro.workloads.random_db import declare_vocabulary

        db = Database()
        declare_vocabulary(db, [self.query])
        for s in range(self.F):
            db.add(self.fact_rel[s], *(int(code[c]) for c in self.fact_cols[s]))
        return db

    def evaluate_leaf(self, code: Sequence[int]) -> LeafEvaluation:
        """Conditions 1-4 over every endpoint pair of one candidate.

        Witness sets are enumerated once and shared across the pairs
        (the amortization :func:`check_conditions_1_4` is built for);
        ``unbreakable`` flags an all-exogenous witness, which makes
        condition 5 undefined for every pair — those candidates never
        reach the probe batch, so the batch cannot raise
        ``UnbreakableQueryError`` (witnesses of ``D - a`` are a subset
        of ``D``'s, so the screen on ``D`` covers the probes too).
        """
        db = self.merge(code)
        flags = combined_flags(db, self.query)
        all_sets = witness_tuple_sets(db, self.query, endogenous_only=False)
        unbreakable = any(
            all(flags.get(t.relation, False) for t in s) for s in all_sets
        )
        candidates: List[Tuple[DBTuple, DBTuple]] = []
        if not unbreakable:
            for name in sorted(db.relations):
                if flags.get(name, False):
                    continue
                for ta, tb in combinations(sorted(db.relations[name]), 2):
                    conditions, _ = check_conditions_1_4(
                        db, self.query, ta, tb, all_sets=all_sets, flags=flags
                    )
                    if all(conditions):
                        candidates.append((ta, tb))
        endo = sorted(
            {
                t
                for s in all_sets
                for t in s
                if not flags.get(t.relation, False)
            }
        )
        return LeafEvaluation(
            rgs=tuple(int(c) for c in code),
            database=db,
            candidates=candidates,
            unbreakable=unbreakable,
            witness_sets=all_sets,
            endo_tuples=endo,
        )


def _min_hitting_number(masks: List[int]) -> int:
    """Exact minimum hitting-set size over bitmask witness sets.

    The Section 2 view at candidate scale: a merged ``k``-copy database
    has at most ``k * m`` facts, so witness sets fit in one machine int
    each and an exact branch-and-bound (branch on the tuples of a
    smallest uncovered set) runs in microseconds.  Every mask must be
    nonzero — all-exogenous witnesses are screened out upstream.
    """
    work = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    pruned: List[int] = []
    for m in work:  # supersets of a kept set are hit whenever it is
        if not any(m & p == p for p in pruned):
            pruned.append(m)
    best = len(pruned)  # hitting one tuple per set always works

    def bnb(remaining: List[int], depth: int) -> None:
        nonlocal best
        if not remaining:
            best = min(best, depth)
            return
        if depth + 1 >= best:
            return
        smallest = min(remaining, key=lambda m: bin(m).count("1"))
        bits = smallest
        while bits:
            bit = bits & -bits
            bits ^= bit
            bnb([m for m in remaining if not m & bit], depth + 1)

    bnb(pruned, 0)
    return best


def _cond5_prescreen(
    ev: LeafEvaluation, flags: Dict[str, bool]
) -> Tuple[int, List[Tuple[Tuple[DBTuple, DBTuple], Tuple[int, int, int, int]]]]:
    """Exact condition-5 values for every candidate pair of one leaf,
    computed from the shared witness enumeration.

    ``witnesses(D - t)`` are precisely the witness sets of ``D`` not
    containing ``t`` (a homomorphism not using ``t`` survives the
    removal, and removals create no witnesses), so all four probes are
    hitting-set problems over one set family — no per-probe database
    build, canonicalization, or witness re-enumeration.  Probes short-
    circuit: most candidates already miss ``rho(D-a) = rho(D) - 1``.
    """
    bit_of = {t: 1 << i for i, t in enumerate(ev.endo_tuples)}
    full_masks: List[int] = []
    endo_masks: List[int] = []
    for s in ev.witness_sets:
        endo_masks.append(
            sum(bit_of[t] for t in s if not flags.get(t.relation, False))
        )
        full_masks.append(sum(bit_of.get(t, 0) for t in s))
    r0 = _min_hitting_number(endo_masks)
    outcomes = []
    for ta, tb in ev.candidates:
        ba, bb = bit_of[ta], bit_of[tb]

        def rho_minus(removed: int) -> int:
            kept = [
                em
                for em, fm in zip(endo_masks, full_masks)
                if not fm & removed
            ]
            return _min_hitting_number(kept) if kept else 0

        ra = rho_minus(ba)
        if ra != r0 - 1:
            outcomes.append(((ta, tb), (r0, ra, None, None)))
            continue
        rb = rho_minus(bb)
        if rb != r0 - 1:
            outcomes.append(((ta, tb), (r0, ra, rb, None)))
            continue
        rab = rho_minus(ba | bb)
        outcomes.append(((ta, tb), (r0, ra, rb, rab)))
    return r0, outcomes


def certify_candidates(
    query: ConjunctiveQuery,
    k: int,
    evaluations: Sequence[LeafEvaluation],
    cache_dir=None,
    query_name: Optional[str] = None,
) -> Tuple[List[IJPCertificate], List[NearMiss], int, int]:
    """Condition-5 stage: shared-witness prescreen, then engine probes.

    Every candidate pair is first decided exactly from its leaf's
    shared witness enumeration (:func:`_cond5_prescreen`); the pairs
    that pass — the would-be certificates, a tiny fraction — are then
    confirmed through :func:`~repro.core.analyzer.solve_batch`, so each
    emitted certificate's four probe values (``D``, ``D-a``, ``D-b``,
    ``D-ab``) come from the engine front door with join, kernel,
    and — given ``cache_dir`` — content-hash caching applied (the
    unmodified-``D`` probe dedupes across a database's pairs by
    construction).  Returns at most one certificate per database (the
    first passing pair in the serial checker's scan order), plus a
    :class:`NearMiss` for every pair failing only condition 5, the
    ``solve_batch`` probe count, and the prescreened pair count.
    """
    from repro.core.analyzer import solve_batch

    name = query_name or query.name or "q"
    prescreened = 0
    near_misses: List[NearMiss] = []
    passing: List[Tuple[LeafEvaluation, Tuple[DBTuple, DBTuple]]] = []
    for ev in evaluations:
        if not ev.candidates:
            continue
        flags = combined_flags(ev.database, query)
        _, outcomes = _cond5_prescreen(ev, flags)
        prescreened += len(outcomes)
        found = False
        for (ta, tb), (r0, ra, rb, rab) in outcomes:
            if not found and ra == rb == rab == r0 - 1:
                passing.append((ev, (ta, tb)))
                found = True
            elif not found:
                near_misses.append(
                    NearMiss(name, k, ev.rgs, (ta, tb), (r0, ra, rb, rab))
                )
    if not passing:
        return [], near_misses, 0, prescreened
    probes: List[Tuple[Database, ConjunctiveQuery]] = []
    for ev, (ta, tb) in passing:
        probes.append((ev.database, query))
        probes.append((ev.database.minus({ta}), query))
        probes.append((ev.database.minus({tb}), query))
        probes.append((ev.database.minus({ta, tb}), query))
    values = solve_batch(probes, cache_dir=cache_dir).values()
    certificates: List[IJPCertificate] = []
    for i, (ev, (ta, tb)) in enumerate(passing):
        r0, ra, rb, rab = values[4 * i : 4 * i + 4]
        if ra == rb == rab == r0 - 1:
            certificates.append(IJPCertificate(name, k, ev.rgs, (ta, tb), r0))
        else:  # pragma: no cover - prescreen and engine are both exact
            near_misses.append(
                NearMiss(name, k, ev.rgs, (ta, tb), (r0, ra, rb, rab))
            )
    return certificates, near_misses, len(probes), prescreened


def sweep_space(
    query: ConjunctiveQuery,
    k: int,
    codes: Optional[np.ndarray] = None,
    maxes: Optional[np.ndarray] = None,
    budget: Optional[int] = None,
    cache_dir=None,
    prune: bool = True,
    max_rows: int = 65536,
    stop_on_first: bool = False,
    near_miss_limit: int = 8,
    certificate_limit: Optional[int] = None,
    query_name: Optional[str] = None,
    probe_chunk: int = 64,
) -> SpaceSweepResult:
    """Screen one lex range of the ``k``-copy partition space.

    The workhorse of both :func:`repro.ijp.search.ijp_search` (whole
    space, ``stop_on_first=True``) and the sharded sweep
    (:mod:`repro.ijp.sweep` hands each worker its shard's prefix rows).
    Deterministic for fixed arguments: leaves are visited in RGS lex
    order, pairs in the serial checker's scan order, so the result is a
    pure function of ``(query, k, range, budget)`` — which is what
    makes per-shard checkpoints and serial-vs-parallel bit-identity
    work.  ``budget`` caps *covered* partitions (enumerated + pruned);
    the cut is applied at leaf granularity within a batch.
    """
    space = PartitionSpace(query, k)
    name = query_name or query.name or "q"
    stats = SpaceSweepStats(k=k, n=space.n)
    result = SpaceSweepResult(stats=stats)
    pruner = space.prune_prefixes if prune else None
    pending: List[LeafEvaluation] = []

    def flush() -> bool:
        """Run the probe batch; True when the sweep should stop."""
        if not pending:
            return False
        certs, misses, probes, prescreened = certify_candidates(
            query, k, pending, cache_dir=cache_dir, query_name=name
        )
        pending.clear()
        stats.probes += probes
        stats.prescreened += prescreened
        for cert in certs:
            if (
                certificate_limit is None
                or len(result.certificates) < certificate_limit
            ):
                result.certificates.append(cert)
        for miss in misses:
            if len(result.near_misses) < near_miss_limit:
                result.near_misses.append(miss)
        return stop_on_first and bool(result.certificates)

    stop = False
    for batch in iter_leaf_batches(
        space.n, codes, maxes, pruner=pruner, max_rows=max_rows
    ):
        rows = batch.codes
        stats.pruned += batch.pruned
        stats.covered += batch.pruned
        if budget is not None:
            remaining = max(0, budget - stats.covered)
            if rows.shape[0] > remaining:
                rows = rows[:remaining]
                stats.exhausted = False
                stop = True
        stats.enumerated += rows.shape[0]
        stats.covered += rows.shape[0]
        if rows.shape[0]:
            keep = space.filter_leaves(rows)
            keep_rows = rows[keep]
            stopped_at = None
            for at, code in enumerate(keep_rows):
                ev = space.evaluate_leaf(code)
                stats.checked_rows += 1
                stats.candidates += len(ev.candidates)
                if ev.candidates:
                    pending.append(ev)
                    if (
                        sum(len(e.candidates) for e in pending) >= probe_chunk
                        and flush()
                    ):
                        stopped_at = at + 1
                        break
            if stopped_at is not None:
                # Survivor rows past the stop were never checked; the
                # coverage claim must not include them.
                unchecked = keep_rows.shape[0] - stopped_at
                stats.covered -= unchecked
                stats.enumerated -= unchecked
                stats.exhausted = False
                break
        if stop:
            break
    if not (stop_on_first and result.certificates):
        flush()
    if stop_on_first and result.certificates:
        result.certificates = result.certificates[:1]
    return result
