"""End-to-end resilience analysis for a fixed query.

:class:`ResilienceAnalyzer` bundles the paper's pipeline — minimize
(Section 4.1), normalize via SJ-domination (Definition 16 /
Proposition 18), detect triads (Definition 5) and the Figure 5
patterns, classify (Theorem 37 plus the Section 8 catalog), pick a
solver — behind one object, and renders a human-readable explanation of
*why* the query lands where it does in the dichotomy.

:func:`solve_batch` is the amortized entry point for many
(database, query) pairs at once: one dispatch plan per distinct query,
one evaluation index per distinct database, one preprocessed witness
structure per distinct pair, with aggregate reduction statistics for
reporting (``repro bench`` consumes them).  Its ``mode`` / ``budget``
parameters expose the certified approximate/anytime tier for workloads
on the NP-complete side of the dichotomy (Theorem 24); ``workers``
fans the batch out across a process pool via :mod:`repro.parallel`,
and ``cache_dir`` backs it with the persistent
:class:`~repro.witness.cache.ResultCache` (see ``docs/parallelism.md``).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import DatabaseIndex
from repro.query.homomorphism import minimize
from repro.query.parser import parse_query
from repro.planner.features import endogenous_count, witness_estimate
from repro.resilience.solver import dispatch_plan, solve
from repro.resilience.types import ResilienceResult
from repro.structure.classifier import Classification, Verdict, classify
from repro.structure.domination import dominated_relations, normalize
from repro.structure.linearity import find_linear_order, is_pseudo_linear
from repro.structure.patterns import two_atom_pattern
from repro.structure.triads import find_triad
from repro.witness import (
    ReductionStats,
    ResultCache,
    pair_cache_key,
    witness_cache_info,
    witness_structure,
)


@dataclass
class AnalysisReport:
    """Everything the pipeline learned about one query."""

    query: ConjunctiveQuery
    minimized: ConjunctiveQuery
    normalized: ConjunctiveQuery
    dominated: List[Tuple[str, str]]
    triad: Optional[Tuple[int, int, int]]
    linear_order: Optional[List[int]]
    pseudo_linear: bool
    pattern: Optional[str]
    classification: Classification

    @property
    def verdict(self) -> Verdict:
        return self.classification.verdict

    def explain(self) -> str:
        """A multi-line, paper-vocabulary explanation of the verdict."""
        lines = [f"query: {self.query}"]
        if len(self.minimized.atoms) != len(self.query.atoms):
            lines.append(
                f"minimized to {len(self.minimized.atoms)} atoms: {self.minimized}"
            )
        if self.dominated:
            pairs = ", ".join(f"{a} dominates {b}" for a, b in self.dominated)
            lines.append(f"SJ-domination (Def 16): {pairs}; dominated made exogenous")
        if self.triad is not None:
            atoms = ", ".join(
                repr(self.normalized.atoms[i]) for i in self.triad
            )
            lines.append(f"triad found (Def 5): {{{atoms}}} -> NP-complete (Thm 24)")
        else:
            lines.append("no triad; endogenous atoms are pseudo-linear (Thm 25)")
        if self.linear_order is not None:
            ordered = " < ".join(
                repr(self.normalized.atoms[i]) for i in self.linear_order
            )
            lines.append(f"linear order: {ordered}")
        if self.pattern is not None:
            lines.append(f"two-R-atom pattern (Fig 5): {self.pattern}")
        lines.append(
            f"verdict: RES(q) is {self.classification.verdict.value} "
            f"[{self.classification.rule}] — {self.classification.detail}"
        )
        return "\n".join(lines)


class ResilienceAnalyzer:
    """Analyze and solve resilience for one conjunctive query.

    Parameters
    ----------
    query:
        A :class:`ConjunctiveQuery` or Datalog text (parsed on the fly).

    Examples
    --------
    >>> analyzer = ResilienceAnalyzer("R(x,y), R(y,z)")
    >>> analyzer.report().verdict.value
    'NP-complete'
    """

    def __init__(self, query):
        if isinstance(query, str):
            query = parse_query(query)
        self.query: ConjunctiveQuery = query
        self._report: Optional[AnalysisReport] = None

    def report(self) -> AnalysisReport:
        """Run (and cache) the full structural analysis."""
        if self._report is not None:
            return self._report
        minimized = minimize(self.query)
        dominated = dominated_relations(minimized)
        normalized = normalize(minimized)
        triad = find_triad(normalized)
        order = find_linear_order(normalized)
        self._report = AnalysisReport(
            query=self.query,
            minimized=minimized,
            normalized=normalized,
            dominated=dominated,
            triad=triad,
            linear_order=order,
            pseudo_linear=is_pseudo_linear(normalized),
            pattern=two_atom_pattern(normalized),
            classification=classify(self.query),
        )
        return self._report

    def solve(
        self,
        database: Database,
        mode: str = "exact",
        budget=None,
        weighted: bool = False,
    ):
        """Resilience of this query over ``database`` (auto dispatch).

        ``mode``, ``budget``, and ``weighted`` pass through to
        :func:`repro.resilience.solver.solve`: ``"exact"`` (default)
        returns a :class:`ResilienceResult`; ``"approx"`` /
        ``"anytime"`` return a certified
        :class:`~repro.resilience.types.BoundedResilienceResult`
        interval, the latter refined within ``budget``.
        """
        return solve(
            database, self.query, mode=mode, budget=budget, weighted=weighted
        )

    def solve_many(
        self,
        databases: Iterable[Database],
        mode: str = "exact",
        budget=None,
        workers: Optional[int] = None,
        cache_dir=None,
        weighted: bool = False,
    ) -> "BatchResult":
        """Solve this query over many databases through the batch engine.

        Equivalent to ``solve_batch([(db, q) for db in databases], ...)``
        — one dispatch plan for the query, one evaluation index per
        database, with the full ``workers`` / ``cache_dir`` machinery of
        :func:`solve_batch` available.  Results come back in input
        order inside a :class:`BatchResult`.
        """
        return solve_batch(
            [(db, self.query) for db in databases],
            mode=mode,
            budget=budget,
            workers=workers,
            cache_dir=cache_dir,
            weighted=weighted,
        )

    def session(
        self,
        database: Database,
        cache_dir=None,
        workers: Optional[int] = None,
        warm_start: bool = True,
    ):
        """An incremental solving session for this query over ``database``.

        Returns a :class:`~repro.incremental.IncrementalSession` that
        applies ``insert``/``delete``/``apply`` tuple updates and keeps
        every answer equal to a from-scratch solve while re-doing only
        delta work (see ``docs/incremental.md``).  ``cache_dir`` backs
        the per-component results with the persistent
        :class:`~repro.witness.cache.ResultCache`; ``workers`` fans
        uncached component solves out through :mod:`repro.parallel`.
        """
        # Imported here: repro.incremental builds on the solver stack
        # that this module also feeds, so the import stays one-way.
        from repro.incremental import IncrementalSession

        return IncrementalSession(
            database,
            self.query,
            cache_dir=cache_dir,
            workers=workers,
            warm_start=warm_start,
        )

    def explain(self) -> str:
        """Shortcut for ``report().explain()``."""
        return self.report().explain()


# ---------------------------------------------------------------------------
# Batch solving
# ---------------------------------------------------------------------------

@dataclass
class BatchStats:
    """Aggregate accounting for one :func:`solve_batch` call.

    ``mode`` records which solving tier produced the batch; for the
    bounded tiers (``"approx"`` / ``"anytime"``) the interval counters
    below summarize certification quality: ``intervals_exact`` pairs
    closed their interval (``lb == ub``), and ``gap_total`` sums the
    remaining ``ub - lb`` over the ones that did not.

    Execution telemetry: ``workers`` is the worker count the batch ran
    with (1 = serial), ``shards`` how many shards were dispatched to
    the pool, and ``cache_hits`` / ``cache_misses`` how many *unique*
    pairs the persistent result cache served / had to compute (zero
    when no ``cache_dir`` was given).  ``plans`` counts the solved
    unique pairs by :class:`~repro.planner.Plan` signature — which
    join, split and size class each one ran with.  Every counter in
    this object is reproducible for a fixed input batch regardless of
    worker count; only the wall-clock fields (``time_total`` and the
    times inside ``reductions``) vary run to run.
    """

    pairs: int = 0
    unique_pairs: int = 0
    methods: Counter = field(default_factory=Counter)
    structures: int = 0
    reductions: ReductionStats = field(default_factory=ReductionStats)
    time_total: float = 0.0
    mode: str = "exact"
    intervals_exact: int = 0
    gap_total: int = 0
    workers: int = 1
    shards: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    plans: Counter = field(default_factory=Counter)

    def summary_lines(self) -> List[str]:
        """Human-readable report (used by ``repro bench``)."""
        r = self.reductions
        per_s = self.pairs / self.time_total if self.time_total else float("inf")
        lines = [
            f"pairs: {self.pairs} ({self.unique_pairs} unique) "
            f"in {self.time_total:.3f}s ({per_s:.0f} pairs/s, mode {self.mode})",
            "methods: "
            + ", ".join(f"{m}={c}" for m, c in sorted(self.methods.items())),
        ]
        if self.workers > 1:
            lines.append(
                f"parallel: {self.workers} workers, {self.shards} shards"
            )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"result cache: {self.cache_hits} hits, "
                f"{self.cache_misses} misses over {self.unique_pairs} "
                f"unique pairs"
            )
        if self.plans:
            lines.append(
                "plans: "
                + ", ".join(
                    f"{sig} x{count}"
                    for sig, count in sorted(self.plans.items())
                )
            )
        if self.mode != "exact":
            lines.append(
                f"certified intervals: {self.intervals_exact}/{self.pairs} "
                f"closed (lb == ub), total remaining gap {self.gap_total}"
            )
        if self.structures:
            duplicates = r.witnesses_raw - r.witnesses_distinct
            superset = r.witnesses_distinct - r.witnesses_minimal
            lines += [
                f"witness structures built: {self.structures} "
                f"(enumerate {r.time_enumerate:.3f}s, reduce {r.time_reduce:.3f}s)",
                f"  witnesses {r.witnesses_raw} -> {r.witnesses_minimal} minimal "
                f"-> {r.witnesses_final} after forcing/domination",
                f"  tuples {r.tuples_raw} -> {r.tuples_final} "
                f"(forced {r.forced_tuples}, dominated {r.dominated_tuples})",
                f"  kernelization: duplicates={duplicates} superset={superset} "
                f"unit={r.forced_tuples} dominated={r.dominated_tuples} "
                f"components={r.components}",
                f"  components: {r.components} "
                f"across {self.structures} structures, {r.rounds} reduction rounds",
            ]
        return lines


class BatchResult(Sequence):
    """Results of :func:`solve_batch`, in input order, plus statistics.

    Behaves as a sequence of :class:`ResilienceResult`; ``stats`` holds
    the aggregate :class:`BatchStats`.
    """

    def __init__(self, results: List[ResilienceResult], stats: BatchStats):
        self.results = results
        self.stats = stats

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i):
        return self.results[i]

    def values(self) -> List[int]:
        """Just the resilience values, in input order (for bounded
        modes: the certified upper bounds)."""
        return [r.value for r in self.results]

    def intervals(self) -> List[Tuple[int, int]]:
        """The ``(lb, ub)`` intervals, in input order (bounded modes
        only; exact results raise ``AttributeError``)."""
        return [r.interval for r in self.results]

    def __repr__(self) -> str:
        return f"BatchResult(n={len(self.results)}, stats={self.stats})"


# A database with at least this many endogenous tuples (the ones that
# grow the hitting-set search; exogenous tuples never do) has its
# post-kernelization connected components sharded individually when
# solving in parallel; below it, whole-pair tasks amortize better than a
# coordinator-side structure build.  Override per call via
# ``split_components``.
COMPONENT_SPLIT_THRESHOLD = 400


def split_instance(
    database: Database, split_components: Union[int, bool, None] = None
) -> bool:
    """Should a parallel batch shard this exact instance per component?

    ``split_components`` is :func:`solve_batch`'s argument: ``None`` or
    ``True`` use :data:`COMPONENT_SPLIT_THRESHOLD`, an int replaces it,
    ``False`` never splits.
    """
    if split_components is False:
        return False
    threshold = (
        COMPONENT_SPLIT_THRESHOLD
        if split_components is None or split_components is True
        else int(split_components)
    )
    return endogenous_count(database) >= threshold


def _default_workers() -> int:
    """The worker count used when ``solve_batch(workers=None)``.

    Reads ``REPRO_WORKERS`` (so deployments and the CI parallel leg can
    flip the whole system to pool execution without touching call
    sites); defaults to 1, i.e. serial.
    """
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", "1")))
    except ValueError:
        return 1


def solve_batch(
    pairs: Iterable[Tuple[Database, ConjunctiveQuery]],
    method: Optional[str] = None,
    mode: str = "exact",
    budget=None,
    workers: Optional[int] = None,
    cache_dir=None,
    split_components: Union[int, bool, None] = None,
    pool=None,
    weighted: bool = False,
) -> BatchResult:
    """Solve many (database, query) pairs, amortizing shared work.

    Compared to calling :func:`repro.resilience.solver.solve` per pair,
    this reuses three things across the batch:

    * one :class:`DispatchPlan` per distinct query signature (the
      classifier, flow-safety analysis, and flow-network setup run once
      per query, not once per pair);
    * one :class:`~repro.query.evaluation.DatabaseIndex` per distinct
      database object (per-relation hash indexes are shared by the
      satisfiability probes and witness enumeration of every query
      solved over it);
    * one preprocessed witness structure — and one result — per
      distinct (database, query) pair.  Pairs are deduplicated by
      *content* (the database's canonical form plus the query's
      canonical signature), so duplicated pairs are free even when they
      arrive as distinct-but-equal objects.

    Databases must not be mutated while the batch runs (evaluation
    indexes are shared by object identity, and the content keys are
    computed once up front).  ``method`` forces a backend exactly as in
    :func:`~repro.resilience.solver.solve`; ``mode`` and ``budget``
    select the solving tier per the same function (``"approx"`` /
    ``"anytime"`` produce certified
    :class:`~repro.resilience.types.BoundedResilienceResult` intervals,
    with the shared ``budget`` applying to each distinct pair).

    ``workers`` > 1 partitions the unique pairs into deterministic
    shards and solves them on a process pool (:mod:`repro.parallel`);
    large exact instances (at least ``split_components`` endogenous
    tuples, default :data:`COMPONENT_SPLIT_THRESHOLD`; pass ``False``
    to disable — see :func:`split_instance`) are further split into
    per-component hitting-set tasks.
    Results — values *and* contingency sets — are identical to a serial
    run, and every :class:`BatchStats` counter is reproducible
    regardless of worker count.  ``workers=None`` reads the
    ``REPRO_WORKERS`` environment variable (default: serial).

    ``cache_dir`` enables the persistent
    :class:`~repro.witness.cache.ResultCache`: unique pairs already
    solved by any earlier invocation (same contents, tier, and budget)
    are served from disk, and newly solved ones are written back, so
    repeated CLI / benchmark runs skip solved instances entirely.

    ``pool`` accepts a persistent :class:`repro.parallel.WorkerPool` to
    execute on instead of a per-call executor — long-lived callers (the
    serving tier) amortize worker start-up across batches this way.
    When a pool is passed and ``workers`` is not, the pool's own worker
    count is used.

    ``weighted=True`` solves the weighted problem per pair, exactly as
    :func:`~repro.resilience.solver.solve` would — pairs over all-unit
    databases delegate to the unweighted path, bit for bit, and the
    persistent cache keys cover the flag and the cost assignments.

    Each solved unique pair is described by a
    :class:`~repro.planner.Plan`, tallied by signature in
    ``stats.plans``; the coordinator computes them in first-appearance
    order, so the tally is reproducible regardless of worker count.

    Results come back in input order inside a :class:`BatchResult`
    carrying aggregate reduction, interval, shard, plan, and cache
    statistics.
    """
    from repro.planner import plan_instance

    pair_list = list(pairs)
    t0 = time.perf_counter()
    if workers is None:
        workers = pool.workers if pool is not None else _default_workers()
    workers = max(1, int(workers))
    stats = BatchStats(pairs=len(pair_list), mode=mode, workers=workers)
    indexes: Dict[int, DatabaseIndex] = {}
    canon: Dict[int, frozenset] = {}

    def _index(db: Database) -> DatabaseIndex:
        index = indexes.get(id(db))
        if index is None:
            index = DatabaseIndex(db)
            indexes[id(db)] = index
        return index

    # Deduplicate by content, preserving first-appearance order (the
    # merge below walks units in this order, which is what makes the
    # accumulated counters independent of shard layout).
    units: Dict[Tuple[frozenset, frozenset], Tuple[Database, ConjunctiveQuery]] = {}
    unit_of_pair: List[Tuple[frozenset, frozenset]] = []
    for db, query in pair_list:
        form = canon.get(id(db))
        if form is None:
            form = db.canonical_form()
            canon[id(db)] = form
        key = (form, query.canonical_signature())
        units.setdefault(key, (db, query))
        unit_of_pair.append(key)

    unit_results: Dict[Tuple[frozenset, frozenset], object] = {}
    cache: Optional[ResultCache] = None
    cache_keys: Dict[Tuple[frozenset, frozenset], str] = {}
    if cache_dir is not None:
        cache = cache_dir if isinstance(cache_dir, ResultCache) else ResultCache(cache_dir)
        for key, (db, query) in units.items():
            ck = pair_cache_key(
                db, query, mode=mode, method=method, budget=budget,
                weighted=weighted,
            )
            cache_keys[key] = ck
            hit = cache.get(ck)
            if hit is not None:
                unit_results[key] = hit
        stats.cache_hits = len(unit_results)
        stats.cache_misses = len(units) - len(unit_results)

    todo = [
        (key, db, query)
        for key, (db, query) in units.items()
        if key not in unit_results
    ]

    for _key, db, query in todo:
        plan = plan_instance(
            db, query, mode=mode, budget=budget, weighted=weighted
        )
        stats.plans[plan.signature()] += 1

    def _count_structure_build(ws) -> None:
        stats.structures += 1
        stats.reductions.merge(ws.stats)

    if workers <= 1 and todo:
        # The serial fast path runs the one worker loop in-process: no
        # pool, no pickling, and — because it is literally the same
        # code workers execute — bit-identical to pool execution by
        # construction.
        from repro.parallel import PairTask, Shard, run_shard
        from repro.resilience.types import Budget

        budget_obj = None if budget is None else Budget.coerce(budget)
        tasks = tuple(
            PairTask(i, db, query, method, mode, budget_obj, weighted)
            for i, (key, db, query) in enumerate(todo)
        )
        outcome = run_shard(Shard(0, tasks))
        stats.structures += outcome.telemetry.structures
        stats.reductions.merge(outcome.telemetry.reductions)
        for i, (key, _db, _query) in enumerate(todo):
            unit_results[key] = outcome.outcomes[i]
    elif todo:
        _solve_units_parallel(
            todo,
            unit_results,
            stats,
            _index,
            _count_structure_build,
            method=method,
            mode=mode,
            budget=budget,
            workers=workers,
            split_components=split_components,
            pool=pool,
            weighted=weighted,
        )

    if cache is not None:
        for key, _db, _query in todo:
            cache.put(cache_keys[key], unit_results[key])

    results: List[object] = []
    for key in unit_of_pair:
        res = unit_results[key]
        results.append(res)
        stats.methods[res.method] += 1
        if mode != "exact":
            if res.is_exact:
                stats.intervals_exact += 1
            else:
                stats.gap_total += res.gap

    stats.unique_pairs = len(units)
    stats.time_total = time.perf_counter() - t0
    return BatchResult(results, stats)


def _solve_units_parallel(
    todo,
    unit_results,
    stats: BatchStats,
    _index,
    _count_structure_build,
    method: Optional[str],
    mode: str,
    budget,
    workers: int,
    split_components: Union[int, bool, None],
    pool=None,
    weighted: bool = False,
) -> None:
    """The ``workers > 1`` arm of :func:`solve_batch`.

    Builds the task table (splitting large exact instances into
    per-component hitting-set tasks), shards it deterministically,
    executes on the pool, and assembles unit results.  Mutates
    ``unit_results`` and ``stats`` exactly as the serial arm would:
    outcomes are merged by task id and telemetry in shard order, never
    in completion order, so counters are reproducible.  Whole-pair
    tasks carry their witness-count estimate as the LPT weight.
    """
    from repro.parallel import (
        ComponentTask,
        PairTask,
        build_shards,
        execute_shards,
        group_by_database,
    )
    from repro.resilience.exact import effective_backend
    from repro.resilience.types import Budget

    budget_obj = None if budget is None else Budget.coerce(budget)
    tasks: List[object] = []
    pair_task_units: Dict[int, Tuple[frozenset, frozenset]] = {}
    # unit key -> (structure, method name, component task ids)
    assemblies: Dict[Tuple[frozenset, frozenset], Tuple[object, str, List[int]]] = {}

    # unit key -> effective weighted flag (all-unit pairs delegate)
    unit_weighted: Dict[Tuple[frozenset, frozenset], bool] = {}

    for key, db, query in todo:
        w = weighted and db.has_weighted_costs()
        unit_weighted[key] = w
        exact_path = (
            method is None and dispatch_plan(query, weighted=w).kind == "exact"
        )
        if exact_path and mode == "exact" and split_instance(db, split_components):
            _, misses_before, _ = witness_cache_info()
            ws = witness_structure(db, query, index=_index(db), weighted=w)
            _, misses_after, _ = witness_cache_info()
            if misses_after > misses_before:
                _count_structure_build(ws)
            if not ws.satisfied:
                unit_results[key] = ResilienceResult(
                    0, frozenset(), method="unsatisfied"
                )
                continue
            # The backend is decided per whole structure — the same
            # rule resilience_exact(prefer="auto") applies, solver pin
            # included — so the assembled result names the method a
            # serial solve would have named.
            backend = effective_backend(ws)
            method_name = "ilp" if backend == "ilp" else "branch-and-bound"
            comp_ids: List[int] = []
            for comp in ws.components:
                task_id = len(tasks)
                comp_costs = (
                    tuple((t, ws.costs[t]) for t in comp.tuple_ids)
                    if w
                    else None
                )
                tasks.append(
                    ComponentTask(
                        task_id, comp.tuple_ids, comp.sets, backend, comp_costs
                    )
                )
                comp_ids.append(task_id)
            assemblies[key] = (ws, method_name, comp_ids)
        else:
            task_id = len(tasks)
            tasks.append(
                PairTask(
                    task_id,
                    db,
                    query,
                    method,
                    mode,
                    budget_obj,
                    weighted,
                    witness_estimate(db, query),
                )
            )
            pair_task_units[task_id] = key

    shards = build_shards(group_by_database(tasks), workers)
    outcomes, telemetry = execute_shards(shards, workers, pool=pool)
    stats.shards = len(shards)
    for telem in telemetry:
        stats.structures += telem.structures
        stats.reductions.merge(telem.reductions)

    for task_id, key in pair_task_units.items():
        unit_results[key] = outcomes[task_id]
    for key, (ws, method_name, comp_ids) in assemblies.items():
        chosen = set(ws.forced_ids)
        for task_id in comp_ids:
            chosen |= outcomes[task_id]
        value = ws.cost_of(chosen) if unit_weighted[key] else len(chosen)
        unit_results[key] = ResilienceResult(
            value, ws.tuples(chosen), method=method_name
        )
