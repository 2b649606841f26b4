"""repro — Resilience of binary conjunctive queries with self-joins.

A full reproduction of *"New Results for the Complexity of Resilience
for Binary Conjunctive Queries with Self-Joins"* (Freire, Gatterbauer,
Immerman, Meliou — PODS 2020, arXiv:1907.01129).

Quickstart
----------
>>> from repro import Database, parse_query, solve, classify
>>> q = parse_query("qchain() :- R(x,y), R(y,z)")
>>> db = Database()
>>> db.add_all("R", [(1, 2), (2, 3), (3, 3)])
>>> solve(db, q).value
2
>>> classify(q).verdict.value
'NP-complete'

Package map
-----------
``repro.db``
    Databases, relations, tuples (with exogenous marking).
``repro.query``
    Conjunctive queries, parsing, evaluation (witnesses), containment
    and minimization, dual hypergraphs, binary graphs, the query zoo.
``repro.structure``
    Domination, triads, (pseudo-)linearity, self-join patterns, and the
    dichotomy classifier (Theorem 37 + Section 8).
``repro.witness``
    The shared witness-structure engine: integer-indexed witness sets
    with preprocessing reductions (superset elimination, unit forcing,
    dominated-tuple elimination, component decomposition) and a cache.
``repro.resilience``
    Exact solvers, all of the paper's polynomial-time flow algorithms,
    and the certified approximate/anytime tier (LP relaxation + greedy
    bounds + budgeted search), behind a dispatching :func:`solve` with
    ``mode="exact" | "approx" | "anytime"`` and a ``weighted=True``
    min-cost objective over per-tuple deletion costs.
``repro.core``
    The high-level API: :class:`ResilienceAnalyzer`,
    :func:`solve_batch`, and deletion propagation.
``repro.reductions``
    Executable hardness gadgets for every NP-completeness proof.
``repro.ijp``
    Independent Join Paths: the Definition 48 checker, the automated
    search of Appendix C.2, and the paper's example IJPs.
``repro.parallel``
    Sharded parallel batch execution: deterministic shard partitioning
    (pair- and witness-component-granular) and the process-pool
    executor behind ``solve_batch(workers=N)``.
``repro.incremental``
    Incremental resilience under database updates:
    :class:`IncrementalSession` maintains witness structures across
    ``insert``/``delete`` deltas, certifies new optima from the
    single-tuple delta laws, and reuses per-component results across
    database states.
``repro.workloads``
    Random graphs, CNF formulas, and databases for tests/benchmarks.
"""

from repro.db import Database, DBTuple, Relation
from repro.query import (
    Atom,
    BinaryGraph,
    ConjunctiveQuery,
    DualHypergraph,
    minimize,
    parse_query,
    satisfies,
    witnesses,
)
from repro.core import solve_batch
from repro.resilience import (
    BoundedResilienceResult,
    Budget,
    ResilienceResult,
    resilience_anytime,
    resilience_bounds,
    solve,
)
from repro.incremental import IncrementalSession, Update
from repro.structure import Classification, Verdict, classify, normalize
from repro.witness import ResultCache, WitnessStructure, witness_structure

__version__ = "1.10.0"

__all__ = [
    "Database",
    "DBTuple",
    "Relation",
    "Atom",
    "ConjunctiveQuery",
    "BinaryGraph",
    "DualHypergraph",
    "parse_query",
    "satisfies",
    "witnesses",
    "minimize",
    "BoundedResilienceResult",
    "Budget",
    "ResilienceResult",
    "resilience_bounds",
    "resilience_anytime",
    "solve",
    "solve_batch",
    "IncrementalSession",
    "Update",
    "ResultCache",
    "WitnessStructure",
    "witness_structure",
    "Classification",
    "Verdict",
    "classify",
    "normalize",
    "__version__",
]
