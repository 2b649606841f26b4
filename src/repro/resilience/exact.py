"""Exact resilience via minimum hitting set.

Resilience equals minimum hitting set over the witness structure: every
witness of ``D |= q`` contributes the set of endogenous tuples it uses,
and a contingency set is exactly a set of endogenous tuples intersecting
every witness (deleting them destroys all witnesses, and destroying all
witnesses is the only way to falsify the query).

Both solvers consume a preprocessed
:class:`~repro.witness.structure.WitnessStructure` — witnesses are
enumerated once per (query, database) pair, kernelized (superset
elimination, unit-witness forcing, dominated-tuple elimination), and
decomposed into connected components that are solved independently and
summed:

* :func:`resilience_branch_and_bound` — pure-Python branch and bound
  with greedy seeding and lower-bound pruning via disjoint witnesses;
* :func:`resilience_ilp` — an integer program built directly from the
  structure's CSR incidence matrix and solved by scipy's ``milp``
  (HiGHS), which scales further.

Both are exponential in the worst case (minimum hitting set is NP-hard
— Theorem 24 maps exactly which queries force this), but comfortably
handle the gadget databases used to *verify* the reductions.  For
instances beyond their reach, :mod:`repro.resilience.approx` computes
certified intervals from the same structure.

The greedy seeding and the disjoint-witness pruning bound used here are
shared with the approximate tier: see
:func:`repro.resilience.approx.greedy_hitting_set` and
:func:`repro.resilience.approx.disjoint_witness_lower_bound` (their
historical private aliases below keep old imports working).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import FrozenSet, Optional, Sequence, Set, TypeVar

import numpy as np

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import DatabaseIndex, satisfies
from repro.resilience.approx import (
    _BudgetMeter,
    _budgeted_bnb,
    disjoint_witness_lower_bound as _disjoint_lower_bound,
    greedy_hitting_set as _greedy_hitting_set,
)
from repro.resilience.types import Budget, ResilienceResult
from repro.witness import WitnessComponent, WitnessStructure, witness_structure

T = TypeVar("T")


def is_contingency_set(
    database: Database, query: ConjunctiveQuery, gamma: Set[DBTuple]
) -> bool:
    """Is ``gamma`` a contingency set — ``D - gamma`` falsifies ``q``?"""
    return not satisfies(database.minus(gamma), query)


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def _bnb_component(sets: Sequence[FrozenSet[int]], costs=None) -> Set[int]:
    """Minimum(-cost) hitting set of one component by branch and bound.

    Branches on the tuples of a smallest currently-unhit witness
    (deterministic sorted order); prunes with a disjoint-witness lower
    bound and the greedy incumbent.  The search itself is
    :func:`repro.resilience.approx._budgeted_bnb` run with an unlimited
    budget — one shared implementation guarantees the anytime tier's
    "unlimited budget equals exact" contract by construction.  With
    ``costs`` the objective (and the shared search) is the cost sum.
    """
    _, best_set, completed = _budgeted_bnb(
        sets,
        _greedy_hitting_set(sets, costs=costs),
        _BudgetMeter(Budget()),
        costs=costs,
    )
    assert completed  # unlimited budget always finishes
    return best_set


@lru_cache(maxsize=1)
def _milp_tools():
    """The scipy.optimize symbols the ILP backend needs, resolved once.

    Import-time safe: ``repro.resilience.exact`` stays importable
    without paying the scipy.optimize import, but per-call solves no
    longer re-execute the import machinery either (the old code
    imported inside ``_ilp_component`` on every component).
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    return Bounds, LinearConstraint, milp


def _ilp_component(component: WitnessComponent, costs=None) -> Set[int]:
    """Minimum(-cost) hitting set of one component as a 0/1 integer program.

    ``min sum(c_t x_t)`` subject to ``A x >= 1`` where ``A`` is the
    component's CSR incidence matrix (``c_t = 1`` unweighted); solved
    by scipy's HiGHS-backed ``milp``.
    """
    Bounds, LinearConstraint, milp = _milp_tools()

    A = component.incidence_matrix()
    m, n = A.shape
    if costs is None:
        c = np.ones(n)
    else:
        c = np.array([costs[t] for t in component.tuple_ids], dtype=float)
    constraint = LinearConstraint(A, lb=np.ones(m), ub=np.full(m, np.inf))
    result = milp(
        c=c,
        constraints=[constraint],
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not result.success:  # pragma: no cover - HiGHS is reliable here
        raise RuntimeError(f"ILP solver failed: {result.message}")
    return {
        component.tuple_ids[j] for j in range(n) if result.x[j] > 0.5
    }


def _solve_structure(
    ws: WitnessStructure, backend, method: str, weighted: bool = False
) -> ResilienceResult:
    """Sum per-component optima plus the forced tuples."""
    chosen: Set[int] = set(ws.forced_ids)
    for component in ws.components:
        chosen |= backend(component)
    value = ws.cost_of(chosen) if weighted else len(chosen)
    return ResilienceResult(value, ws.tuples(chosen), method=method)


def resilience_branch_and_bound(
    database: Database,
    query: ConjunctiveQuery,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    weighted: bool = False,
) -> ResilienceResult:
    """Exact resilience via branch and bound on the hitting-set problem.

    Consumes the preprocessed witness structure (built, or fetched from
    the cache, when ``structure`` is not supplied; ``index`` is used
    for enumeration on a cache miss) and solves each connected
    component independently.  With ``weighted=True`` the structure is
    built cost-aware and the search minimizes the cost sum.
    """
    if structure is None:
        structure = witness_structure(
            database, query, index=index, weighted=weighted
        )
    costs = structure.costs if weighted else None
    return _solve_structure(
        structure,
        lambda comp: _bnb_component(comp.sets, costs=costs),
        "branch-and-bound",
        weighted=weighted,
    )


# ---------------------------------------------------------------------------
# Integer programming (scipy / HiGHS)
# ---------------------------------------------------------------------------

def resilience_ilp(
    database: Database,
    query: ConjunctiveQuery,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    weighted: bool = False,
) -> ResilienceResult:
    """Exact resilience as per-component 0/1 integer programs.

    Each connected component of the preprocessed witness structure
    yields one ILP over its CSR incidence matrix; optima are summed
    together with the forced tuples.  With ``weighted=True`` the
    objective carries the per-tuple costs.
    """
    if structure is None:
        structure = witness_structure(
            database, query, index=index, weighted=weighted
        )
    costs = structure.costs if weighted else None
    return _solve_structure(
        structure,
        lambda comp: _ilp_component(comp, costs=costs),
        "ilp",
        weighted=weighted,
    )


def choose_backend(structure: WitnessStructure) -> str:
    """The ``prefer="auto"`` rule: ``"ilp"`` or ``"bnb"``.

    ILP for larger *reduced* witness structures, branch and bound for
    small — decided per structure after preprocessing, so instances
    that kernelize well stay on the cheap pure-Python path.  The single
    source of truth for every caller that must replicate the automatic
    choice (the parallel coordinator and the incremental session both
    assemble per-component results under this rule).
    """
    largest = max((len(c.sets) for c in structure.components), default=0)
    if largest > 60 or structure.stats.tuples_final > 40:
        return "ilp"
    return "bnb"


def effective_backend(structure: WitnessStructure) -> str:
    """The backend an automatic exact solve will actually run.

    ``REPRO_SOLVER_BACKEND`` (``bnb``/``ilp``) when set, else
    :func:`choose_backend` — used by :func:`resilience_exact` and by
    the parallel coordinator, so serial solves, component tasks, and
    pinned configurations always agree.  Both backends return optima
    of equal value (sets may differ), so the pin is value-invisible.
    """
    backend = os.environ.get("REPRO_SOLVER_BACKEND")
    if backend is None:
        return choose_backend(structure)
    if backend not in ("bnb", "ilp"):
        raise ValueError(
            f"REPRO_SOLVER_BACKEND={backend!r} (expected 'bnb' or 'ilp')"
        )
    return backend


def resilience_exact(
    database: Database,
    query: ConjunctiveQuery,
    prefer: str = "auto",
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    weighted: bool = False,
) -> ResilienceResult:
    """Exact resilience, choosing a backend.

    ``prefer`` is ``"auto"`` (the :func:`choose_backend` rule),
    ``"ilp"``, or ``"bnb"``.  ``weighted=True`` minimizes the summed
    tuple costs instead of the cardinality.
    """
    ws = (
        structure
        if structure is not None
        else witness_structure(database, query, index=index, weighted=weighted)
    )
    if prefer == "ilp":
        return resilience_ilp(database, query, structure=ws, weighted=weighted)
    if prefer == "bnb":
        return resilience_branch_and_bound(
            database, query, structure=ws, weighted=weighted
        )
    if prefer != "auto":
        raise ValueError(f"unknown backend preference {prefer!r}")
    if effective_backend(ws) == "ilp":
        return resilience_ilp(database, query, structure=ws, weighted=weighted)
    return resilience_branch_and_bound(
        database, query, structure=ws, weighted=weighted
    )
