"""Cheap per-instance features for the plan record.

The quantities that size the hitting-set instance behind a (query,
database) pair are the ones the paper's analysis is phrased in: the
endogenous tuples are its variables (exogenous tuples never enter a
contingency set, Definition 1), the witnesses of ``D |= q`` (Section 2)
its constraints — at most the product of the per-atom relation
cardinalities — and the dichotomy (Theorem 24 / Theorem 37) decides
between polynomial flow and exponential search.  :func:`extract_features`
reads them from relation cardinalities and the cached
:func:`repro.resilience.solver.dispatch_plan`, never building anything.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery

#: Cap on the witness-count estimate.
WITNESS_ESTIMATE_CAP = 10**9

#: Endogenous-tuple count above which an instance is ``"large"`` — for
#: serving admission and the plan's ``size_class`` alike.
DEFAULT_MAX_EXACT_TUPLES = 2000


@dataclass(frozen=True)
class PlanFeatures:
    """The feature vector one plan records; ``storage`` marks a
    snapshot-backed (:mod:`repro.storage`) database."""

    total_tuples: int
    endogenous_tuples: int
    witness_estimate: int
    ptime: bool
    weighted: bool
    mode: str
    bounded_budget: bool
    storage: bool = False

    def as_dict(self) -> Dict[str, object]:
        """Field name → value, in declaration order (CLI ``explain``)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def endogenous_count(database: Database) -> int:
    """The number of endogenous tuples, from relation cardinalities."""
    return sum(
        len(rel) for rel in database.relations.values() if not rel.exogenous
    )


def witness_estimate(database: Database, query: ConjunctiveQuery) -> int:
    """Upper estimate of the witness count — the product of the atoms'
    relation cardinalities, capped; the LPT weight of a pair task."""
    estimate = 1
    for atom in query.atoms:
        rel = database.relations.get(atom.relation)
        estimate *= len(rel) if rel is not None else 0
        if estimate == 0:
            return 0
        if estimate >= WITNESS_ESTIMATE_CAP:
            return WITNESS_ESTIMATE_CAP
    return estimate


def extract_features(
    database: Database,
    query: ConjunctiveQuery,
    mode: str = "exact",
    budget=None,
    weighted: bool = False,
) -> PlanFeatures:
    """The feature vector of one instance.  ``weighted`` is normalized
    the way the solvers normalize it: an all-unit database is not
    weighted."""
    # Imported lazily: the solver stack sits above this module.
    from repro.resilience.solver import dispatch_plan

    effective = bool(weighted) and database.has_weighted_costs()
    return PlanFeatures(
        total_tuples=len(database),
        endogenous_tuples=endogenous_count(database),
        witness_estimate=witness_estimate(database, query),
        ptime=dispatch_plan(query, weighted=effective).kind != "exact",
        weighted=effective,
        mode=mode,
        bounded_budget=budget is not None,
        storage=getattr(database, "storage_snapshot", None) is not None,
    )


def is_large_instance(
    database: Database, max_exact_tuples: Optional[int] = None
) -> bool:
    """Too many endogenous tuples for the interactive exact tier?  The
    plan's ``size_class`` and serving admission both ask this."""
    if max_exact_tuples is None:
        max_exact_tuples = DEFAULT_MAX_EXACT_TUPLES
    return endogenous_count(database) > max_exact_tuples
