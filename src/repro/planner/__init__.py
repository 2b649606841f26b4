"""The per-instance plan record: which paths one solve takes.

The paper splits RES(q) into two regimes: PTIME queries go to network
flow (Proposition 31 and the bespoke Propositions 12/13/33/36/41/44),
NP-complete ones to the witness join, the kernel and a hitting-set
search (Theorem 24).  The engine's only choices are size thresholds
inside those pipelines, each owned by the layer that applies it:
:func:`repro.query.columnar.use_columnar` (``MIN_TUPLES_DEFAULT``;
snapshot-backed databases always join columnar),
:func:`repro.core.analyzer.split_instance`
(``COMPONENT_SPLIT_THRESHOLD``), :func:`repro.resilience.exact.choose_backend`
and :func:`repro.planner.features.is_large_instance`
(``DEFAULT_MAX_EXACT_TUPLES``).

:func:`plan_instance` describes an instance through those same
predicates — for ``BatchStats.plans``, the serving tier's plan metric
and ``repro planner explain`` — so the :class:`Plan` cannot drift from
what actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database
from repro.query.columnar import use_columnar
from repro.query.cq import ConjunctiveQuery
from repro.planner.features import (
    DEFAULT_MAX_EXACT_TUPLES,
    WITNESS_ESTIMATE_CAP,
    PlanFeatures,
    endogenous_count,
    extract_features,
    is_large_instance,
    witness_estimate,
)

__all__ = [
    "DEFAULT_MAX_EXACT_TUPLES",
    "Plan",
    "PlanFeatures",
    "WITNESS_ESTIMATE_CAP",
    "endogenous_count",
    "extract_features",
    "is_large_instance",
    "plan_instance",
    "witness_estimate",
]


@dataclass(frozen=True)
class Plan:
    """``join`` (``"columnar"``/``"reference"``), ``split`` (shard per
    witness component in parallel batches) and ``size_class``
    (``"small"``/``"large"``, or ``"out-of-core"`` for snapshot-backed
    databases) of one instance."""

    join: str
    split: bool
    size_class: str
    features: PlanFeatures

    def signature(self) -> str:
        """A compact, stable label for stats counters and metrics."""
        return (
            f"join={self.join},split={'yes' if self.split else 'no'},"
            f"size={self.size_class}"
        )


def plan_instance(
    database: Database,
    query: ConjunctiveQuery,
    mode: str = "exact",
    budget=None,
    weighted: bool = False,
) -> Plan:
    """The :class:`Plan` of one instance, from the engine's own
    predicates (so ``REPRO_JOIN_BACKEND`` pins show up in it too)."""
    # Imported lazily: repro.core sits above this package.
    from repro.core.analyzer import split_instance

    features = extract_features(
        database, query, mode=mode, budget=budget, weighted=weighted
    )
    if features.storage:
        size_class = "out-of-core"
    else:
        size_class = "large" if is_large_instance(database) else "small"
    return Plan(
        join="columnar" if use_columnar(database) else "reference",
        split=split_instance(database),
        size_class=size_class,
        features=features,
    )
