"""Shared witness-structure engine with preprocessing reductions.

The exact and approximate resilience solvers all consume the same
object: the *witness structure* of a (query, database) pair — the
hitting-set view of resilience from Section 2 (witnesses of ``D |= q``
as sets of endogenous tuples, Definition 1) — kernelized by superset
elimination, unit-witness forcing, dominated-tuple elimination, and
connected-component decomposition.  See
:class:`~repro.witness.structure.WitnessStructure` for the pipeline,
:func:`~repro.witness.cache.witness_structure` for the memoized entry
point the dispatcher uses, and
:class:`~repro.witness.cache.ResultCache` for the persistent
content-hash-keyed store of finished results that batch solving reuses
across process lifetimes.
"""

from repro.witness.structure import (
    ReductionStats,
    UnbreakableQueryError,
    WitnessComponent,
    WitnessStructure,
)
from repro.witness.cache import (
    InFlightGroup,
    InFlightRegistry,
    ResultCache,
    clear_witness_cache,
    component_cache_key,
    pair_cache_key,
    witness_cache_info,
    witness_structure,
)

__all__ = [
    "InFlightGroup",
    "InFlightRegistry",
    "ReductionStats",
    "ResultCache",
    "UnbreakableQueryError",
    "WitnessComponent",
    "WitnessStructure",
    "component_cache_key",
    "pair_cache_key",
    "witness_structure",
    "clear_witness_cache",
    "witness_cache_info",
]
