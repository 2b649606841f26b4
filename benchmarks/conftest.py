"""Shared helpers for the benchmark harness.

Each ``bench_eXX_*.py`` module regenerates one of the paper's tables or
figures (see DESIGN.md's experiment index).  Benchmarks both *time* the
relevant computation and *assert* the paper's qualitative claim, so a
green benchmark run is a machine-checked reproduction.  Numbers are
recorded in ``benchmark.extra_info`` (visible in the JSON output) and
in EXPERIMENTS.md.
"""

import itertools
import sys
from pathlib import Path

import pytest

# The differential reference implementations (tests/oracles) are shared
# by the test suites and the benchmarks that time the engine against
# them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.workloads import CNFFormula, random_3cnf

# One satisfiable and one unsatisfiable formula reused across benches.
SAT_FORMULA = random_3cnf(3, 2, seed=11)
UNSAT_FORMULA = CNFFormula(
    3,
    tuple(
        tuple(s * (i + 1) for i, s in enumerate(signs))
        for signs in itertools.product([1, -1], repeat=3)
    ),
)

VERDICT_SHORT = {"P": "P", "NP-complete": "NPC", "OPEN": "OPEN"}


def short_verdict(classification) -> str:
    return VERDICT_SHORT[classification.verdict.value]
