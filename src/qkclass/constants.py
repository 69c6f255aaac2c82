"""Names and tolerances shared across the package, importable without numpy.

The CLI builds its option choices from these tuples before it knows which
command runs, so this module imports nothing heavy; the modules that
validate the same values import them from here.
"""

from __future__ import annotations

import os

from .errors import DataError

SQUARED_OVERLAP = "squared-overlap"
HS_TRACE = "hs-trace"
REAL_OVERLAP = "real-overlap"
KERNEL_KINDS = (SQUARED_OVERLAP, HS_TRACE, REAL_OVERLAP)

CLASSIFIERS = ("stc", "stc-bias", "hc", "qsvm")
STC_MODES = ("analytic", "ancilla-circuit", "minimal")
WEIGHT_MODES = ("uniform", "explicit", "trained")
TOY_KINDS = ("orthogonal-pair", "separable", "random")

SEED_ENV_VAR = "QKCLASS_SEED"
SCHEMA_VERSION = 1

# Structural invariants hold at 1e-12, derived equalities at 1e-10.
ATOL_STRUCT = 1e-12
ATOL_DERIVED = 1e-10


def env_seed() -> int:
    """The integer in ``QKCLASS_SEED``, or the default seed 0 when it is unset."""
    if SEED_ENV_VAR not in os.environ:
        return 0
    try:
        return int(os.environ[SEED_ENV_VAR])
    except ValueError:
        raise DataError(f"{SEED_ENV_VAR} must be an integer")
