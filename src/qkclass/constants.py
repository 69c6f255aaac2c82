"""Names, tolerances and size limits shared across the package, importable
without numpy.

The CLI builds its option choices from these tuples before it knows which
command runs, so this module imports nothing heavy; the modules that
validate the same values import them from here, and ``gen-toy`` takes its
size check, :func:`check_dense_budget`, without the linear-algebra layer.
"""

from __future__ import annotations

import math
import numbers
import os
from typing import Sequence

from .errors import DataError, DimensionError

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

# Default SVM box constraint C: train-svm --box-c and the box_c config key.
DEFAULT_C = 1e6

# Size limits: DIM_CAP on any Hilbert-space dimension, DENSE_BYTES_BUDGET on
# any single dense array (2**28 bytes, 256 MiB, is a 4096 x 4096 complex matrix).
DIM_CAP = 2**20
DENSE_BYTES_BUDGET = 2**28


def check_dense_budget(shape: Sequence[int], what: str = "dense array") -> None:
    """Raise DimensionError when a complex array of ``shape`` is over the
    size limits.

    The limits are ``DIM_CAP`` on every axis (a Hilbert-space dimension) and
    ``DENSE_BYTES_BUDGET`` on the whole array at 16 bytes per entry. Call it
    with the planned output shape, as Python integers, before allocating:
    the byte count is a Python integer, so it never overflows, and no array
    is touched.
    """
    if max(shape, default=1) > DIM_CAP:
        raise DimensionError(f"{what} of shape {tuple(shape)} exceeds the 2**20 dimension cap")
    nbytes = 16 * math.prod(shape)
    if nbytes > DENSE_BYTES_BUDGET:
        raise DimensionError(
            f"{what} of shape {tuple(shape)} needs {nbytes} bytes, over the "
            f"{DENSE_BYTES_BUDGET}-byte budget")


def check_count(value, what: str, least: int = 1) -> int:
    """``value`` as an int when it is an integer >= ``least`` (a bool is
    not one); else DataError "<what> must be an integer >= <least>"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DataError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_seed(value, what: str = "seed") -> int:
    """``value`` as an int when it is a random seed, an integer >= 0 (a bool
    is not one); else DataError, before numpy refuses it."""
    return check_count(value, what, 0)


def env_seed() -> int:
    """The seed in ``QKCLASS_SEED``, or the default seed 0 when it is unset."""
    if SEED_ENV_VAR not in os.environ:
        return 0
    try:
        value = int(os.environ[SEED_ENV_VAR])
    except ValueError:
        raise DataError(f"{SEED_ENV_VAR} must be an integer")
    return check_seed(value, SEED_ENV_VAR)
