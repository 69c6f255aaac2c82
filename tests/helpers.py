"""State builders, spectral helpers and the in-process CLI runner that only
the tests use."""

import contextlib
import io
from typing import NamedTuple

import numpy as np

from qkclass.cli import main
from qkclass.errors import DataError, DimensionError
from qkclass.qmath import ATOL_DERIVED, DensityMatrix, random_state_vector


def basis_state(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim) / dim, check_psd=False)


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random mixed state: a uniform-weight mixture of ``rank`` random pure states."""
    rank = dim if rank is None else max(1, min(rank, dim))
    probs = rng.random(rank)
    probs /= probs.sum()
    mat = np.zeros((dim, dim), dtype=complex)
    for p in probs:
        mat += p * random_state_vector(dim, rng).projector()
    return DensityMatrix(mat, check_psd=False)


def reconstruct(spec) -> np.ndarray:
    """The matrix a HermitianSpectrum decomposes."""
    return (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T


def projector_onto(spec, value: float, atol: float = ATOL_DERIVED) -> np.ndarray:
    """Projector onto the eigenspace of a HermitianSpectrum's eigenvalues
    equal to ``value``."""
    mask = np.abs(spec.eigenvalues - value) <= atol
    vecs = spec.eigenvectors[:, mask]
    return vecs @ vecs.conj().T


def label_sign(label: int) -> int:
    """Map external labels {0, 1} to the internal signs {+1, -1}."""
    if label not in (0, 1):
        raise DataError(f"label must be 0 or 1, got {label!r}")
    return 1 - 2 * label


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliResult:
    """One in-process run of the command line ``argv``: its exit code and
    what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())
