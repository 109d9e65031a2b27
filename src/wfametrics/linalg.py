"""Shared dense linear-algebra helpers (SVD rank decisions, bases, norms).

All rank/kernel decisions in this package go through these functions so that
one tolerance policy applies everywhere: singular values at or below
``tol * largest_singular_value`` count as zero.  Singular-vector signs are
fixed deterministically (the first entry of largest magnitude, up to
:data:`CAP_SLACK`, positive) so repeated runs return bit-identical bases.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9

# Relative slack on a cheap norm cap.  An eigenvalue or singular value that a
# backward-stable solver returns exceeds a cap of the matrix by O(n eps) at
# most, far below this, so a matrix whose cap misses a target by more than
# the slack cannot reach it.
CAP_SLACK = 1e-9


def sign_flips(basis: np.ndarray) -> np.ndarray:
    """Per-column factor, +1 or -1, that makes the largest-magnitude entry positive.

    The first entry within :data:`CAP_SLACK` of the largest magnitude decides,
    so a tie up to rounding (a ``(v, -v)`` column) cannot swap the sign.  A
    basis with no rows gets +1.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.shape[0] == 0:
        return np.ones(basis.shape[1])
    mags = np.abs(basis)
    first = np.argmax(mags >= np.max(mags, axis=0) * (1.0 - CAP_SLACK), axis=0)
    top = basis[first, np.arange(basis.shape[1])]
    return np.where(top < 0, -1.0, 1.0)


def fix_signs(basis: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    return basis * sign_flips(basis)


def check_tol(tol: float) -> None:
    """Reject a rank tolerance that is not positive (NaN included)."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def rank_of(sv: np.ndarray, tol: float = DEFAULT_TOL, top: float | None = None) -> int:
    """Numerical rank from descending singular values: how many exceed ``tol * top``.

    ``top`` is the largest singular value of the matrix the rank is decided
    for, or a cap on it; it defaults to ``sv[0]``.
    """
    return int(np.sum(sv > tol * (sv[0] if top is None else top)))


def numerical_rank(mat: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol * sigma_max``."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0
    return rank_of(np.linalg.svd(mat, compute_uv=False), tol)


def null_basis(mat: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of ``mat``."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[1]
    if mat.size == 0 or not np.any(mat):
        return np.eye(n)
    # Only a wide input needs the full V; a tall one skips the full m-by-m U.
    _, sv, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return fix_signs(vt[rank_of(sv, tol):].T)


def orth_basis(mat: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``mat``."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0 or not np.any(mat):
        return np.zeros((mat.shape[0], 0))
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    return fix_signs(u[:, :rank_of(sv, tol)])


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that puts its largest magnitude in [0.5, 1).

    The factor is exact, so ratios, rank decisions and directions keep their
    bits (unless an entry falls into the subnormal range), while the squares
    and products of the largest entries can neither overflow nor underflow.
    An all-zero or empty ``x`` comes back as it is.
    """
    return np.ldexp(x, -np.frexp(np.max(np.abs(x), initial=0.0))[1])


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value; 0 for a matrix with no entries."""
    return float(spectral_norms(mat))


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stacked ``(..., m, n)`` array; 0 when m or n is 0."""
    mats = np.asarray(mats, dtype=float)
    if 0 in mats.shape[-2:]:
        return np.zeros(mats.shape[:-2])
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def frobenius_norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack, never below the true norm past roundoff.

    Squares that underflow lose at most the smallest normal float each, which
    is added back, so the result stays a cap on the spectral norm even for
    tiny entries.  Large entries overflow to ``inf``, which is still a cap.
    """
    mats = np.asarray(mats, dtype=float)
    squares = np.einsum("...ij,...ij->...", mats, mats)
    return np.sqrt(squares + mats.shape[-1] * mats.shape[-2] * np.finfo(float).tiny)


def max_spectral_norm(mats: np.ndarray) -> float:
    """``np.max(spectral_norms(mats))``, with an SVD only for the matrices that can attain it.

    The spectral norm never exceeds the Frobenius norm, so once the matrix of
    largest Frobenius norm has given ``top``, a matrix whose Frobenius norm is
    below ``top`` (less :data:`CAP_SLACK`) cannot hold the maximum.  The
    survivors go through :func:`spectral_norms` unchanged, so the result is
    the same float.
    """
    mats = np.asarray(mats, dtype=float)
    fro = frobenius_norms(mats)
    first = int(np.argmax(fro))
    top = spectral_norms(mats[[first]])[0]
    rivals = fro >= top * (1.0 - CAP_SLACK)
    rivals[first] = False
    return float(np.max(spectral_norms(mats[rivals]), initial=top))


def spectral_radii(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus of each matrix in a stacked array."""
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-1] == 0:
        return np.zeros(mats.shape[:-2])
    return np.max(np.abs(np.linalg.eigvals(mats)), axis=-1)
