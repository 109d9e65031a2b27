"""Largest linear bisimulation, observability/reachability, minimization.

The largest bisimulation of an automaton is the biggest subspace ``W`` with
``W ⊆ ker(beta)`` and ``T[s](W) ⊆ W`` for every symbol.  Two states are
bisimilar exactly when their difference lies in ``W``, and ``W = {0}`` means
every state realizes a distinct function (observability).

``W`` is the orthogonal complement of the states reachable in the reversed
automaton: a vector is orthogonal to every ``T[x]^T beta`` exactly when no
word observes it.  So one span closure, :func:`reachable_subspace`, answers
both questions, and :func:`minimize` is two reachability passes.

The closure is incremental (Tzeng, SIAM J. Comput. 1992, in orthonormal
form): it keeps an orthonormal basis ``Q`` and the directions ``F`` that
joined it in the last round.  Each round forms only the images ``T[s] F``,
projects ``Q`` out of them twice (classical Gram-Schmidt with one
re-orthogonalization), and rank-reveals that residual with one SVD.  A
residual direction joins when its singular value exceeds ``tol`` times
``sqrt(1 + sum_s |T[s]|_F^2)``, a cap on the largest singular value of
``[Q | images]`` whichever directions have joined, so every rank decision is
still the SVD rank rule of :mod:`wfametrics.linalg` under a single relative
tolerance.  The images and the cap are taken after the transitions are
multiplied by the power of two that puts their largest entry in [0.5, 1):
the invariant subspaces stay the same, the squares cannot overflow, and a
common scale of the transitions changes no rank decision.  The cap holds
the norm of the whole transitions, not only of their part on ``Q``:
roundoff that leaves ``Q`` is amplified by all of them.
On hidden invariant blocks whose entries span 10^+-2, a cap from the images
alone admitted such roundoff as a new direction in 2 of 3,000 families, and
this cap in none.  The Frobenius norm costs ``O(k n^2)``; the spectral norm
of ``[T[s1] ... T[sk]]`` gave the same answers there at the cost of an SVD
with ``k n`` columns.  Each direction is mapped once, so the images cost
``O(k n^3)`` over the whole closure, and the SVDs factor at most ``k n + 1``
columns in all (a one-symbol automaton takes ``n`` rounds of one column
each, where re-factoring ``[Q | T Q]`` each round took ``O(n^2)`` columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Wfa, reverse
from .jsr import extend_products
from .linalg import DEFAULT_TOL, _unit_scaled, check_tol, fix_signs, null_basis, orth_basis, rank_of

# Largest component along the basis that a newly admitted direction may keep.
# Roundoff in the projection leaves a direction of residual singular value
# ``sigma`` leaning on the basis by about ``eps * |images| / sigma``: far below
# this at the default tol, but not for a tol near eps, where such a direction
# is roundoff rather than a new one.  The lean left after one more projection
# is ``eps``, and the new columns stay orthonormal to ``_MAX_LEAN**2``.
_MAX_LEAN = 1e-5


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis (columns) of a subspace, plus the rank tolerance used."""

    basis: np.ndarray
    tol: float

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array (columns span the subspace)")
        k = basis.shape[1]
        if k:
            gram = basis.T @ basis
            if not np.allclose(gram, np.eye(k), atol=1e-8):
                raise ValueError("basis columns are not orthonormal")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ np.asarray(v, dtype=float))

    def complement_basis(self) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement."""
        return null_basis(self.basis.T, self.tol)

    def contains(self, v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=float)
        resid = v - self.project(v)
        return float(np.linalg.norm(resid)) <= self.tol * (1.0 + float(np.linalg.norm(v)))


def largest_bisimulation(a: Wfa, tol: float = DEFAULT_TOL) -> Subspace:
    """Largest subspace inside ``ker(beta)`` invariant under every transition.

    Computed as the orthogonal complement of ``reachable_subspace(reverse(a))``,
    the span of the covectors ``T[x]^T beta`` over all words ``x``.  The zero
    subspace is always a valid answer.  A ``tol`` that is not positive (NaN
    included) raises ``ValueError``.
    """
    return Subspace(reachable_subspace(reverse(a), tol).complement_basis(), tol)


def is_observable(a: Wfa, tol: float = DEFAULT_TOL) -> bool:
    """True when the largest bisimulation is trivial."""
    return largest_bisimulation(a, tol).dim == 0


def is_reachable(a: Wfa, tol: float = DEFAULT_TOL) -> bool:
    """True when the reachable subspace is the whole state space."""
    return reachable_subspace(a, tol).dim == a.dim


def reachable_subspace(a: Wfa, tol: float = DEFAULT_TOL) -> Subspace:
    """Smallest transition-invariant subspace containing ``alpha``.

    Starts from ``alpha`` and, each round, admits the directions of the
    images of the last round's newcomers that the basis does not yet span
    (see the module docstring for the rank rule).  Stops when a round admits
    nothing or the basis is full, after at most ``dim`` rounds.
    """
    check_tol(tol)
    n = a.dim
    basis = orth_basis(a.alpha.reshape(n, 1), tol)
    trans = _unit_scaled(a.trans_stack())
    cap = np.sqrt(1.0 + np.sum(trans**2))
    new = basis
    while new.shape[1] and basis.shape[1] < n:
        images = extend_products(trans, new[None]).transpose(1, 0, 2).reshape(n, -1)
        resid = images - basis @ (basis.T @ images)
        resid -= basis @ (basis.T @ resid)
        u, sv, _ = np.linalg.svd(resid, full_matrices=False)
        new = u[:, :rank_of(sv, tol, cap)]
        lean = basis.T @ new
        new = fix_signs((new - basis @ lean)[:, np.linalg.norm(lean, axis=0) < _MAX_LEAN])
        basis = np.hstack([basis, new])
    return Subspace(basis, tol)


def _restrict(a: Wfa, basis: np.ndarray) -> Wfa:
    """Compress ``a`` onto the coordinates of an orthonormal ``basis``.

    Exact when the span holds ``alpha`` and is invariant under every ``T[s]``,
    or holds ``beta`` and is invariant under every ``T[s]^T``.
    """
    return Wfa(
        alphabet=a.alphabet,
        alpha=basis.T @ a.alpha,
        beta=basis.T @ a.beta,
        trans={s: basis.T @ m @ basis for s, m in a.trans.items()},
    )


def minimize(a: Wfa, tol: float = DEFAULT_TOL) -> Wfa:
    """Equivalent automaton of minimal dimension (observable and reachable).

    Two reachability passes: restrict to the reachable subspace, then restrict
    the result to the subspace reachable in its reverse.  That second subspace
    is the orthogonal complement of the largest bisimulation, and restricting
    to it is sound because it holds ``beta`` and is invariant under every
    ``T[s]^T``, so the dropped coordinates are never observed.
    """
    r = _restrict(a, reachable_subspace(a, tol).basis)
    return _restrict(r, reachable_subspace(reverse(r), tol).basis)


def states_bisimilar(a: Wfa, u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``u`` and ``v`` realize the same function from ``a``'s states.

    Tests that ``u - v`` lies in the largest bisimulation up to
    ``tol * (1 + |u - v|)``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (a.dim,) or v.shape != (a.dim,):
        raise ValueError(f"state vectors must have shape ({a.dim},)")
    return largest_bisimulation(a, tol).contains(u - v)
