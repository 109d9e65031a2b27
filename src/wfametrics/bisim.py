"""Largest linear bisimulation, observability/reachability, minimization.

The largest bisimulation of an automaton is the biggest subspace ``W`` with
``W ⊆ ker(beta)`` and ``T[s](W) ⊆ W`` for every symbol.  Two states are
bisimilar exactly when their difference lies in ``W``, and ``W = {0}`` means
every state realizes a distinct function (observability).

``W`` is the orthogonal complement of the states reachable in the reversed
automaton: a vector is orthogonal to every ``T[x]^T beta`` exactly when no
word observes it.  So one span closure, :func:`reachable_subspace`, answers
both questions, and :func:`minimize` is two reachability passes.  Every rank
decision is an SVD rank decision under a single relative tolerance (see
:mod:`wfametrics.linalg`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Wfa, reverse
from .linalg import DEFAULT_TOL, check_tol, null_basis, orth_basis


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

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.basis @ self.basis.T

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

    Grows the span of ``alpha`` under the transition maps, re-orthonormalizing
    each round, and stops once the rank stabilizes (at most ``dim`` rounds).
    """
    check_tol(tol)
    n = a.dim
    if n == 0:
        return Subspace(np.zeros((0, 0)), tol)
    basis = orth_basis(a.alpha.reshape(n, 1), tol)
    mats = [a.trans[s] for s in a.alphabet]
    while 0 < basis.shape[1] < n:
        rank = basis.shape[1]
        basis = orth_basis(np.hstack([basis] + [m @ basis for m in mats]), tol)
        if basis.shape[1] == rank:
            break
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
