"""Joint spectral radius brackets, irreducibility, and Hausdorff distance.

The joint spectral radius (JSR) of a finite matrix family is the maximal
asymptotic growth rate of long products.  Exact computation is out of reach,
so :func:`jsr_bounds` returns a certified bracket:

* lower bound: ``rho(P)^(1/t)`` maximized over explored products ``P`` of
  length ``t`` (each such value never exceeds the JSR);
* upper bound: ``(max_{|x|=t} ||P_x||)^(1/t)`` minimized over fully
  enumerated levels ``t`` and over the spectral, max-row-sum and
  max-column-sum norms (every submultiplicative norm gives a valid level
  bound, and the norms complement each other: row sums are exact for
  stochastic families, the spectral norm for normal ones).

Enumeration is breadth-first with per-level beam pruning, which can only
weaken the lower bound and disables upper-bound updates from incomplete
levels, so both bounds stay valid under any budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Wfa
from .linalg import DEFAULT_TOL, spectral_norm, spectral_norms, spectral_radii

DEFAULT_NODE_BUDGET = 50_000


@dataclass(frozen=True)
class JsrBounds:
    """Certified bracket ``[lower, upper]`` for a joint spectral radius."""

    lower: float
    upper: float
    depth: int
    witness: tuple[str, ...]
    truncated: bool = False

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"invalid bracket: lower {self.lower} > upper {self.upper}")
        if len(self.witness) > self.depth:
            raise ValueError("witness longer than explored depth")


def _as_square_stack(mats) -> np.ndarray:
    arr = np.stack([np.asarray(m, dtype=float) for m in mats])
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("matrices must all be square and of equal size")
    return arr


def extend_products(gens: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """Next product level: ``gens[g] @ prods[p]`` for every pair, stored at ``p*k + g``.

    With ``prods`` in lexicographic word order (the product for word
    ``x1..xt`` being ``T[xt] @ ... @ T[x1]``), the result is the next level in
    the same order.  ``prods`` may also be a stack of ``(n, 1)`` states.
    """
    return np.einsum("gij,pjk->pgik", gens, prods).reshape((-1,) + prods.shape[1:])


def jsr_bounds(
    mats,
    depth: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    symbols: tuple[str, ...] | None = None,
) -> JsrBounds:
    """Bracket the joint spectral radius by product enumeration up to ``depth``.

    ``symbols`` labels the matrices for the witness string (defaults to
    ``"0", "1", ...``).  When a level would exceed ``node_budget`` products it
    is pruned to the largest-norm ``node_budget`` of them (ties broken
    lexicographically); the result is then flagged ``truncated`` and the
    upper bound stops improving, but both bounds remain valid.
    """
    gens = _as_square_stack(mats)
    k, n, _ = gens.shape
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if symbols is None:
        width = len(str(k - 1))
        symbols = tuple(str(i).zfill(width) for i in range(k))
    if len(symbols) != k:
        raise ValueError("need exactly one symbol per matrix")
    if tuple(sorted(symbols)) != tuple(symbols):
        order = sorted(range(k), key=lambda i: symbols[i])
        gens = gens[order]
        symbols = tuple(symbols[i] for i in order)

    if n == 0:
        return JsrBounds(0.0, 0.0, depth, ())

    lower = 0.0
    witness: tuple[str, ...] = ()
    upper = np.inf
    truncated = False
    level_complete = True

    # Level t holds (word, product) pairs in lexicographic word order; the
    # product for word x1..xt is T[xt] @ ... @ T[x1].
    words: list[tuple[str, ...]] = [()]
    prods = np.eye(n)[None, :, :]

    for t in range(1, depth + 1):
        words = [w + (s,) for w in words for s in symbols]
        prods = extend_products(gens, prods)

        radii = spectral_radii(prods)
        best = int(np.argmax(radii))
        cand = radii[best] ** (1.0 / t) if radii[best] > 0 else 0.0
        if cand > lower:
            lower = float(cand)
            witness = words[best]

        norms = spectral_norms(prods)
        if level_complete:
            abs_prods = np.abs(prods)
            for level_max in (
                float(np.max(norms)),
                float(np.max(abs_prods.sum(axis=2))),  # max row sum
                float(np.max(abs_prods.sum(axis=1))),  # max column sum
            ):
                upper = min(upper, level_max ** (1.0 / t) if level_max > 0 else 0.0)

        if len(words) > node_budget and t < depth:
            order = sorted(range(len(words)), key=lambda i: (-norms[i], words[i]))
            keep = sorted(order[:node_budget])
            words = [words[i] for i in keep]
            prods = prods[keep]
            level_complete = False
            truncated = True

    if upper == np.inf:
        upper = float(np.max(spectral_norms(gens)))
    if lower > upper:
        lower = upper
    return JsrBounds(lower, upper, depth, witness, truncated)


def wfa_spectral_radius(a: Wfa, depth: int, node_budget: int = DEFAULT_NODE_BUDGET) -> JsrBounds:
    """JSR bracket for the transition family of ``a``."""
    return jsr_bounds(
        [a.trans[s] for s in a.alphabet], depth, node_budget, symbols=a.alphabet
    )


def is_irreducible(mats, tol: float = DEFAULT_TOL) -> bool:
    """Whether the family has no common invariant subspace besides {0} and V.

    Tests whether the unital algebra generated by the matrices has dimension
    ``n^2`` (Burnside's criterion).  Products come level by level from
    :func:`extend_products`; one joins the basis when its residual against
    the basis so far exceeds ``tol`` times its own norm, and only products
    that joined are extended.  Judging each raw product against its own norm
    makes the answer independent of how each matrix is scaled; propagating
    orthonormalized directions instead (the span closure of the Kronecker
    lift) amplifies roundoff and calls hidden reducible families
    irreducible.  The basis holds up to ``n^2`` vectors of length ``n^2``.

    ``False`` can be an artifact of working over the reals rather than the
    complex field, where the criterion is exact.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gens = _as_square_stack(mats)
    n = gens.shape[1]
    basis = np.zeros((n * n, n * n))
    rank = 0

    def admit(prods: np.ndarray) -> np.ndarray:
        nonlocal rank
        kept = []
        for prod in prods:
            if rank == n * n:
                break
            vec = prod.reshape(-1)
            resid = vec - basis[:rank].T @ (basis[:rank] @ vec)
            resid -= basis[:rank].T @ (basis[:rank] @ resid)  # re-orthogonalize once
            rnorm = np.linalg.norm(resid)
            if rnorm > tol * np.linalg.norm(vec):
                basis[rank] = resid / rnorm
                rank += 1
                kept.append(prod)
        return np.array(kept).reshape(-1, n, n)

    admit(np.eye(n)[None])
    frontier = admit(gens)
    while len(frontier) and rank < n * n:
        frontier = admit(extend_products(gens, frontier))
    return rank == n * n > 0


def wfa_irreducible(a: Wfa, tol: float = DEFAULT_TOL) -> bool:
    """Irreducibility of the transition family of ``a``."""
    return is_irreducible([a.trans[s] for s in a.alphabet], tol)


def hausdorff_distance(m1, m2) -> float:
    """Hausdorff distance between two matrix sets under the spectral norm."""
    a = _as_square_stack(m1)
    b = _as_square_stack(m2)
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"matrix sizes differ: {a.shape[1:]} vs {b.shape[1:]}")
    dist = np.array([[spectral_norm(x - y) for y in b] for x in a])
    forward = float(np.max(np.min(dist, axis=1)))
    backward = float(np.max(np.min(dist, axis=0)))
    return max(forward, backward)
