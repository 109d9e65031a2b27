"""Joint spectral radius brackets, irreducibility, and Hausdorff distance.

The joint spectral radius (JSR) of a finite matrix family is the maximal
asymptotic growth rate of long products.  Exact computation is out of reach,
so :func:`jsr_bounds` returns a certified bracket:

* lower bound: ``rho(P)^(1/t)`` maximized, up to a relative slack, over
  explored products ``P`` of length ``t`` (each such value never exceeds
  the JSR);
* upper bound: ``(max_{|x|=t} ||P_x||)^(1/t)`` minimized over fully
  enumerated levels ``t`` and over the spectral, max-row-sum and
  max-column-sum norms (every submultiplicative norm gives a valid level
  bound, and the norms complement each other: row sums are exact for
  stochastic families, the spectral norm for normal ones).

Enumeration is breadth-first with per-level beam pruning, which can only
weaken the lower bound and disables upper-bound updates from incomplete
levels, so both bounds stay valid under any budget.

Only a level's largest radius and largest spectral norm can move the
bracket, so each level first takes the cheap caps ``||P||_1``, ``||P||_inf``
and ``||P||_F`` of every product.  The eigen solve runs only on products
whose smallest cap reaches ``lower**t`` (``rho(P)`` never exceeds a cap),
and the SVD only on those :func:`~wfametrics.linalg.max_spectral_norm`
cannot rule out by Frobenius norm; a level that is pruned still needs every
spectral norm to rank its products.

The cheap caps can sit far above the radius (for a random family they
never rule out a product), so the products that pass them meet a third
filter before the eigen solve, the power cap

    rho(P) <= ||P^4||^(1/4) <= (||fl(P^4)||_F + 16 n eps ||P||_F^4)^(1/4).

A backward-stable eigen solve returns the exact radius of some ``P + E``
with ``||E||`` a small multiple of ``n eps ||P||``; the slack
``16 n eps ||P||_F^4`` covers both that ``E`` (through ``(P + E)^4``) and
the rounding of the two products that form ``fl(P^4)``, so the cap bounds
every radius the solve can return, including the ``eps^(1/n)``-sized
radii of nearly nilpotent products.  All three filters keep every product
that could tie, within a relative slack far above solver roundoff, so the
bracket and witness are the same floats as with a solve on every product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Wfa, check_budget
from .linalg import (
    CAP_SLACK,
    DEFAULT_TOL,
    _unit_scaled,
    check_tol,
    frobenius_norms,
    max_spectral_norm,
    spectral_norms,
    spectral_radii,
)

DEFAULT_NODE_BUDGET = 50_000
_POWER_CAP_ENTRIES = 1 << 15  # most matrix entries in one block of _power_caps


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
    """The family as one ``(k, n, n)`` stack.

    An empty family raises ``ValueError``, and so does a matrix that is not
    square, finite and of matrix 0's size, naming its position.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    if not mats:
        raise ValueError("the matrix family is empty; it needs at least one matrix")
    for i, mat in enumerate(mats):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape != mats[0].shape:
            raise ValueError(f"matrix {i} has shape {mat.shape}; all must be square and of equal size")
        if not np.isfinite(mat).all():
            raise ValueError(f"matrix {i} has a non-finite entry")
    return np.stack(mats)


def extend_products(gens: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """Next product level: ``gens[g] @ prods[p]`` for every pair, stored at ``p*k + g``.

    With ``prods`` in lexicographic word order (the product for word
    ``x1..xt`` being ``T[xt] @ ... @ T[x1]``), the result is the next level in
    the same order.  ``prods`` may be any ``(p, n, r)`` stack: ``(n, 1)``
    states, ``n``-by-``r`` blocks or ``n``-by-``n`` matrices.  An empty
    stack (``p = 0`` or ``n = 0``) gives an empty level of ``p k`` entries.

    Every level is one stacked ``matmul`` of the ``(k n, n)`` generators
    with each ``prods[p]``, whose last bits depend on the BLAS build.  An
    entry that overflows comes back infinite without a warning: every caller
    checks the level for finiteness before it trusts it.
    """
    k, n, _ = gens.shape
    with np.errstate(over="ignore"):
        return np.matmul(gens.reshape(k * n, n), prods).reshape((len(prods) * k,) + prods.shape[1:])


def jsr_bounds(
    mats,
    depth: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    symbols: tuple[str, ...] | None = None,
) -> JsrBounds:
    """Bracket the joint spectral radius by product enumeration up to ``depth``.

    ``symbols`` labels the matrices for the witness string (defaults to
    ``"0", "1", ...``).  Words are ordered by their first differing matrix's
    position in ``mats`` (lexicographic order when ``symbols`` is sorted).
    Each level offers the smallest word whose radius lies within
    :data:`~wfametrics.linalg.CAP_SLACK` of the level's largest, and its rate
    replaces ``lower`` and the witness only when it is larger by more than
    that slack.  The rotations and powers of a word share its rate, so the
    witness does not depend on how the products were rounded (unless two
    rates differ by about the slack itself).  ``lower`` is the witness's
    rate, within the slack of the best rate explored.  Ties in pruning go to the smaller word.  When a level
    would exceed ``node_budget`` products it is pruned to the largest-norm
    ``node_budget`` of them; the result is then flagged ``truncated`` and
    the upper bound stops improving, but both bounds remain valid.  Raises
    ``ValueError`` for an empty family, a non-finite matrix, ``symbols``
    that are not one distinct label per matrix, a ``depth`` or ``node_budget``
    that is not an integer of at least 1 (NaN and inf included), or a product
    level that overflows floating point.
    """
    gens = _as_square_stack(mats)
    k, n, _ = gens.shape
    check_budget(depth, 1, "depth")
    check_budget(node_budget, 1, "node_budget")
    depth = int(depth)
    if symbols is None:
        width = len(str(k - 1))
        symbols = tuple(str(i).zfill(width) for i in range(k))
    if len(symbols) != k:
        raise ValueError("need exactly one symbol per matrix")
    if len(set(symbols)) != k:
        raise ValueError(f"symbols must be distinct, got {tuple(symbols)}")

    if n == 0:
        return JsrBounds(0.0, 0.0, depth, ())

    lower = 0.0
    witness: tuple[str, ...] = ()
    upper = np.inf
    truncated = False

    # Each level is in lexicographic word order: the product for word x1..xt
    # is T[xt] @ ... @ T[x1], and row r of an extended level is the word of
    # row r // k of the level before, followed by symbol r % k.  kept[t - 1]
    # lists the rows of extended level t that pruning kept (None: all).
    kept: list[np.ndarray | None] = []
    prods = np.eye(n)[None, :, :]

    for t in range(1, depth + 1):
        prods = extend_products(gens, prods)
        if not np.isfinite(prods).all():
            raise ValueError(f"products of length {t} overflow floating point")
        abs_prods = np.abs(prods)
        with np.errstate(over="ignore"):  # an infinite cap is still a cap
            row_caps = _largest_line_sum(abs_prods, 2)  # ||P||_inf
            col_caps = _largest_line_sum(abs_prods, 1)  # ||P||_1
            fro = frobenius_norms(prods)
            caps = np.minimum(np.minimum(row_caps, col_caps), fro)
            reach = np.float64(lower) ** t * (1.0 - CAP_SLACK)
        del abs_prods  # not held while the power caps are formed

        # rho(P) <= caps and rho(P) <= power caps, so a product below lower**t
        # cannot raise lower; every product within the slack of the largest
        # radius is kept, so the witness rule sees all of them
        solve = np.flatnonzero(caps >= reach)
        solve = solve[_power_caps(prods, fro, solve) >= reach]
        if solve.size:
            radii = spectral_radii(prods[solve])
            best = int(np.argmax(radii >= np.max(radii) * (1.0 - CAP_SLACK)))
            cand = radii[best] ** (1.0 / t)
            if cand > lower * (1.0 + CAP_SLACK):
                lower = float(cand)
                witness = _decode_word(t, _word_index(kept, k, int(solve[best])), symbols)

        prune = len(prods) > node_budget and t < depth
        if prune:
            norms = spectral_norms(prods)
        if not truncated:
            for level_max in (
                float(np.max(norms)) if prune else max_spectral_norm(prods),
                float(np.max(row_caps)),
                float(np.max(col_caps)),
            ):
                upper = min(upper, level_max ** (1.0 / t))

        if prune:
            # rows are in word order, so a stable sort breaks ties by word
            keep = np.sort(np.argsort(-norms, kind="stable")[:int(node_budget)])
            prods = prods[keep]
            truncated = True
        kept.append(keep if prune else None)

    if lower > upper:
        lower = upper
    return JsrBounds(lower, upper, depth, witness, truncated)


def _largest_line_sum(abs_prods: np.ndarray, axis: int) -> np.ndarray:
    """Each matrix's largest row (``axis=2``) or column (``axis=1``) sum of ``abs_prods``.

    The same floats as ``abs_prods.sum(axis=axis).max(axis=1)``.  numpy
    reduces a short axis row by row with a per-row overhead (about 2 ms for
    the row sums of 16,384 3-by-3 matrices).  Below 8 terms it adds left to
    right, so adding whole slices in that order gives the same sums; from 8
    terms on its row sums are pairwise, and its own sum is kept.  A maximum
    does not depend on the order.
    """
    if abs_prods.shape[1] >= 8:
        return abs_prods.sum(axis=axis).max(axis=1)
    lines = np.moveaxis(abs_prods, axis, 0)
    sums = lines[0].copy()
    for line in lines[1:]:
        sums += line
    top = sums[:, 0].copy()
    for col in sums.T[1:]:
        np.maximum(top, col, out=top)
    return top


def _power_caps(prods: np.ndarray, fro: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The power cap of each ``prods[rows]``, given the Frobenius norms ``fro`` of ``prods``.

    With ``Q = P / ||P||_F`` the cap is ``||P||_F (||fl(Q^4)||_F + 16 n eps)^(1/4)``:
    ``(||fl(P^4)||_F + 16 n eps ||P||_F^4)^(1/4)`` computed on a unit matrix,
    where ``P^4`` would underflow for tiny products and overflow for large
    ones.  Products are taken a block of at most ``_POWER_CAP_ENTRIES``
    entries at a time, so ``Q^2`` and ``Q^4`` of a whole level are never held
    at once.
    """
    n = prods.shape[1]
    slack = 16 * n * np.finfo(float).eps
    step = max(1, _POWER_CAP_ENTRIES // (n * n))
    caps = np.empty(len(rows))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        unit = prods[block] / fro[block, None, None]
        square = unit @ unit
        fourth = frobenius_norms(square @ square)
        caps[start:start + step] = fro[block] * np.sqrt(np.sqrt(fourth + slack))
    return caps


def _word_index(kept: list[np.ndarray | None], k: int, row: int) -> int:
    """Base-k index of the word at ``row`` of the level extended from the last in ``kept``."""
    idx, place = 0, 1
    for keep in reversed(kept):
        row, digit = divmod(row, k)
        idx += digit * place
        place *= k
        if keep is not None:
            row = int(keep[row])
    return idx + row * place


def _decode_word(length: int, idx: int, symbols: tuple[str, ...]) -> tuple[str, ...]:
    """The word of ``length`` symbols whose base-k digits are ``idx``."""
    word = []
    for _ in range(length):
        idx, digit = divmod(idx, len(symbols))
        word.append(symbols[digit])
    return tuple(reversed(word))


def wfa_spectral_radius(a: Wfa, depth: int, node_budget: int = DEFAULT_NODE_BUDGET) -> JsrBounds:
    """JSR bracket for the transition family of ``a``."""
    return jsr_bounds(a.trans_stack(), depth, node_budget, symbols=a.alphabet)


def is_irreducible(mats, tol: float = DEFAULT_TOL) -> bool:
    """Whether the family has no common invariant subspace besides {0} and V.

    Tests whether the unital algebra generated by the matrices has dimension
    ``n^2`` (Burnside's criterion).  Products come level by level from
    :func:`extend_products`; one joins the basis when its residual against
    the basis so far exceeds ``tol`` times its own norm, and only products
    that joined are extended.  Each generator and each product is first
    multiplied by the power of two that puts its largest entry in [0.5, 1):
    the test is homogeneous, so this changes no decision, and no product
    can overflow or underflow.  Judging each raw product against its own
    norm makes the answer independent of how each matrix is scaled, at
    every scale; propagating orthonormalized directions instead (the span
    closure of the Kronecker lift) amplifies roundoff and calls hidden
    reducible families irreducible.  The basis holds up to ``n^2`` vectors
    of length ``n^2``, and a 0-by-0 family, whose algebra is {0}, is not
    irreducible.

    ``False`` can be an artifact of working over the reals rather than the
    complex field, where the criterion is exact.
    """
    check_tol(tol)
    gens = np.array([_unit_scaled(mat) for mat in _as_square_stack(mats)])
    n = gens.shape[1]
    basis = np.zeros((n * n, n * n))
    rank = 0

    def admit(prods: np.ndarray) -> np.ndarray:
        nonlocal rank
        kept = []
        for prod in prods:
            if rank == n * n:
                break
            vec = _unit_scaled(prod).reshape(-1)
            resid = vec - basis[:rank].T @ (basis[:rank] @ vec)
            resid -= basis[:rank].T @ (basis[:rank] @ resid)  # re-orthogonalize once
            rnorm = np.linalg.norm(resid)
            if rnorm > tol * np.linalg.norm(vec):
                basis[rank] = resid / rnorm
                rank += 1
                kept.append(vec)
        return np.array(kept).reshape(len(kept), n, n)

    admit(np.eye(n)[None])
    frontier = admit(gens)
    while len(frontier) and rank < n * n:
        frontier = admit(extend_products(gens, frontier))
    return rank == n * n > 0


def wfa_irreducible(a: Wfa, tol: float = DEFAULT_TOL) -> bool:
    """Irreducibility of the transition family of ``a``."""
    return is_irreducible(a.trans_stack(), tol)


def hausdorff_distance(m1, m2) -> float:
    """Hausdorff distance between two matrix sets under the spectral norm."""
    a = _as_square_stack(m1)
    b = _as_square_stack(m2)
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"matrix sizes differ: {a.shape[1:]} vs {b.shape[1:]}")
    dist = spectral_norms(a[:, None] - b[None])
    forward = float(np.max(np.min(dist, axis=1)))
    backward = float(np.max(np.min(dist, axis=0)))
    return max(forward, backward)
