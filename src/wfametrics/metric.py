"""Certified intervals for the discounted bisimulation seminorm and distance.

The seminorm of a state vector ``v`` at discount ``gamma`` is

    s(v) = sup over infinite symbol sequences x of
           sum_t gamma^t |beta(tau_{x<=t}(v))|

and the distance between two automata is the seminorm of the difference
automaton's initial vector.  The sup is not computable exactly, so
:func:`seminorm_interval` runs best-first branch-and-bound over the prefix
tree and returns an interval guaranteed to contain the true value.

Tail bounds
-----------
All bounds live in a working norm ``|v|_S = ||S v||_2`` for a well-conditioned
scaling ``S``.  :func:`compute_tail_params` certifies a block growth rate:
``theta = (max over words x of length m of |tau_x|_S)^(1/m)`` with
``gamma * theta < 1``.  The node bound below uses ``theta`` for its tail,
whose coefficient ``tau`` grows like ``(gamma*theta)^m / (1 -
(gamma*theta)^m)`` as that nears 1.  Block norms fall toward the joint
spectral radius as ``m`` grows, so from the first certificate the search
takes ``m + 1`` with the same ``S`` while that level is small (``k^(m+1)
n^2`` within 8,192 entries), certifies and has a smaller ``tau``.

Node bound
----------
:func:`seminorm_interval` runs one search loop over any :class:`NodeBound`,
whose one method ``children(states)`` returns, for each row ``u`` of
``states``, the partial value ``|beta . u|`` and a bound on ``R(u)`` (defined
below), as two lists, and a third item: ``None``, or the lasso values.  The
root is the one child of the empty word, with partial value 0 and weight
``gamma^0 = 1``: the search calls ``children`` on the one-row ``v[None]``
first, then once per expanded node on the node's ``k`` children.  The
default is the generic bound below, valid for every automaton, and it
returns no lasso values; ``node_bound=`` is the extension point for bounds
that know more about the automaton (:mod:`wfametrics.umdp` passes an
alpha-vector bound that uses the non-negativity of distributions and
rewards).

Lasso values are optional lower candidates.  Entry ``c * m + i`` (for ``m``
rows) estimates the value, from row ``i`` on, of the lasso that repeats the
``c``-th alphabet symbol forever after that row's word.  The values only
rank: the search keeps the best lasso, less the bound's ``lasso_margin``, as
a floor for its gap test, and at exit writes it out as its word followed by
the symbol, up to ``lasso_length`` symbols in all.  That word's partial
value, summed forward, becomes ``lower`` (and the word ``witness_prefix``)
when it beats the best prefix, and ``converged`` is judged on that
``lower``.  A bound that returns lasso values does so on every call and sets
``lasso_length`` and ``lasso_margin`` so that the margin covers the dropped
tail and the rounding of the estimate.

For a prefix ``y`` of length ``d`` with state ``u = tau_y v`` and partial value
``P(y) = sum_{t<=d} gamma^t |beta(tau_{y<=t} v)|``, the remaining supremum is
``gamma^d * R(u)`` with ``R(u) = sup_z sum_{j>=1} gamma^j |beta(tau_{z<=j} u)|``.
The term of a word ``x`` of length ``j`` is ``gamma^j |c_x . u|``, with the
covector ``c_x = tau_x^T beta``, so the generic bound takes the first ``J``
levels exactly and the rest from the certificate:

    R(u) <= sum_{j=1..J} gamma^j max_{|x|=j} |c_x . u| + tau |u|_S,
    tau = (sum_{J-m<j<=J} gamma^j d_j) (gamma*theta)^m / (1 - (gamma*theta)^m),

with ``d_j = max_{|x|=j} ||S^-T c_x||_2``, the largest dual norm on level
``j``, and ``J >= m`` (see below).  The tail holds because putting a block of ``m``
symbols in front of a word multiplies its covector by a block product's
transpose, so ``d_{j+m} <= theta^m d_j``: each level past ``J`` is bounded by
one of the last ``m`` levels, ``(gamma*theta)^m`` smaller per block.  The
walk of :func:`compute_tail_params` forms the head once per search, as the
covectors ``gamma^j c_x``, their dual rows and the ``d_j`` (:class:`_TailPlan`
says how many levels ``J``), ranks its certificates' ``tau`` on it and hands
it to the bound.  Every block length it reaches by lengthening is within that
head, so a node costs what it costs with the first certificate.

Let ``W`` be the largest bisimulation subspace, ``C`` the Q factor of ``S``
times ``W``'s basis and ``Q = S^-1 C C^T S`` the projector onto ``W`` that is
orthogonal in the working norm.  Only the tail needs ``W``: as ``c_x . u =
c_x . (I-Q)u + (C^T S^-T c_x) . (C^T S u)``, it is ``tau |(I-Q)u|_S + tau_W
||C^T S u||_2``, and for an exact ``W`` (orthogonal to every ``c_x``)
equivalent automata close to width ~0 at the root.  A block ``b`` of ``m``
symbols maps ``S^-T c_x`` by ``M_b^T``, ``M_b = S T_b S^-1``, and both
``C C^T`` and ``I - C C^T`` have norm at most 1, so the kernel's own block
rate ``rho_W = max_b ||C^T M_b C||`` is at most ``theta^m`` and, for ``e_j =
max_{|x|=j} ||C^T S^-T c_x||_2``,

    e_{j+m} <= rho_W e_j + delta d_j,  delta = max_b ||(S - C C^T S) T_b S^-1 C||,
    tau_W = (rate E + gamma^m delta D / (1 - (gamma*theta)^m)) / (1 - rate),
    rate = min((gamma*theta)^m, gamma^m rho_W) < 1,

summed over the blocks past ``J``, with ``E`` and ``D`` the sums of
``gamma^j e_j`` and ``gamma^j d_j`` over the last ``m`` levels.  This holds
for every certificate, and nothing is neglected, so it holds however roughly
``W`` was computed (by :func:`~wfametrics.bisim.largest_bisimulation` at its
default ``tol``).

Node ordering is best-first by node upper bound, ties broken by depth and
then by the word's base-k index (its symbols' positions in the sorted
alphabet read as base-k digits, first symbol most significant).  At equal
depth index order is lexicographic order, so among tied words the smallest
is expanded first and single-threaded runs are bit-identical.

Rounding
--------
``upper``, the least popped bound, is rounded outward once, after the search.
A node bound is built by sums and products of nonnegative floats.  If ``x``
and ``y`` are within ``(1-r)^a`` and ``(1-r)^b`` below exact (``r = 2^-53``),
``x + y`` is within ``(1-r)^(max(a,b)+1)`` and ``x y`` within ``(1-r)^(a+b+1)``.
At depth ``d``, ``gamma^d`` takes ``d - 1`` roundings, ``P(y)`` ``d + 1``, the
generic ``R`` ``J + n + 3`` (``J`` head levels summed, norms of ``n`` squares
scaled and added) and the node bound ``p = d + J + n + 4``, so the exact value
is below ``1 + 2pr`` times it.  Widening by ``(p + 1) 2^-52`` covers that and
its own two roundings, with ``d = depth_explored`` and ``J = max(64, m)``, or
64 for a ``node_bound`` passed in (the UMDP bound is an ``n``-term product);
``converged`` is judged before it.  Not counted: the products ``c_x . u`` and
``tau_s u``, which can cancel, are exact only to f64 roundoff, as the states;
and ``theta``, ``delta`` and the kernel rate ``rho_W`` are SVD results, with
errors of about ``n eps`` relative that the widening does not cover.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .bisim import Subspace, largest_bisimulation
from .core import Wfa, check_budget, checked_array, difference, discounted_sum, with_initial
from .jsr import _as_square_stack, _decode_word, extend_products, wfa_spectral_radius
from .linalg import _unit_scaled, max_spectral_norm, spectral_norm

DEFAULT_EPS = 1e-6
DEFAULT_BUDGET = 1_000_000
_CERT_MARGIN = 1e-12
_PRODUCT_CAP = 4096  # most products in one level of the certificate search
_COVECTOR_WORK = 8192  # most entries n * N in the node bound's N covectors
_COVECTOR_LEVELS = 64  # most covector levels J (unless the block length is longer)
_BALANCE_ITERS, _BALANCE_COND_CAP = 25, 1e8  # balance_scaling: rounds, largest d_max / d_min


def _check_gamma(gamma: float) -> None:
    """Reject a discount that is not a positive finite number (NaN included)."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


def _checked_scales(scales) -> list[float]:
    """Perturbation scales as floats; each must be finite and non-negative."""
    scales = [float(scale) for scale in scales]
    for scale in scales:
        if not 0.0 <= scale < math.inf:
            raise ValueError(f"perturbation scales must be finite and non-negative, got {scale}")
    return scales


class CannotCertifyError(Exception):
    """Raised when no tail certificate with gamma * theta < 1 (or no UMDP alpha-set) was found.

    The discount may still be admissible; retry with a larger search depth
    or a smaller gamma.
    """


@dataclass(frozen=True)
class TailBoundParams:
    """Certified growth data for geometric tail bounds.

    ``theta`` is the certified per-step rate over ``block_len``-step blocks in
    the working norm ``|v|_S = ||scaling @ v||_2``; ``step_norm``, the
    single-step cap ``max(1, max_s |tau_s|_S)``, is used by no bound and read
    by the benchmark's trace (``perfbench/spans.py``).  A ``theta`` that is
    negative or NaN (``inf`` certifies nothing but is kept) and a scaling
    that is not a finite square matrix raise ``ValueError``.
    """

    theta: float
    scaling: np.ndarray
    block_len: int
    step_norm: float

    def __post_init__(self):
        if not self.theta >= 0.0:
            raise ValueError(f"theta must be non-negative, got {self.theta}")
        object.__setattr__(self, "scaling", checked_array(self.scaling, "scaling", (None, None)))
        if self.scaling.shape[0] != self.scaling.shape[1]:
            raise ValueError(f"scaling must be square, got shape {self.scaling.shape}")
        check_budget(self.block_len, 1, "block_len")
        object.__setattr__(self, "block_len", int(self.block_len))


@dataclass(frozen=True)
class CertifiedInterval:
    """Bracket ``[lower, upper]`` for a seminorm or distance value."""

    lower: float
    upper: float
    gamma: float
    depth_explored: int
    nodes_expanded: int
    witness_prefix: tuple[str, ...]
    converged: bool = True

    def __post_init__(self):
        # written so that a NaN endpoint fails the test; a finite upper bounds lower
        if not (-1e-12 <= self.lower <= self.upper + 1e-12 and self.upper < math.inf):
            raise ValueError(f"invalid interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def admissible_gamma_bound(a: Wfa, depth: int = 8) -> float:
    """Largest certifiably admissible discount: 1 / (JSR upper bound).

    Any ``gamma`` strictly below the returned value satisfies
    ``gamma < 1/rho(a)``.  Returns ``inf`` when the transitions are nilpotent
    enough to give a zero upper bound.
    """
    upper = wfa_spectral_radius(a, depth).upper
    if upper == 0.0:
        return np.inf
    return 1.0 / upper


def balance_scaling(mats) -> np.ndarray:
    """Diagonal scaling roughly equalizing joint row and column norms.

    Heuristic only: any well-conditioned diagonal gives valid bounds, this one
    just tends to shrink ``max_s |tau_s|_S``.  Deterministic.  The stack is
    first divided by the power of two of its largest entry, which keeps the
    squares finite and every ratio the iteration takes exact.  Rejects a
    non-square or non-finite matrix with a ``ValueError`` naming its position.
    """
    stack = _as_square_stack(mats)
    n = stack.shape[1]
    if n == 0:
        return np.eye(0)
    stack = _unit_scaled(stack)
    d = np.ones(n)
    for _ in range(_BALANCE_ITERS):
        scaled = d[None, :, None] * stack / d[None, None, :]
        row = np.sqrt(np.sum(scaled**2, axis=(0, 2)))
        col = np.sqrt(np.sum(scaled**2, axis=(0, 1)))
        ok = (row > 0) & (col > 0)
        factor = np.ones(n)
        factor[ok] = (col[ok] / row[ok]) ** 0.25
        d = d * factor
        if d.max() / d.min() > _BALANCE_COND_CAP:
            d = np.clip(d, d.max() / _BALANCE_COND_CAP, None)
    d = d / np.exp(np.mean(np.log(d)))
    return np.diag(d)


def _candidate_scalings(mats):
    """Working-norm scalings to try: the identity, then balancing unless it is the identity.

    A generator: :func:`balance_scaling` runs only when the second scaling is asked for.
    """
    eye = np.eye(mats[0].shape[0])
    yield eye
    balanced = balance_scaling(mats)
    if not np.allclose(balanced, eye):
        yield balanced


def _conjugate(s_mat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``S T S^-1`` for each ``T`` in ``stack``: its spectral norms are the ``|T|_S``."""
    return s_mat @ stack @ np.linalg.inv(s_mat)


def _certificates(stack: np.ndarray, depth: int):
    """Candidate certificates of the matrices ``stack``, in the order they are tried.

    For each of :func:`_candidate_scalings`, yields the ``TailBoundParams`` of
    block lengths ``1..depth``.  Level 1 is the input matrices themselves and
    is always formed; the walk stops before a level m >= 2 of more than
    ``_PRODUCT_CAP`` products, and after the first level that overflows,
    which it yields with ``theta = inf`` (it certifies nothing).  Cost:
    O(k n^3) per scaling for the change of basis, plus k^m n-by-n products and
    their norms at each level m; each level is formed once, by extending the
    one before it, and the level-1 maximum norm is ``K``.  Over a
    0-dimensional space every product is empty, so every candidate has
    ``theta = 0``.

    The candidates are made as they are asked for.  The balancing scaling is
    computed only once the identity's levels are used up, so a caller that
    stops within the identity's levels (:func:`compute_tail_params` does,
    once one of them certifies) computes it only when the identity certifies
    nothing.
    """
    n, k = stack.shape[1], stack.shape[0]
    for s_mat in _candidate_scalings(stack):
        scaled = _conjugate(s_mat, stack)
        prods = np.eye(n)[None]
        for m in range(1, depth + 1):
            if m > 1 and k**m > _PRODUCT_CAP:
                break
            prods = extend_products(scaled, prods)
            finite = np.isfinite(prods).all()
            top = max_spectral_norm(prods) if finite else math.inf
            if m == 1:
                step = top
            theta = top ** (1.0 / m)
            yield TailBoundParams(theta=theta, scaling=s_mat, block_len=m, step_norm=max(1.0, step))
            if not finite:
                break


def compute_tail_params(a: Wfa, gamma: float, depth: int = 8) -> TailBoundParams:
    """Search for a scaling and block length certifying ``gamma * theta < 1``.

    Tries the identity scaling first, then a diagonal balancing scaling, with
    block lengths ``1..depth`` (for m >= 2, capped so no more than 4096
    length-m products are formed), up to the first certificate ``(S, m)``.
    Then it takes ``m + 1`` with the same ``S`` while ``k^(m+1) n^2`` is
    within 8,192 entries (and ``m + 1`` within ``depth``, the product cap
    and 64), ``m + 1`` certifies and its tail coefficient ``tau`` (see "Node
    bound" in the module docstring), ranked on the node bound's head formed
    once for the first certificate, is strictly smaller, and returns the
    last one taken; its ``step_norm`` is read by the benchmark's trace
    (``perfbench/spans.py``).  Raises :class:`CannotCertifyError` if nothing
    certifies; the discount may still be admissible at higher depth.
    """
    return _tail_plan(a, gamma, depth).params


def _tail_plan(a: Wfa, gamma: float, depth: int = 8) -> _TailPlan:
    """The walk of :func:`compute_tail_params`: the first certificate's plan, holding the one taken."""
    _check_gamma(gamma)
    check_budget(depth, 1, "depth")
    n, k, depth = a.dim, len(a.alphabet), int(depth)

    def certifies(params: TailBoundParams) -> bool:
        return gamma * params.theta < 1.0 - _CERT_MARGIN

    candidates = _certificates(a.trans_stack(), depth)
    first = next(filter(certifies, candidates), None)
    if first is None:
        raise CannotCertifyError(
            f"could not certify gamma * theta < 1 for gamma={gamma} "
            f"within block length {depth}; try a larger depth or smaller gamma"
        )
    plan = _TailPlan(a, gamma, first)
    # Within these caps the next level is the same scaling's, and its block is within the first head
    m = first.block_len + 1
    while m <= min(depth, _COVECTOR_LEVELS) and k**m <= _PRODUCT_CAP and k**m * n * n <= _COVECTOR_WORK:
        params = next(candidates)
        if not (certifies(params) and plan.terms(params)[0] < plan.terms(plan.params)[0]):
            break
        plan.params, m = params, m + 1
    return plan


class _TailPlan:
    """The node bound's covector head for the certificate ``params``, formed once per search.

    ``covectors`` stacks ``gamma^j c_x`` for the words of length ``j = 1..J``
    (level ``j`` from row ``level_starts[j-1]``), ``duals`` their rows ``S^-T
    gamma^j c_x`` and ``dual_norms`` the ``d_j``.  ``J`` is the most levels, up
    to ``_COVECTOR_LEVELS``, that keep ``n * N`` within ``_COVECTOR_WORK``, but
    at least ``m``; a certificate of the same scaling with ``m <= J`` shares
    the head, so the walk of :func:`_tail_plan` swaps ``params`` only.
    """

    def __init__(self, a: Wfa, gamma: float, params: TailBoundParams):
        n, k = a.dim, len(a.alphabet)
        if params.scaling.shape != (n, n):
            raise ValueError(f"scaling has shape {params.scaling.shape}, expected ({n}, {n})")
        self.gamma, self.params = gamma, params
        stack_t = gamma * a.trans_stack().transpose(0, 2, 1)
        levels, count = [a.beta[None, :, None]], 0
        with np.errstate(over="ignore"):
            while len(levels) <= params.block_len or (
                len(levels) <= _COVECTOR_LEVELS and max(n, 1) * (count + k ** len(levels)) <= _COVECTOR_WORK
            ):
                levels.append(extend_products(stack_t, levels[-1]))
                count += len(levels[-1])
            self.covectors = np.concatenate([level[:, :, 0] for level in levels[1:]])
            self.level_starts = np.cumsum([0] + [len(level) for level in levels[1:-1]])
            self.s_inv = np.linalg.inv(params.scaling)
            self.duals = self.covectors @ self.s_inv
            self.dual_norms = np.maximum.reduceat(np.linalg.norm(self.duals, axis=1), self.level_starts).tolist()

    def terms(self, params: TailBoundParams) -> tuple[float, float, float]:
        """``(tau, tail, (gamma*theta)^m)`` of the node bound for a certificate ``params`` of this scaling.

        ``tail`` sums the last ``m`` of the ``d_j`` and ``tau = tail gtm / (1 - gtm)``
        with ``gtm = (gamma*theta)^m``; raises :class:`CannotCertifyError` unless ``gtm < 1``.
        """
        m = params.block_len
        gtm = (self.gamma * params.theta) ** m
        if not gtm < 1.0:
            raise CannotCertifyError(f"tail series diverges: (gamma*theta)^m = {gtm}")
        tail = sum(self.dual_norms[-m:])
        return tail * gtm / (1.0 - gtm), tail, gtm


class NodeBound(Protocol):
    """A branch-and-bound node bound; see "Node bound" in the module docstring.

    A bound that returns lasso values also has ``lasso_length``, the number
    of symbols a lasso is written out to, and ``lasso_margin``, which covers
    the dropped tail and the rounding of its values.
    """

    def children(self, states: np.ndarray) -> tuple[list[float], list[float], list[float] | None]:
        """``|beta . u|`` and the bound on ``R(u)`` for each row ``u`` of ``states``; lasso values or None."""


class _BoundData:
    """The generic node bound: covector head and geometric tail, split by the kernel ``W``.

    ``W = {0}`` (``kernel.dim == 0``) leaves ``tau |u|_S``.  See "Node bound" in the module docstring.
    """

    def __init__(self, a: Wfa, plan: _TailPlan, kernel: Subspace):
        gamma, m, s_mat = plan.gamma, plan.params.block_len, plan.params.scaling
        tau, tail, gtm = plan.terms(plan.params)
        maps, coeffs = [s_mat], [tau]
        if kernel.dim:
            c_mat = np.linalg.qr(s_mat @ kernel.basis)[0]  # S Q S^-1 = C C^T
            in_w = c_mat.T @ s_mat
            out_w = s_mat - c_mat @ in_w  # S (I-Q)
            # T_b S^-1 C for the k^m blocks b: delta = max_b ||S (I-Q) T_b S^-1 C||
            # and the kernel's own block rate max_b ||C^T S T_b S^-1 C|| <= theta^m
            into_w, stack = (plan.s_inv @ c_mat)[None], a.trans_stack()
            for _ in range(m):
                into_w = extend_products(stack, into_w)
            escape = max_spectral_norm(out_w @ into_w)
            rate = min(gtm, gamma**m * max_spectral_norm(in_w @ into_w))
            starts = plan.level_starts[-m:]  # e_j over the last m levels, from the rows gamma^j S^-T c_x
            e_norms = np.linalg.norm(plan.duals[starts[0]:] @ c_mat, axis=1)
            e_sum = sum(np.maximum.reduceat(e_norms, starts - starts[0]).tolist())
            tau_w = (rate * e_sum + gamma**m * escape * tail / (1.0 - gtm)) / (1.0 - rate)
            maps, coeffs = [out_w, in_w], [tau, tau_w]
        self.beta, self.count, self.level_starts = a.beta, len(plan.covectors), plan.level_starts
        self.cols = np.hstack([plan.covectors.T] + [mat.T for mat in maps])
        self.norm_starts, self.norm_coeffs = a.dim * np.arange(len(maps)), np.array(coeffs)

    def children(self, states: np.ndarray) -> tuple[list[float], list[float], None]:
        # One product gives, for each row u, every |gamma^j c_x . u|, then S (I-Q) u
        # and C^T S u (or S u) entrywise (their squares are all the norms need).
        out = np.abs(states.dot(self.cols))
        heads = np.maximum.reduceat(out[:, :self.count], self.level_starts, axis=1)
        norms = np.sqrt(np.add.reduceat(np.square(out[:, self.count:]), self.norm_starts, axis=1))
        rems = heads.sum(axis=1) + norms.dot(self.norm_coeffs)
        return np.abs(states.dot(self.beta)).tolist(), rems.tolist(), None


def seminorm_interval(
    a: Wfa,
    v: np.ndarray,
    gamma: float,
    eps: float = DEFAULT_EPS,
    budget: int = DEFAULT_BUDGET,
    *,
    params: TailBoundParams | None = None,
    node_bound: NodeBound | None = None,
) -> CertifiedInterval:
    """Certified interval for the discounted seminorm of ``v``.

    Best-first branch-and-bound over the prefix tree: the lower bound is the
    best partial sum found (witnessed by ``witness_prefix``), the upper bound
    is the largest node bound on the frontier.  Terminates when the gap is at
    most ``eps`` or after ``budget`` node expansions; a budget exit still
    returns a valid (wide) interval with ``converged=False``.  ``params``
    defaults to ``compute_tail_params(a, gamma)``; for another certificate
    search depth pass ``params=compute_tail_params(a, gamma, depth=d)``.

    ``node_bound`` replaces the generic node bound (an extension point; see
    "Node bound" in the module docstring).  ``params`` configures only the
    generic bound, so passing it with ``node_bound`` raises ``ValueError``.
    Also raises ``ValueError`` unless ``gamma`` is positive and finite, ``eps``
    is positive, ``budget`` is a non-negative integer and ``v`` is finite, and,
    before any node is expanded, when the root's bound is not finite.
    """
    _check_gamma(gamma)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    check_budget(budget, 0)
    v = checked_array(v, "vector", (a.dim,))
    if node_bound is not None and params is not None:
        raise ValueError("params configures the generic node bound and is ignored with node_bound")
    symbols = a.alphabet
    k, n = len(symbols), a.dim
    # A node's k children are one product with the (k*n, n) stack of the tau_s,
    # written into an owning (k, n) array so that the heap keeps no views.
    # concatenate keeps the tau_s' memory layout (by rows or by columns), and
    # with it the BLAS kernel that tau_s @ u runs.
    stack_rows, child_shape = np.concatenate([a.trans[s] for s in symbols]), (k, n)
    heappush, heappop = heapq.heappush, heapq.heappop
    # best is the (length, word index) of the witness
    lower, best, upper, nodes_expanded = -math.inf, (0, 0), math.inf, 0
    # the best lasso less its margin (a floor for the gap test only), and where
    # it is: (depth and word index of the first row, rows, lasso values)
    lasso_floor, lasso_at = -math.inf, None
    # gpows[d] = gamma^(d+1) weighs the children of a depth-d node; it grows by
    # one entry at the first expansion at each depth.
    gpows = [gamma]
    # heap entries: (-node_upper, depth, word index, states, row, partial),
    # where a word s_1..s_d has index sum_j i(s_j) k^(d-j) with i the position
    # in the sorted alphabet, and the node's state is states[row]: a child
    # keeps its parent's array of children, so a row view is made only for
    # the nodes that are expanded, not for every node pushed.  The root is
    # the one child of the empty word, whose children are v[None], with
    # partial value 0.0 and weight gamma^0 = 1.0.  The pop is the loop's one
    # exit: the popped bound is the largest on the frontier, so on the gap
    # exit and the budget exit alike upper is the least popped bound.  Only
    # the root's bound can leave upper infinite (an overflow), and it is
    # rejected at the first pop, before any expansion.
    heap = []
    children, child_d, base, partial, gpow = v[None], 0, 0, 0.0, 1.0
    with np.errstate(over="ignore"):
        if node_bound is None:
            plan = _tail_plan(a, gamma) if params is None else _TailPlan(a, gamma, params)
            node_bound, params = _BoundData(a, plan, largest_bisimulation(a)), plan.params
        if a.dim == 0:  # after the bound, which checks params against the size
            return CertifiedInterval(0.0, 0.0, gamma, 0, 0, ())
        bound_children = node_bound.children
        while True:
            bvals, rems, lassos = bound_children(children)
            rows = len(bvals)
            if lassos is not None:
                top = partial + gpow * max(lassos) - node_bound.lasso_margin
                if top > lasso_floor:
                    lasso_floor, lasso_at = top, (child_d, base, rows, lassos)
            for i in range(rows):
                child_p = partial + gpow * bvals[i]
                if child_p > lower:
                    lower = child_p
                    best = (child_d, base + i)
                heappush(heap, (-(child_p + gpow * rems[i]), child_d, base + i, children, i, child_p))
            neg_u, d, idx, states, row, partial = heappop(heap)
            if -neg_u < upper:
                upper = -neg_u
            if not math.isfinite(upper):
                raise ValueError(f"the root node bound is {-neg_u}: the value overflows floating point")
            if upper - lower <= eps or upper - lasso_floor <= eps or nodes_expanded == budget:
                break
            gpow = gpows[d]
            if d + 1 == len(gpows):
                gpows.append(gpow * gamma)
            children = np.empty(child_shape)
            np.dot(stack_rows, states[row], children.reshape(k * n))
            child_d, base = d + 1, idx * k
            nodes_expanded += 1
    witness = _decode_word(*best, symbols)
    if lasso_at is not None:
        depth, first, rows, lassos = lasso_at
        c, i = divmod(lassos.index(max(lassos)), rows)
        word = _decode_word(depth, first + i, symbols)
        word += (symbols[c],) * max(node_bound.lasso_length - depth, 0)
        value = discounted_sum(with_initial(a, v), word, gamma)
        if value > lower:
            lower, witness = value, word
    upper, depth = max(upper, lower), len(gpows) - 1
    converged = upper - lower <= eps  # judged before the outward rounding, as the loop judges it
    head_levels = max(_COVECTOR_LEVELS, 0 if params is None else params.block_len)
    upper += upper * ((depth + head_levels + n + 5) * math.ulp(1.0))  # see "Rounding"
    return CertifiedInterval(
        lower=lower,
        upper=upper,
        gamma=gamma,
        depth_explored=depth,
        nodes_expanded=nodes_expanded,
        witness_prefix=witness,
        converged=converged,
    )


def _canonical_key(a: Wfa):
    return (
        a.dim,
        a.alphabet,
        a.alpha.tobytes(),
        a.beta.tobytes(),
        tuple(a.trans[s].tobytes() for s in a.alphabet),
    )


def distance(
    a1: Wfa,
    a2: Wfa,
    gamma: float,
    eps: float = DEFAULT_EPS,
    budget: int = DEFAULT_BUDGET,
) -> CertifiedInterval:
    """Certified interval for the discounted bisimulation distance.

    Builds the difference automaton, certifies the discount on it (raising
    :class:`CannotCertifyError` otherwise), and brackets the seminorm of its
    initial vector.  The pair is put in a canonical order first so that
    ``distance(a, b)`` and ``distance(b, a)`` run the exact same arithmetic
    and return identical intervals.
    """
    if _canonical_key(a2) < _canonical_key(a1):
        a1, a2 = a2, a1
    diff = difference(a1, a2)
    return seminorm_interval(diff, diff.alpha, gamma, eps, budget)


def distance_upper_bound(a1: Wfa, a2: Wfa, gamma: float) -> float:
    """Closed-form upper bound on the distance from parameter differences.

    Evaluates, in a working norm ``|v|_S = ||S v||_2`` with ``nu = gamma * theta``,

        (|a1| |b1-b2|_* + |b2|_* |a1-a2|) / (1-nu)
        + gamma |a1| |b2|_* max_s |t1_s - t2_s| / (1-nu)^2

    where ``theta = max_s max(|t1_s|_S, |t2_s|_S)`` is the joint per-step
    bound of both transition families (the inequality chain needs a bound on
    every single step, so block certificates do not apply).  ``S`` is the
    candidate scaling of smallest ``theta`` among those that certify
    ``nu < 1``; raises :class:`CannotCertifyError` when none does.
    """
    if a1.dim != a2.dim:
        raise ValueError(f"dimension mismatch: {a1.dim} vs {a2.dim}")
    if a1.alphabet != a2.alphabet:
        raise ValueError("alphabet mismatch")
    _check_gamma(gamma)
    stack1, stack2 = a1.trans_stack(), a2.trans_stack()
    stack = np.concatenate([stack1, stack2])
    candidates = _certificates(stack, 1)
    certified = [p for p in candidates if gamma * p.theta < 1.0 - _CERT_MARGIN]
    if not certified:
        raise CannotCertifyError(
            f"no common single-step certificate with gamma * theta < 1 at gamma={gamma}"
        )
    params = min(certified, key=lambda p: p.theta)
    s_mat, nu = params.scaling, gamma * params.theta
    s_inv = np.linalg.inv(s_mat)
    alpha_norm = float(np.linalg.norm(s_mat @ a1.alpha))
    beta_diff = float(np.linalg.norm(s_inv.T @ (a1.beta - a2.beta)))
    beta2_dual = float(np.linalg.norm(s_inv.T @ a2.beta))
    alpha_diff = float(np.linalg.norm(s_mat @ (a1.alpha - a2.alpha)))
    tau_diff = max_spectral_norm(_conjugate(s_mat, stack1 - stack2))
    return (alpha_norm * beta_diff + beta2_dual * alpha_diff) / (1.0 - nu) + (
        gamma * alpha_norm * beta2_dual * tau_diff
    ) / (1.0 - nu) ** 2


def truncated_seminorm(a: Wfa, v: np.ndarray, gamma: float, depth: int) -> float:
    """Depth-limited seminorm: max over length-``depth`` words of the partial sum.

    This is exactly the branch-and-bound lower-bound function at exhaustive
    depth, and equals ``depth + 1`` applications of the seminorm iteration
    operator to the zero seminorm.
    """
    _check_gamma(gamma)
    v = checked_array(v, "vector", (a.dim,))
    check_budget(depth, 0, "depth")
    stack = a.trans_stack()
    beta = a.beta
    states = v[None, :, None]
    totals = np.array([abs(float(beta @ v))])
    gpow = 1.0
    for _ in range(int(depth)):
        gpow *= gamma
        states = extend_products(stack, states)
        totals = np.repeat(totals, stack.shape[0]) + gpow * np.abs(states[:, :, 0] @ beta)
    return float(np.max(totals))


def parameter_continuity_experiment(
    a: Wfa,
    perturbation_scales,
    gamma: float,
    eps: float = DEFAULT_EPS,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[float, float, float, float]]:
    """Distance to randomly perturbed copies of ``a`` at several noise scales.

    For each scale, perturbs alpha, beta and every transition by a random
    direction rescaled to that exact norm (vector 2-norm for alpha/beta,
    spectral norm for matrices), then records
    ``(scale, distance lower, distance upper, closed-form bound)``.
    Rows where the discount cannot be certified for the pair carry NaNs.
    A scale that is negative or not finite raises ``ValueError``.
    """
    rows = []
    for idx, scale in enumerate(_checked_scales(perturbation_scales)):
        rng = np.random.default_rng([seed, idx])
        n = a.dim
        alpha = a.alpha + _random_direction(rng, (n,), scale)
        beta = a.beta + _random_direction(rng, (n,), scale)
        trans = {s: a.trans[s] + _random_direction(rng, (n, n), scale) for s in a.alphabet}
        perturbed = Wfa(alphabet=a.alphabet, alpha=alpha, beta=beta, trans=trans)
        try:
            interval = distance(a, perturbed, gamma, eps, budget)
            bound = distance_upper_bound(a, perturbed, gamma)
            rows.append((scale, interval.lower, interval.upper, bound))
        except CannotCertifyError:
            rows.append((scale, np.nan, np.nan, np.nan))
    return rows


def _random_direction(rng: np.random.Generator, shape: tuple[int, ...], norm: float) -> np.ndarray:
    """A standard normal draw of ``shape``, rescaled by :func:`_with_norm`."""
    if norm == 0.0 or 0 in shape:
        return np.zeros(shape)
    return _with_norm(rng.standard_normal(shape), norm)


def _with_norm(x: np.ndarray, norm: float) -> np.ndarray:
    """``x`` rescaled to ``norm``: the 2-norm of a vector, the spectral norm of a matrix."""
    return x * (norm / (spectral_norm(x) if x.ndim == 2 else np.linalg.norm(x)))
