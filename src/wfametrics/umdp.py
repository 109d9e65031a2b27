"""Unobservable MDPs with non-negative action-independent rewards.

The value of an action string is its expected discounted reward from the
initial distribution.  Such a UMDP maps onto a weighted automaton whose
discounted sums reproduce the truncated values exactly, which turns the
certified seminorm machinery into a bracket for the sup value over all
action sequences (the quantity whose threshold problem is undecidable,
Madani, Hanks & Condon, AIJ 2003, hence intervals rather than point
answers).

Alpha-vector node bound
-----------------------
The search states of a UMDP are distributions and its rewards are
non-negative, so the sup search does not need the generic covector bound of
:mod:`wfametrics.metric`, nor the JSR tail certificate and bisimulation
kernel behind it.  Any alpha-set ``{alpha_a}`` with

    alpha_a >= beta + gamma * max_b K_a alpha_b      (entrywise)

bounds the value still to come from a distribution ``u`` by
``R(u) <= max_a u . alpha_a - u . beta``: by induction on the horizon, one
backup of the best value from ``u K_a`` is at most ``u . alpha_a``.  This is
the fast informed bound of Hauskrecht (JAIR 2000) with a single observation.

The alpha-set is the fixed point of the inequality read as an equation.
That is the value of an MDP whose states are the pairs ``(a, s)`` and whose
action at ``(a, s)`` is the ``b`` of the max, so policy iteration reaches it
in a few linear solves of ``k * n`` unknowns, where value iteration would
need ``O(1 / (1 - gamma))`` backups.  It starts from ``b = a`` (each
``alpha_a`` is then the value of repeating ``a`` forever) and changes a
choice only where the gain beats a rounding slack, so rounding noise cannot
make it cycle.  After it stops, every ``alpha_a`` is lifted by the measured
floating-point violation divided by ``1 - gamma`` (the kernels are
row-stochastic, so a constant lift ``c`` gains ``(1 - gamma) c`` of slack)
plus a rounding margin, and the inequality is checked again in floating
point.  If that check fails (only seen at ``1 - gamma < 3e-13``) the search
raises ``CannotCertifyError``: the generic bound cannot help there, as the
transposed kernels have joint spectral radius 1 and its certificate needs
``gamma < 1 - 1e-12``.

Lasso lower bound
-----------------
Every infinite action sequence has a value at most the sup, so besides the
finite prefixes the search scores lassos: a prefix, then an action loop ``c``
repeated forever.  From a distribution ``u`` that lasso is worth ``u . v_c``
with ``v_c = (I - gamma^p K_c)^-1 R_c`` for a loop of ``p`` actions, where
``K_c`` is the kernel product along the loop and ``R_c`` the discounted
reward of one pass through it.  The loops are formed before the search, level
by level with :func:`~wfametrics.jsr.extend_products`: every loop of
``p`` actions while a level holds at most ``_LOOP_ENTRIES`` matrix entries
(``k^p n^2``) and all levels at most ``_LOOP_COUNT`` loops.  Only level 1
is formed when ``k = 1`` (a longer loop of one action repeats it) or when
level 2 would pass a cap.  The one-action loops of level 1,
``(I - gamma K_c)^-1 beta``, are the lassos the node bound returns with its
other products at every node (see "Node bound" in :mod:`wfametrics.metric`),
and its alpha-set starts from them.  After the search every lasso whose
prefix is a prefix of the returned witness (the empty one included) and
whose loop is any formed loop is scored as well.  The closed form is
rounded, so it only ranks lassos and closes the gap test less a margin.  The best lasso is written out as
the prefix followed by the loop up to ``L`` actions in all, with ``L`` the
smallest length at which ``gamma^(L+1) max(beta) / (1 - gamma)``, the most
the dropped tail can be worth, is at most ``eps / 100``.  That word's
forward-summed truncated value becomes ``lower`` when it beats the best so
far, and the word becomes ``witness_prefix``, so the witness can be much
longer than ``depth_explored``; ``converged`` is judged on that ``lower``.
``L`` grows like ``1 / (1 - gamma)``; when it exceeds ``_LASSO_LENGTH_CAP``
the search scores prefixes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from .core import (
    Wfa, check_budget, check_document, check_size, checked_array, checked_symbols, discounted_sum,
    load_json, matrix_map, prefix_states, save_json, symbol_list,
)
from .jsr import _decode_word, extend_products
from .metric import DEFAULT_BUDGET, DEFAULT_EPS, CannotCertifyError, CertifiedInterval, seminorm_interval

_STOCHASTIC_TOL = 1e-12
# policy iteration for the alpha-set stops when no choice gains beyond rounding, or here
_POLICY_ITERATIONS = 100
# longest written-out lasso; beyond it (gamma near 1) the search scores prefixes only
_LASSO_LENGTH_CAP = 4096
# lasso loops: at most this many matrix entries (k^p n^2) in one level of loops of p actions ...
_LOOP_ENTRIES = 1 << 15
# ... and at most this many loops over all levels
_LOOP_COUNT = 512


@dataclass(frozen=True)
class Umdp:
    """Actions, initial distribution, reward vector, row-stochastic kernels, discount."""

    actions: tuple[str, ...]
    alpha: np.ndarray
    beta: np.ndarray
    trans: dict[str, np.ndarray]
    gamma: float
    num_states: int = field(init=False)

    def __post_init__(self):
        actions = checked_symbols(self.actions, "actions")
        alpha = checked_array(self.alpha, "alpha", (None,))
        n = alpha.shape[0]
        beta = checked_array(self.beta, "beta (rewards)", (n,))
        if np.any(alpha < -_STOCHASTIC_TOL) or abs(alpha.sum() - 1.0) > _STOCHASTIC_TOL:
            raise ValueError("alpha must be a probability distribution (within 1e-12)")
        if np.any(beta < 0):
            raise ValueError("rewards must be non-negative")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if set(self.trans) != set(actions):
            raise ValueError("trans keys must match the action set")
        trans = {}
        for act in actions:
            mat = checked_array(self.trans[act], f"kernel for {act!r}", (n, n))
            if np.any(mat < -_STOCHASTIC_TOL) or np.any(mat > 1.0 + _STOCHASTIC_TOL):
                raise ValueError(f"kernel for {act!r} has entries outside [0, 1]")
            rows = mat.sum(axis=1)
            if np.any(np.abs(rows - 1.0) > _STOCHASTIC_TOL):
                raise ValueError(f"kernel for {act!r} has row sums {rows}, expected 1")
            mat = np.clip(mat, 0.0, None)
            mat = mat / mat.sum(axis=1, keepdims=True)
            mat.setflags(write=False)
            trans[act] = mat
        alpha = np.clip(alpha, 0.0, None)
        alpha = alpha / alpha.sum()
        alpha.setflags(write=False)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "num_states", n)


def umdp_value_truncated(u: Umdp, x: Iterable[str], horizon: int) -> float:
    """Discounted reward of the first ``horizon`` steps of action string ``x``.

    Computes ``sum_{t=1..horizon} gamma^(t-1) alpha' T_{x<t} beta`` from the
    forward states of :func:`umdp_to_wfa`, which are the state distributions.
    """
    a = umdp_to_wfa(u)
    word = a.check_word(x)
    check_budget(horizon, 1, "horizon")
    if len(word) < horizon:
        raise ValueError(f"action string of length {len(word)} shorter than horizon {horizon}")
    return discounted_sum(a, word[: int(horizon) - 1], u.gamma)


def umdp_to_wfa(u: Umdp) -> Wfa:
    """Weighted automaton computing the per-step reward terms of ``u``.

    Transitions are the transposed kernels so that column-vector propagation
    matches distribution propagation; for every action string and horizon the
    automaton's discounted absolute sums equal the truncated UMDP value.
    """
    return Wfa(
        alphabet=u.actions,
        alpha=u.alpha,
        beta=u.beta,
        trans={act: mat.T for act, mat in u.trans.items()},
    )


def umdp_sup_value_interval(
    u: Umdp, eps: float = DEFAULT_EPS, budget: int = DEFAULT_BUDGET
) -> CertifiedInterval:
    """Certified bracket for the sup over action sequences of the value of ``u``.

    The search uses the alpha-vector node bound and the lasso lower bound of
    the module docstring: at every node it scores the prefix followed by one
    action forever, and after the search the prefixes of the witness followed
    by any action loop of up to ``p`` actions (``p`` from the entry and count
    caps, 1 for a single action).  The node count does not depend on the
    longer loops; only ``lower``, ``witness_prefix`` and ``converged`` can.
    Raises ``ValueError`` when ``max(beta) / (1 - gamma)`` overflows, ``eps``
    is not positive or ``budget`` is not a non-negative integer, all before
    the alpha-set is built, and
    :class:`~wfametrics.metric.CannotCertifyError` when the alpha-set fails its check.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    check_budget(budget, 0)
    top = float(np.max(u.beta)) / (1.0 - u.gamma)
    if not np.isfinite(top):
        raise ValueError(f"the value bound max(beta) / (1 - gamma) = {top} overflows")
    k, n = len(u.actions), u.num_states
    length = None  # the written-out lasso length L, or None without lassos
    if top > 0:  # with zero rewards every lasso is worth 0
        # the smallest L with gamma^(L+1) * top <= eps / 100
        steps = (math.log(eps) - math.log(100.0) - math.log(top)) / math.log(u.gamma)
        length = max(0, math.ceil(max(steps, 0.0)) - 1)
        if length > _LASSO_LENGTH_CAP:
            length = None
    loops = _loop_values(u, 1 if length is None else _longest_loop(k, n))
    stationary = loops[:k]
    lassos = ()  # no lasso rows
    if length is not None:
        margin = eps / 100 + (length + 2 / (1 - u.gamma)) * _rounding_slack(n, top)
        lassos = (stationary, length, margin)
    a = umdp_to_wfa(u)
    bound = _AlphaVectorBound(_alpha_vectors(u, stationary, top), u.beta, *lassos)
    iv = seminorm_interval(a, a.alpha, u.gamma, eps, budget, node_bound=bound)
    if length is None:
        return iv
    return _with_best_loop(a, u.gamma, eps, iv, loops, length)


def _longest_loop(k: int, n: int) -> int:
    """Longest loop length ``p`` within ``_LOOP_ENTRIES`` and ``_LOOP_COUNT``; 1 when ``k = 1``."""
    p, count = 1, k
    while k > 1 and k ** (p + 1) * n * n <= _LOOP_ENTRIES and count + k ** (p + 1) <= _LOOP_COUNT:
        p, count = p + 1, count + k ** (p + 1)
    return p


def _loop_values(u: Umdp, longest: int) -> np.ndarray:
    """Rows ``(I - gamma^p K_c)^-1 R_c``, the value of repeating loop ``c`` forever, for ``|c| <= longest``.

    Loops are in order of length, then in lexicographic order of the
    actions' positions, so row ``c`` of the first ``k`` is action ``c``
    repeated.  The level of ``p`` actions holds the transposed products
    ``K_c^T`` as :func:`~wfametrics.jsr.extend_products` forms them, and
    ``R_c = sum_{j<p} gamma^j K_{c<=j} beta`` grows from the level before.
    """
    gens = np.stack([u.trans[act].T for act in u.actions])
    k, n = gens.shape[:2]
    eye = np.eye(n)
    prods, passes, systems, rhs = eye[None], np.zeros((1, n)), [], []
    for p in range(1, longest + 1):
        # R_{xs} = R_x + gamma^(p-1) K_x beta for each action s appended to x
        passes = np.repeat(passes + u.gamma ** (p - 1) * (u.beta @ prods), k, axis=0)
        prods = extend_products(gens, prods)
        systems.append(eye - u.gamma**p * prods.transpose(0, 2, 1))
        rhs.append(passes)
    return _solve(np.concatenate(systems), np.concatenate(rhs)[..., None])[..., 0]


def _with_best_loop(a: Wfa, gamma: float, eps: float, iv: CertifiedInterval, loops: np.ndarray,
                    length: int) -> CertifiedInterval:
    """``iv`` with the best lasso on a prefix of its witness written out, when that beats ``lower``.

    See "Lasso lower bound" in the module docstring; ``loops`` are the rows
    of :func:`_loop_values` and ``length`` is ``L``.
    """
    stem = iv.witness_prefix
    states = prefix_states(a, stem)
    gpows = gamma ** np.arange(len(stem) + 1)
    rewards = gpows * (states @ a.beta)
    values = states @ loops.T
    rows = values.argmax(axis=1)  # the best loop after each prefix
    scores = gpows * values.max(axis=1)
    scores[1:] += np.cumsum(rewards[:-1])
    t = int(np.argmax(scores))
    row = int(rows[t])
    k, p = len(a.alphabet), 1
    while row >= k**p:
        row, p = row - k**p, p + 1
    loop = _decode_word(p, row, a.alphabet)
    tail = max(length - t, 0)
    word = stem[:t] + (loop * (tail // p + 1))[:tail]
    if word == stem:  # the witness is that lasso already
        return iv
    value = discounted_sum(a, word, gamma)
    if not value > iv.lower:
        return iv
    return replace(iv, lower=value, upper=max(iv.upper, value), witness_prefix=word,
                   converged=iv.converged or iv.upper - value <= eps)


def _backup(kernels: np.ndarray, beta: np.ndarray, gamma: float, alphas: np.ndarray) -> np.ndarray:
    """Row ``a`` is ``beta + gamma * max_b K_a alpha_b`` for the alpha-set rows ``alphas``.

    ``kernels`` stacks the ``K_a`` vertically: one 2-d product is faster than
    a batched one at these sizes.
    """
    return beta + gamma * (kernels @ alphas.T).max(axis=1).reshape(alphas.shape)


def _rounding_slack(n: int, scale: float) -> float:
    """Twice the rounding error bound of :func:`_backup` on n states with entries up to ``scale``."""
    return (n + 2) * np.finfo(float).eps * scale


def _is_supersolution(kernels, beta, gamma, alphas) -> bool:
    """``alphas >= beta + gamma max_b K_a alpha_b`` entrywise, beyond the rounding of the right side."""
    slack = _rounding_slack(alphas.shape[1], float(np.max(alphas)))
    return bool(np.all(alphas >= _backup(kernels, beta, gamma, alphas) + slack))


def _solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``mat^-1 rhs`` for ``mat = I - gamma P`` with ``P`` row-stochastic."""
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        raise CannotCertifyError("I - gamma P is singular in floating point; try a smaller gamma") from None


def _alpha_vectors(u: Umdp, alphas: np.ndarray, top: float) -> np.ndarray:
    """Alpha-set rows (one per action) that pass :func:`_is_supersolution`, or an error.

    Policy iteration on the ``(a, s)`` pairs, from the one-action loop values
    ``alphas`` of :func:`_loop_values`; ``top`` is ``max(beta) / (1 - gamma)``.
    See the module docstring.
    """
    kernels = np.concatenate([u.trans[act] for act in u.actions])
    k, n = len(u.actions), u.num_states
    pairs = np.arange(k * n)
    rewards = np.tile(u.beta, k)
    policy = np.repeat(np.arange(k), n)  # b = a, whose value is the stationary one
    slack = _rounding_slack(n, top)
    for _ in range(_POLICY_ITERATIONS):
        gains = kernels @ alphas.T  # gains[(a, s), b] = K_a[s] . alpha_b
        choice = gains.argmax(axis=1)
        better = gains[pairs, choice] > gains[pairs, policy] + slack
        if not better.any():
            break
        policy = np.where(better, choice, policy)
        # row (a, s) of the system is K_a[s] placed in the block of its choice b
        system = np.zeros((k * n, k * n))
        system[pairs[:, None], policy[:, None] * n + np.arange(n)] = -u.gamma * kernels
        system[pairs, pairs] += 1.0
        alphas = _solve(system, rewards).reshape(k, n)
    violation = max(0.0, float(np.max(_backup(kernels, u.beta, u.gamma, alphas) - alphas)))
    # the lift leaves (1 - gamma) * lift - violation = margin of slack; zero rewards give zero
    margin = 2.0 * _rounding_slack(n, top)
    alphas = alphas + (violation + margin) / (1.0 - u.gamma)
    if not _is_supersolution(kernels, u.beta, u.gamma, alphas):
        raise CannotCertifyError(
            f"the alpha-vector bound fails its floating-point check at gamma={u.gamma}; "
            "try a smaller gamma"
        )
    return alphas


class _AlphaVectorBound:
    """Node bound ``R(u) <= max_a u . (alpha_a - beta)`` on distributions ``u``, with lassos.

    All numbers come from one product of ``[beta; alphas - beta; lassos]``
    (one row each) with the transposed states, read as one flat list: the
    ``m`` partial values ``u . beta`` come first, then the ``k`` alpha rows,
    then the lasso values in one slice, ``c * m + i`` for lasso ``c`` of row
    ``i``.  The states and rewards are non-negative, so ``u . beta`` is
    already ``|beta . u|``.  The short rows are reduced as Python lists,
    which is faster than numpy reductions on arrays this small.  Without
    ``lassos`` (the rows ``v_c``) the third item is ``None``.
    """

    def __init__(self, alphas: np.ndarray, beta: np.ndarray, lassos: np.ndarray | None = None,
                 lasso_length: int = 0, lasso_margin: float = 0.0):
        self.weights_t = np.vstack([beta, alphas - beta] + ([] if lassos is None else [lassos]))
        self.k = len(alphas)
        self.lasso_length, self.lasso_margin = lasso_length, lasso_margin

    def children(self, states: np.ndarray) -> tuple[list[float], list[float], list[float] | None]:
        m = len(states)
        flat = self.weights_t.dot(states.T).ravel().tolist()
        end = (self.k + 1) * m
        return flat[:m], [max(flat[i:end:m]) for i in range(m, 2 * m)], flat[end:] or None


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def umdp_to_dict(u: Umdp) -> dict:
    return {
        "actions": list(u.actions),
        "states": u.num_states,
        "alpha": u.alpha.tolist(),
        "beta": u.beta.tolist(),
        "trans": {a: m.tolist() for a, m in u.trans.items()},
        "gamma": u.gamma,
    }


def umdp_from_dict(doc: Mapping) -> Umdp:
    check_document(doc, "UMDP", ("actions", "states", "alpha", "beta", "trans", "gamma"))
    check_size(doc, "states")
    gamma = doc["gamma"]
    if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
        raise ValueError(f"field 'gamma' must be a number, got {gamma!r}")
    return Umdp(actions=symbol_list(doc, "actions"), alpha=doc["alpha"], beta=doc["beta"],
                trans=matrix_map(doc, "trans"), gamma=float(gamma))


def load_umdp(path: str) -> Umdp:
    return load_json(path, umdp_from_dict)


def save_umdp(u: Umdp, path: str) -> None:
    save_json(umdp_to_dict(u), path)
