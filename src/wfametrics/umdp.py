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
non-negative, so the sup search does not need the generic norm bound of
:mod:`wfametrics.metric`, nor the JSR tail certificate and bisimulation
kernel behind it.  Any alpha-set ``{alpha_a}`` with

    alpha_a >= beta + gamma * max_b K_a alpha_b      (entrywise)

bounds the value still to come from a distribution ``u`` by
``R(u) <= max_a u . alpha_a - u . beta``: by induction on the horizon, one
backup of the best value from ``u K_a`` is at most ``u . alpha_a``.  This is
the fast informed bound of Hauskrecht (JAIR 2000) with a single observation.
The alpha-set comes from value iteration started at the constant
``max(beta) / (1 - gamma)``; the iteration decreases monotonically and every
iterate satisfies the inequality in exact arithmetic.  After it stops, every
``alpha_a`` is lifted by the measured floating-point violation divided by
``1 - gamma`` (the kernels are row-stochastic, so a constant lift ``c``
gains ``(1 - gamma) c`` of slack) plus a rounding margin, and the
inequality is checked again in floating point.  If that check fails (only
seen at ``1 - gamma < 3e-13``) the search raises ``CannotCertifyError``: the
generic bound cannot help there, as the transposed kernels have joint
spectral radius 1 and its certificate needs ``gamma < 1 - 1e-12``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .core import (
    Wfa, as_word, check_document, float_array, json_text, load_json, matrix_map,
    prefix_states, symbol_list,
)
from .metric import DEFAULT_BUDGET, DEFAULT_EPS, CannotCertifyError, CertifiedInterval
from .metric import seminorm_interval

_STOCHASTIC_TOL = 1e-12
# value iteration for the alpha-set stops at its floating-point fixed point or here
_ALPHA_ITERATIONS = 3000


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
        actions = tuple(sorted(self.actions))
        if len(actions) == 0 or len(set(actions)) != len(actions):
            raise ValueError("actions must be non-empty and free of duplicates")
        alpha = np.array(self.alpha, dtype=float)
        beta = np.array(self.beta, dtype=float)
        n = alpha.shape[0]
        if alpha.ndim != 1 or beta.shape != (n,):
            raise ValueError("alpha and beta must be vectors of equal length")
        for name, vec in (("alpha", alpha), ("beta (rewards)", beta)):
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} has non-finite entries")
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
            mat = np.array(self.trans[act], dtype=float)
            if mat.shape != (n, n):
                raise ValueError(f"kernel for {act!r} has shape {mat.shape}, expected ({n}, {n})")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"kernel for {act!r} has non-finite entries")
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
        beta.setflags(write=False)
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
    word = as_word(x)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if len(word) < horizon:
        raise ValueError(f"action string of length {len(word)} shorter than horizon {horizon}")
    for act in word:
        if act not in u.trans:
            raise ValueError(f"unknown action {act!r}; actions are {list(u.actions)}")
    total = 0.0
    gpow = 1.0
    for dist in prefix_states(umdp_to_wfa(u), word[: horizon - 1]):
        total += gpow * float(dist @ u.beta)
        gpow *= u.gamma
    return total


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

    The search uses the alpha-vector node bound of the module docstring.
    Raises ``ValueError`` when ``max(beta) / (1 - gamma)`` overflows, and
    :class:`~wfametrics.metric.CannotCertifyError` when the alpha-set fails its check.
    """
    a = umdp_to_wfa(u)
    bound = _AlphaVectorBound(_alpha_vectors(u), u.beta)
    return seminorm_interval(a, a.alpha, u.gamma, eps, budget, node_bound=bound)


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


def _alpha_vectors(u: Umdp) -> np.ndarray:
    """Alpha-set rows (one per action) that pass :func:`_is_supersolution`, or an error."""
    kernels = np.concatenate([u.trans[act] for act in u.actions])
    top = float(np.max(u.beta)) / (1.0 - u.gamma)
    if not np.isfinite(top):
        raise ValueError(f"the value bound max(beta) / (1 - gamma) = {top} overflows")
    alphas = np.full((len(u.actions), u.num_states), top)
    for _ in range(_ALPHA_ITERATIONS):
        new = _backup(kernels, u.beta, u.gamma, alphas)
        if not (new < alphas).any():
            break
        alphas = new
    violation = max(0.0, float(np.max(_backup(kernels, u.beta, u.gamma, alphas) - alphas)))
    # the lift leaves (1 - gamma) * lift - violation = margin of slack; zero rewards give zero
    margin = 2.0 * _rounding_slack(u.num_states, top)
    alphas = alphas + (violation + margin) / (1.0 - u.gamma)
    if not _is_supersolution(kernels, u.beta, u.gamma, alphas):
        raise CannotCertifyError(
            f"the alpha-vector bound fails its floating-point check at gamma={u.gamma}; "
            "try a smaller gamma"
        )
    return alphas


class _AlphaVectorBound:
    """Node bound ``R(u) <= max_a u . alpha_a - u . beta`` on distributions ``u``.

    Both numbers come from one product with ``[beta | alpha^T]``; the states
    and rewards are non-negative, so ``u . beta`` is already ``|beta . u|``.
    The k rows are reduced as Python lists, which is faster than numpy
    reductions on arrays this small.
    """

    def __init__(self, alphas: np.ndarray, beta: np.ndarray):
        self.weights = np.column_stack([beta, alphas.T])

    def children(self, states: np.ndarray) -> tuple[list[float], list[float]]:
        rows = states.dot(self.weights).tolist()
        return [row[0] for row in rows], [max(row[1:]) - row[0] for row in rows]


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
    n = doc["states"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"field 'states' must be an integer, got {n!r}")
    alpha = float_array(doc["alpha"], "field 'alpha'")
    beta = float_array(doc["beta"], "field 'beta'")
    if alpha.shape != (n,) or beta.shape != (n,):
        raise ValueError("fields 'alpha'/'beta' must have length 'states'")
    gamma = float_array(doc["gamma"], "field 'gamma'")
    if gamma.shape != ():
        raise ValueError("field 'gamma' must be a number")
    return Umdp(
        actions=symbol_list(doc, "actions"),
        alpha=alpha,
        beta=beta,
        trans=matrix_map(doc, "trans"),
        gamma=float(gamma),
    )


def load_umdp(path: str) -> Umdp:
    return load_json(path, umdp_from_dict)


def save_umdp(u: Umdp, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(umdp_to_dict(u)))
