"""Shared generators for the test suite.

Random automata are normalized so their transition spectral norms stay below
a chosen cap, which keeps small discounts certifiable everywhere without any
per-test tuning.
"""

import numpy as np
import pytest

from wfametrics import Wfa
from wfametrics.core import all_words  # noqa: F401  (re-exported for the tests)


def random_wfa(rng, n=3, alphabet=("a", "b"), norm_cap=0.9):
    """Random dense automaton with max transition spectral norm == norm_cap."""
    trans = {s: rng.standard_normal((n, n)) for s in alphabet}
    top = max(np.linalg.svd(m, compute_uv=False)[0] for m in trans.values())
    trans = {s: m * (norm_cap / top) for s, m in trans.items()}
    return Wfa(
        alphabet=tuple(alphabet),
        alpha=rng.standard_normal(n),
        beta=rng.standard_normal(n),
        trans=trans,
    )


def duplicated_copy(a):
    """Two non-interacting copies of ``a`` sharing the final weights.

    The diagonal differences ``(v, -v)`` form a bisimulation: they are killed
    by the duplicated beta and preserved by the block-diagonal transitions.
    """
    n = a.dim
    trans = {}
    for s, m in a.trans.items():
        big = np.zeros((2 * n, 2 * n))
        big[:n, :n] = m
        big[n:, n:] = m
        trans[s] = big
    return Wfa(
        alphabet=a.alphabet,
        alpha=np.concatenate([a.alpha, a.alpha]),
        beta=np.concatenate([a.beta, a.beta]),
        trans=trans,
    )


def pad_with_zero_state(a):
    """Append one unreachable state with zero final weight; same function."""
    n = a.dim
    trans = {}
    for s, m in a.trans.items():
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = m
        trans[s] = big
    return Wfa(
        alphabet=a.alphabet,
        alpha=np.concatenate([a.alpha, [0.0]]),
        beta=np.concatenate([a.beta, [0.0]]),
        trans=trans,
    )


def random_stochastic(rng, n):
    mat = rng.random((n, n)) + 1e-3
    return mat / mat.sum(axis=1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
