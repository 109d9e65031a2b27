"""Hankel blocks and SVD-based spectral learning of weighted automata.

A Hankel block collects the values ``f(ps)`` of a function on prefix/suffix
pairs, the symbol-shifted blocks ``f(p s s)``, and the boundary vectors
``f(p)`` / ``f(s)``.  When the block is complete (its rank equals the rank of
the full Hankel matrix), a truncated SVD recovers an equivalent automaton.

Gauge caveat: learned parameters are only determined up to similarity, so
closeness of a learned automaton is always judged through evaluations or the
bisimulation distance, never parameter-wise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bisim import minimize
from .core import (
    Wfa, Word, as_word, check_budget, check_document, checked_array, checked_symbols, load_json,
    matrix_map, prefix_states, reverse, symbol_list,
)
from .linalg import DEFAULT_TOL, check_tol, numerical_rank, rank_of, sign_flips, spectral_norm
from .metric import CannotCertifyError, _checked_scales, _with_norm, distance

_DEGENERATE_REL = 1e-14


@dataclass(frozen=True)
class HankelBlock:
    """Finite Hankel sub-block with shifted blocks and boundary vectors.

    Both index sets must contain the empty word so the initial and final
    weights can be read off the boundary vectors.
    """

    alphabet: tuple[str, ...]
    prefixes: tuple[Word, ...]
    suffixes: tuple[Word, ...]
    h: np.ndarray
    hsig: dict[str, np.ndarray]
    hp: np.ndarray
    hs: np.ndarray

    def __post_init__(self):
        alphabet = checked_symbols(self.alphabet, "alphabet")
        prefixes = tuple(as_word(p) for p in self.prefixes)
        suffixes = tuple(as_word(s) for s in self.suffixes)
        if () not in prefixes or () not in suffixes:
            raise ValueError("prefix and suffix sets must both contain the empty word")
        for word in prefixes + suffixes:
            if not all(sym in alphabet for sym in word):
                raise ValueError(f"index word {list(word)} has a symbol outside the alphabet {alphabet}")
        np_, ns = len(prefixes), len(suffixes)
        if set(self.hsig) != set(alphabet):
            raise ValueError("shifted blocks must cover exactly the alphabet")
        h = checked_array(self.h, "H", (np_, ns))
        hsig = {sym: checked_array(self.hsig[sym], f"Hsig[{sym!r}]", (np_, ns)) for sym in alphabet}
        hp = checked_array(self.hp, "hP", (np_,))
        hs = checked_array(self.hs, "hS", (ns,))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "prefixes", prefixes)
        object.__setattr__(self, "suffixes", suffixes)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "hsig", hsig)
        object.__setattr__(self, "hp", hp)
        object.__setattr__(self, "hs", hs)


def hankel_from_wfa(a: Wfa, prefixes: Sequence, suffixes: Sequence) -> HankelBlock:
    """Exact Hankel block of ``a`` on the given index sets.

    Entries come from evaluations: ``H[p, s] = f(ps)``, shifted blocks insert
    one symbol between prefix and suffix.  Both index sets must contain the
    empty word, as :class:`HankelBlock` checks.
    """
    prefixes = [a.check_word(p) for p in prefixes]
    suffixes = [a.check_word(s) for s in suffixes]

    rev = reverse(a)
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = np.array([prefix_states(a, p)[-1] for p in prefixes]).reshape(len(prefixes), a.dim)
        bwd = np.array([prefix_states(rev, s[::-1])[-1] for s in suffixes]).reshape(len(suffixes), a.dim)
        h = fwd @ bwd.T
        hsig = {sym: fwd @ a.trans[sym].T @ bwd.T for sym in a.alphabet}
        hp, hs = fwd @ a.beta, bwd @ a.alpha
    if not all(np.all(np.isfinite(m)) for m in (h, hp, hs, *hsig.values())):
        raise ValueError("the Hankel block of this automaton overflows floating point")
    return HankelBlock(
        alphabet=a.alphabet,
        prefixes=tuple(prefixes),
        suffixes=tuple(suffixes),
        h=h,
        hsig=hsig,
        hp=hp,
        hs=hs,
    )


def basis_is_complete(a: Wfa, block: HankelBlock, tol: float = DEFAULT_TOL) -> bool:
    """Whether the block's rank reaches the rank of the full Hankel matrix of ``a``."""
    check_tol(tol)
    return numerical_rank(block.h, tol) == minimize(a, tol).dim


def spectral_learn(block: HankelBlock, rank: int, tol: float = DEFAULT_TOL) -> Wfa:
    """Recover a rank-``rank`` automaton from a Hankel block via truncated SVD.

    With ``H ~ U D V^T`` the factors play the role of left/right evaluation
    maps, giving ``tau_s = V^T Hsig_s^T U D^-1``, initial weights ``V^T hs``
    and final weights ``D^-1 U^T hp`` (the assignment is validated by the
    round-trip tests rather than trusted from conventions).  Requesting a
    rank above the numerical rank of H warns and proceeds; degenerate
    singular values raise.
    """
    check_tol(tol)
    check_budget(rank, 1, "rank")
    rank = int(rank)
    np_, ns = block.h.shape
    if rank > min(np_, ns):
        raise ValueError(f"rank {rank} exceeds block size {min(np_, ns)}")
    u, sv, vt = np.linalg.svd(block.h)
    if sv[0] <= 0.0 or sv[rank - 1] <= _DEGENERATE_REL * sv[0]:
        raise ValueError(
            f"rank overestimated: singular value {rank} is {sv[rank - 1]:.3e} "
            f"(leading {sv[0]:.3e})"
        )
    numerical = rank_of(sv, tol)
    if rank > numerical:
        warnings.warn(f"requested rank {rank} exceeds numerical rank {numerical} of the block",
                      stacklevel=2)
    signs = sign_flips(u[:, :rank])
    u_r = u[:, :rank] * signs
    v_r = vt[:rank].T * signs
    d_inv = 1.0 / sv[:rank]

    trans = {
        sym: v_r.T @ block.hsig[sym].T @ (u_r * d_inv)
        for sym in block.alphabet
    }
    alpha = v_r.T @ block.hs
    beta = (u_r * d_inv).T @ block.hp
    return Wfa(alphabet=block.alphabet, alpha=alpha, beta=beta, trans=trans)


def perturbation_experiment(
    a: Wfa,
    prefixes: Sequence,
    suffixes: Sequence,
    noise_scales,
    gamma: float,
    eps: float = 1e-6,
    trials: int = 1,
    *,
    seed: int = 0,
    budget: int = 1_000_000,
) -> list[tuple[float, float, float, float, float, str]]:
    """Learning robustness sweep: perturb an exact block, learn, measure distance.

    For each noise scale and trial the block matrices are perturbed by random
    sign patterns rescaled to the exact target spectral norm (2-norm for the
    boundary vectors), an automaton is learned at the true minimal rank, and
    the certified distance to ``a`` is bracketed.  Rows are
    ``(scale, hankel_err, d_lower, d_upper, ratio, status)`` with
    ``ratio = d_upper / scale``; pairs whose discount cannot be certified are
    flagged ``"skipped"``.  Ranks are decided at ``DEFAULT_TOL``.  ``trials < 1``
    or a negative or non-finite scale raises ``ValueError``.
    """
    check_budget(trials, 1, "trials")
    noise_scales = _checked_scales(noise_scales)
    block = hankel_from_wfa(a, prefixes, suffixes)
    rank = minimize(a).dim
    if rank == 0:
        raise ValueError("the target automaton computes the zero function; nothing to learn")
    rows = []
    for idx, scale in enumerate(noise_scales):
        for trial in range(int(trials)):
            rng = np.random.default_rng([seed, idx, trial])
            noisy = _perturb_block(block, scale, rng)
            hankel_err = spectral_norm(noisy.h - block.h)
            try:
                learned = spectral_learn(noisy, rank)
                interval = distance(a, learned, gamma, eps, budget)
            except CannotCertifyError:
                rows.append((scale, hankel_err, np.nan, np.nan, np.nan, "skipped"))
                continue
            ratio = interval.upper / scale if scale > 0 else np.nan
            rows.append((scale, hankel_err, interval.lower, interval.upper, ratio, "ok"))
    return rows


def _signed_noise(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    if scale == 0.0:
        return np.zeros(shape)
    signs = rng.integers(0, 2, size=shape) * 2.0 - 1.0
    return _with_norm(signs * scale / np.sqrt(np.prod(shape)), scale)


def _perturb_block(block: HankelBlock, scale: float, rng: np.random.Generator) -> HankelBlock:
    shape = block.h.shape
    return HankelBlock(
        alphabet=block.alphabet,
        prefixes=block.prefixes,
        suffixes=block.suffixes,
        h=block.h + _signed_noise(rng, shape, scale),
        hsig={s: m + _signed_noise(rng, shape, scale) for s, m in block.hsig.items()},
        hp=block.hp + _signed_noise(rng, (shape[0],), scale),
        hs=block.hs + _signed_noise(rng, (shape[1],), scale),
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def block_to_dict(block: HankelBlock) -> dict:
    return {
        "alphabet": list(block.alphabet),
        "prefixes": [list(p) for p in block.prefixes],
        "suffixes": [list(s) for s in block.suffixes],
        "H": block.h.tolist(),
        "Hsig": {s: m.tolist() for s, m in block.hsig.items()},
        "hP": block.hp.tolist(),
        "hS": block.hs.tolist(),
    }


def block_from_dict(doc: Mapping) -> HankelBlock:
    fields = ("alphabet", "prefixes", "suffixes", "H", "Hsig", "hP", "hS")
    check_document(doc, "Hankel block", fields)
    return HankelBlock(
        alphabet=symbol_list(doc, "alphabet"),
        prefixes=_words(doc, "prefixes"),
        suffixes=_words(doc, "suffixes"),
        h=doc["H"],
        hsig=matrix_map(doc, "Hsig"),
        hp=doc["hP"],
        hs=doc["hS"],
    )


def _words(doc: Mapping, key: str) -> tuple[Word, ...]:
    words = doc[key]
    if not isinstance(words, list) or not all(isinstance(w, list) for w in words):
        raise ValueError(f"field {key!r} must be a list of words, each a list of symbols")
    return tuple(tuple(w) for w in words)


def load_block(path: str) -> HankelBlock:
    return load_json(path, block_from_dict)

