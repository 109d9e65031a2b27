"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -v -s`` to see
them inline).  Runtime limits are asserted with the stated budgets.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from wfametrics import (
    Umdp,
    Wfa,
    difference,
    distance,
    distance_upper_bound,
    evaluate,
    hankel_from_wfa,
    is_observable,
    is_reachable,
    jsr_bounds,
    minimize,
    perturbation_experiment,
    seminorm_interval,
    spectral_learn,
    truncated_seminorm,
    umdp_sup_value_interval,
    umdp_to_wfa,
    umdp_value_truncated,
)
from wfametrics.cli import main as cli_main
from wfametrics.core import save_wfa
from conftest import (
    all_words,
    duplicated_copy,
    pad_with_zero_state,
    random_stochastic,
    random_wfa,
)


def criterion(num, description, limit_seconds=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"PASS criterion {num}: {description} ({elapsed:.2f}s)")
            if limit_seconds is not None:
                assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s over {limit_seconds}s"
        return run
    return wrap


def one_state(tau):
    return Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[tau]]})


def minimal_random_wfa(rng, n):
    """Random automaton rejected until observable and reachable (hence minimal)."""
    while True:
        a = random_wfa(rng, n=n, norm_cap=0.7)
        if is_observable(a) and is_reachable(a):
            return a


@criterion(1, "closed-form distance regression on the one-letter growth pair")
def test_criterion_01_closed_form_regression():
    gamma = 0.5
    for i in (1, 2, 3):
        expected = 1.0 / (1.0 - gamma * (1.0 + 2.0 ** (-i))) - 1.0 / (1.0 - gamma)
        start = time.perf_counter()
        iv = distance(one_state(1.0), one_state(1.0 + 2.0 ** (-i)), gamma, eps=1e-6)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert iv.width <= 1e-6
        assert iv.lower - 1e-9 <= expected <= iv.upper + 1e-9


@criterion(2, "distance kernel: padded equivalents collapse, distinct pairs separate", 30)
def test_criterion_02_kernel_property():
    rng = np.random.default_rng(101)
    gamma = 0.4
    for k in range(10):
        a = minimal_random_wfa(rng, n=int(rng.integers(1, 4)))
        iv = distance(a, pad_with_zero_state(a), gamma, eps=1e-6)
        assert iv.upper <= 1e-6
    for k in range(10):
        a1 = minimal_random_wfa(rng, n=int(rng.integers(1, 4)))
        a2 = minimal_random_wfa(rng, n=int(rng.integers(1, 4)))
        iv = distance(a1, a2, gamma, eps=1e-3, budget=20_000)
        assert iv.lower > 0.0


@criterion(3, "seminorm kernel on duplicated-copy automata", 30)
def test_criterion_03_seminorm_kernel():
    rng = np.random.default_rng(202)
    gamma = 0.4
    base = minimal_random_wfa(rng, n=2)
    dup = duplicated_copy(base)
    n = base.dim
    # vectors (v, -v) span the known largest bisimulation of the duplicate
    for _ in range(20):
        v = rng.standard_normal(n)
        vec = np.concatenate([v, -v])
        iv = seminorm_interval(dup, vec, gamma, eps=1e-6)
        assert iv.upper <= 1e-6
    # random unit vectors with complement projection at least 0.1 (vectors
    # with vanishing projection have vanishing seminorm, so a floor needs a
    # bounded-away projection)
    count = 0
    while count < 20:
        vec = rng.standard_normal(2 * n)
        vec /= np.linalg.norm(vec)
        if np.linalg.norm(vec[:n] + vec[n:]) / np.sqrt(2) < 0.1:
            continue
        iv = seminorm_interval(dup, vec, gamma, eps=1e-4)
        assert iv.lower >= 1e-3
        count += 1


@criterion(4, "depth-T truncation equals value iteration of the seminorm operator")
def test_criterion_04_truncation_is_value_iteration():
    rng = np.random.default_rng(303)
    a = random_wfa(rng, n=2, norm_cap=0.8)
    gamma = 0.6

    def value_iteration(v, applications):
        # independent recursion: F(s)(v) = |beta(v)| + gamma max_s s(tau_s v)
        if applications == 0:
            return 0.0
        return abs(float(a.beta @ v)) + gamma * max(
            value_iteration(a.trans[s] @ v, applications - 1) for s in a.alphabet
        )

    for depth in range(7):
        for _ in range(5):
            v = rng.standard_normal(2)
            lhs = truncated_seminorm(a, v, gamma, depth)
            rhs = value_iteration(v, depth + 1)
            assert abs(lhs - rhs) <= 1e-12


@criterion(5, "joint spectral radius brackets", 20)
def test_criterion_05_jsr_brackets():
    rng = np.random.default_rng(404)
    # normal single matrices: exact radius known, brackets close at small depth
    sym = rng.standard_normal((3, 3))
    sym = (sym + sym.T) / 2
    cases = [
        (np.eye(3), 1.0),
        (np.diag([0.3, -1.7, 0.9]), 1.7),
        (0.8 * np.array([[0.0, -1.0], [1.0, 0.0]]), 0.8),
        (sym, float(np.max(np.abs(np.linalg.eigvalsh(sym))))),
    ]
    for mat, exact in cases:
        b = jsr_bounds([mat], depth=10)
        assert b.lower - 1e-9 <= exact <= b.upper + 1e-9
        assert b.upper - b.lower <= 1e-6

    pair = [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])]
    b = jsr_bounds(pair, depth=12)
    # independent brute-force enumeration oracle at depth 12
    lower_bf, upper_bf = 0.0, np.inf
    level = [np.eye(2)]
    for t in range(1, 13):
        level = [m @ p for p in level for m in pair]
        lower_bf = max(lower_bf, max(
            np.max(np.abs(np.linalg.eigvals(p))) ** (1.0 / t) for p in level
        ))
        upper_bf = min(upper_bf, max(
            np.linalg.norm(p, ord=2) for p in level
        ) ** (1.0 / t))
    assert b.lower - 1e-9 <= upper_bf
    assert b.upper + 1e-9 >= lower_bf
    assert abs(b.lower - lower_bf) <= 1e-9
    assert b.upper - b.lower <= 0.1


@criterion(6, "closed-form bound dominates certified distances", 60)
def test_criterion_06_bound_dominance():
    rng = np.random.default_rng(505)
    gamma = 0.3
    for _ in range(50):
        a = random_wfa(rng, n=3, norm_cap=0.7)
        scale = 10.0 ** rng.uniform(-4, -1)
        b = Wfa(
            alphabet=a.alphabet,
            alpha=a.alpha + scale * rng.standard_normal(3),
            beta=a.beta + scale * rng.standard_normal(3),
            trans={s: a.trans[s] + scale * rng.standard_normal((3, 3)) for s in a.alphabet},
        )
        bound = distance_upper_bound(a, b, gamma)  # raises unless gamma * theta < 1
        iv = distance(a, b, gamma, eps=1e-6, budget=200_000)
        assert bound >= iv.lower - 1e-12
        if iv.converged:
            assert bound >= iv.upper - 1e-9


@criterion(7, "spectral learning round-trip and perturbation ratios", 120)
def test_criterion_07_spectral_learning():
    rng = np.random.default_rng(606)
    gamma = 0.3
    for _ in range(10):
        a = minimal_random_wfa(rng, n=int(rng.integers(1, 4)))
        words = all_words(a.alphabet, a.dim)
        block = hankel_from_wfa(a, words, words)
        learned = spectral_learn(block, rank=a.dim)
        iv = distance(a, learned, gamma, eps=1e-6)
        assert iv.upper <= 1e-6

    target = minimal_random_wfa(rng, n=2)
    words = all_words(target.alphabet, 2)
    rows = perturbation_experiment(
        target, words, words, [1e-2, 1e-3, 1e-4], gamma, eps=1e-7, seed=606
    )
    assert all(row[5] == "ok" for row in rows)
    ratios = [row[4] for row in rows]
    assert max(ratios) / min(ratios) <= 10.0


@criterion(8, "UMDP reduction identity and single-action resolvent", 10)
def test_criterion_08_umdp_reduction():
    rng = np.random.default_rng(707)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        u = Umdp(
            actions=("a", "b"),
            alpha=(lambda p: p / p.sum())(rng.random(n) + 1e-3),
            beta=rng.random(n),
            trans={s: random_stochastic(rng, n) for s in ("a", "b")},
            gamma=float(rng.uniform(0.3, 0.95)),
        )
        a = umdp_to_wfa(u)
        for _ in range(20):
            word = tuple(rng.choice(u.actions, size=30))
            lhs = umdp_value_truncated(u, word, 30)
            state = a.alpha
            rhs = 0.0
            for t in range(30):
                rhs += u.gamma**t * abs(float(a.beta @ state))
                state = a.trans[word[t]] @ state
            assert abs(lhs - rhs) <= 1e-12

    for _ in range(5):
        trans = random_stochastic(rng, 3)
        u = Umdp(
            actions=("a",),
            alpha=(lambda p: p / p.sum())(rng.random(3) + 1e-3),
            beta=rng.random(3),
            trans={"a": trans},
            gamma=0.9,
        )
        iv = umdp_sup_value_interval(u, eps=1e-6)
        exact = float(u.alpha @ np.linalg.solve(np.eye(3) - u.gamma * trans, u.beta))
        assert iv.lower - 1e-9 <= exact <= iv.upper + 1e-9


@criterion(9, "pseudometric laws and depth-T seminorm axioms")
def test_criterion_09_pseudometric_laws():
    rng = np.random.default_rng(808)
    gamma = 0.3
    for _ in range(5):
        a1 = random_wfa(rng, n=2, norm_cap=0.7)
        a2 = random_wfa(rng, n=3, norm_cap=0.7)
        iv12 = distance(a1, a2, gamma, eps=1e-8)
        iv21 = distance(a2, a1, gamma, eps=1e-8)
        assert iv12.lower == iv21.lower and iv12.upper == iv21.upper

    for _ in range(25):
        a = random_wfa(rng, n=2, norm_cap=0.7)
        b = random_wfa(rng, n=2, norm_cap=0.7)
        c = random_wfa(rng, n=2, norm_cap=0.7)
        ab = distance(a, b, gamma, eps=1e-8)
        bc = distance(b, c, gamma, eps=1e-8)
        ac = distance(a, c, gamma, eps=1e-8)
        assert ac.lower <= ab.upper + bc.upper + 1e-9

    a = random_wfa(rng, n=3, norm_cap=0.8)
    for _ in range(20):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        base = truncated_seminorm(a, u, gamma, 5)
        assert truncated_seminorm(a, 2.0 * u, gamma, 5) == 2.0 * base
        assert truncated_seminorm(a, -u, gamma, 5) == base
        c = float(rng.uniform(0.1, 3.0))
        assert abs(truncated_seminorm(a, c * u, gamma, 5) - c * base) <= 1e-9 * (1 + base)
        sub = (
            truncated_seminorm(a, u + v, gamma, 5)
            - truncated_seminorm(a, u, gamma, 5)
            - truncated_seminorm(a, v, gamma, 5)
        )
        assert sub <= 1e-9


@criterion(10, "single-threaded artifact determinism")
def test_criterion_10_determinism(tmp_path):
    rng = np.random.default_rng(909)
    a = random_wfa(rng, n=2, norm_cap=0.7)
    src = tmp_path / "a.json"
    save_wfa(a, str(src))
    prefix_file = tmp_path / "p.txt"
    prefix_file.write_text("\na\nb\n")

    def artifacts(tag):
        paths = {
            "continuity": tmp_path / f"cont_{tag}.csv",
            "learn": tmp_path / f"learn_{tag}.csv",
            "minimized": tmp_path / f"min_{tag}.json",
            "block": tmp_path / f"block_{tag}.json",
        }
        assert cli_main(["--threads", "1", "experiment", "continuity", str(src),
                         "--gamma", "0.3", "--scales", "0.01", "0.001",
                         "--seed", "13", "-o", str(paths["continuity"])]) == 0
        assert cli_main(["--threads", "1", "experiment", "learn", str(src),
                         "--gamma", "0.3", "--scales", "0.01", "0.001",
                         "--seed", "13", "-o", str(paths["learn"])]) == 0
        assert cli_main(["--threads", "1", "minimize", str(src),
                         "-o", str(paths["minimized"])]) == 0
        assert cli_main(["--threads", "1", "hankel", str(src),
                         "--prefixes", str(prefix_file), "--suffixes", str(prefix_file),
                         "-o", str(paths["block"])]) == 0
        return {k: p.read_bytes() for k, p in paths.items()}

    first = artifacts("one")
    second = artifacts("two")
    assert first == second
