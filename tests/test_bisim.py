import itertools

import numpy as np
import pytest

from wfametrics import (
    Wfa,
    evaluate,
    is_observable,
    is_reachable,
    largest_bisimulation,
    minimize,
    reachable_subspace,
    reverse,
    states_bisimilar,
    with_initial,
)
from wfametrics.bisim import Subspace
from wfametrics.linalg import DEFAULT_TOL, null_basis, orth_basis
from conftest import all_words, duplicated_copy, random_wfa


def halving_automaton():
    """Minimal one-state automaton for f(x) = 2^-len(x)."""
    return Wfa(alphabet=("a", "b"), alpha=[1.0], beta=[1.0],
               trans={"a": [[0.5]], "b": [[0.5]]})


def observability_kernel_oracle(a, max_len=None):
    """ker of the stacked observability rows beta^T tau_x, |x| <= n-1."""
    if max_len is None:
        max_len = max(a.dim - 1, 0)
    rows = []
    for word in all_words(a.alphabet, max_len):
        covec = np.array(a.beta)
        for sym in reversed(word):
            covec = covec @ a.trans[sym]
        rows.append(covec)
    mat = np.array(rows)
    _, sv, vt = np.linalg.svd(mat)
    rank = int(np.sum(sv > 1e-9 * sv[0])) if sv.size and sv[0] > 0 else 0
    return vt[rank:].T


def fixed_point_bisimulation(a, tol=1e-9):
    """Reference: the shrinking fixed point W0 = ker(beta), W_{k+1} = {v in W_k : T[s] v in W_k}."""
    n = a.dim
    basis = null_basis(a.beta.reshape(1, n), tol)
    mats = [a.trans[s] for s in a.alphabet]
    while basis.shape[1] > 0:
        comp = np.eye(n) - basis @ basis.T
        new_basis = null_basis(np.vstack([comp] + [comp @ m for m in mats]), tol)
        if new_basis.shape[1] == basis.shape[1]:
            return new_basis
        basis = new_basis
    return basis


def full_svd_closure(a, tol=1e-9):
    """Reference reachable subspace: each round one SVD of ``[Q | T[s] Q for every s]``."""
    n = a.dim
    basis = orth_basis(a.alpha.reshape(n, 1), tol)
    mats = [a.trans[s] for s in a.alphabet]
    while 0 < basis.shape[1] < n:
        rank = basis.shape[1]
        basis = orth_basis(np.hstack([basis] + [m @ basis for m in mats]), tol)
        if basis.shape[1] == rank:
            break
    return basis


def closure_sweep_family(rng, kind):
    """A seeded automaton of up to 50 states: generic, a duplicated copy, or one symbol."""
    n = int(rng.integers(2, 51))
    if kind == "random":
        return random_wfa(rng, n=n, alphabet=("a", "b", "c")[: int(rng.integers(1, 4))])
    if kind == "duplicated":
        return duplicated_copy(random_wfa(rng, n=max(n // 2, 1)))
    return random_wfa(rng, n=n, alphabet=("a",))


def hidden_reachable_family(rng, scale_exp):
    """Block upper-triangular transitions with ``alpha`` in the invariant block, hidden by a rotation.

    Entries carry independent factors 10^U(-s, s).  Returns the automaton and
    the invariant block's dimension ``r``, which is its reachable dimension.
    """
    n = int(rng.integers(2, 9))
    alphabet = ("a", "b", "c")[: int(rng.integers(1, 4))]

    def scaled(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-scale_exp, scale_exp, shape)

    r = int(rng.integers(1, n))
    trans = {s: scaled((n, n)) for s in alphabet}
    for m in trans.values():
        m[r:, :r] = 0.0
    alpha = scaled(n)
    alpha[r:] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = Wfa(alphabet=alphabet, alpha=q @ alpha, beta=scaled(n),
            trans={s: q @ m @ q.T for s, m in trans.items()})
    return a, r


def scaled_family(rng, kind, scale_exp):
    """A seeded automaton whose entries carry independent factors 10^U(-s, s).

    ``random`` is generic (bisimulation {0}), ``duplicated`` holds two copies of
    a scaled base, and ``hidden`` keeps the last n - r coordinates invariant and
    unobserved before an orthogonal change of basis hides them.
    """
    n = int(rng.integers(2, 9))
    alphabet = ("a", "b", "c")[: int(rng.integers(1, 4))]

    def scaled(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-scale_exp, scale_exp, shape)

    if kind == "duplicated":
        half = max(n // 2, 1)
        base = Wfa(alphabet=alphabet, alpha=scaled(half), beta=scaled(half),
                   trans={s: scaled((half, half)) for s in alphabet})
        return duplicated_copy(base)
    trans = {s: scaled((n, n)) for s in alphabet}
    alpha, beta = scaled(n), scaled(n)
    if kind == "random":
        return Wfa(alphabet=alphabet, alpha=alpha, beta=beta, trans=trans)
    r = int(rng.integers(1, n))
    for m in trans.values():
        m[:r, r:] = 0.0
    beta[r:] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Wfa(alphabet=alphabet, alpha=q @ alpha, beta=q @ beta,
               trans={s: q @ m @ q.T for s, m in trans.items()})


class TestLargestBisimulation:
    def test_observable_automaton_trivial(self):
        assert largest_bisimulation(halving_automaton(), 1e-9).dim == 0

    def test_duplicated_copy_contains_differences(self, rng):
        base = random_wfa(rng, n=2)
        dup = duplicated_copy(base)
        w = largest_bisimulation(dup, 1e-9)
        assert w.dim >= 1
        # every vector of W is unobservable: adding it to a state does not
        # change any evaluation up to length 2n
        n = dup.dim
        u = rng.standard_normal(n)
        for _ in range(5):
            coeffs = rng.standard_normal(w.dim)
            vec = w.basis @ coeffs
            left = with_initial(dup, u)
            right = with_initial(dup, u + vec)
            for word in all_words(dup.alphabet, min(2 * n, 5)):
                assert evaluate(left, word) == pytest.approx(evaluate(right, word), abs=1e-8)

    def test_zero_beta_gives_whole_space(self, rng):
        a = random_wfa(rng, n=3)
        z = Wfa(alphabet=a.alphabet, alpha=a.alpha, beta=np.zeros(3), trans=dict(a.trans))
        assert largest_bisimulation(z, 1e-9).dim == 3

    def test_matches_observability_kernel_oracle(self, rng):
        for _ in range(5):
            a = random_wfa(rng, n=3)
            dup = duplicated_copy(a)
            w = largest_bisimulation(dup, 1e-9)
            oracle = observability_kernel_oracle(dup)
            assert w.dim == oracle.shape[1]
            # same span: projecting the oracle basis onto W loses nothing
            proj = w.basis @ (w.basis.T @ oracle)
            assert np.linalg.norm(proj - oracle) < 1e-8

    def test_soundness_random_kernel_vectors(self, rng):
        base = random_wfa(rng, n=2)
        a = duplicated_copy(base)
        w = largest_bisimulation(a, 1e-9)
        assert w.dim > 0
        n = a.dim
        for _ in range(100):
            vec = w.basis @ rng.standard_normal(w.dim)
            bound = 1e-6 * (1 + np.linalg.norm(vec))
            for word in all_words(a.alphabet, 2 * n):
                state = vec
                for sym in word:
                    state = a.trans[sym] @ state
                assert abs(float(a.beta @ state)) <= bound

    def test_maximality_distinct_functions_not_collapsed(self, rng):
        a = random_wfa(rng, n=3)  # generic: observable
        w = largest_bisimulation(a, 1e-9)
        for _ in range(20):
            u = rng.standard_normal(3)
            resid = u - w.project(u)
            realized = [evaluate(with_initial(a, u), word) for word in all_words(a.alphabet, 6)]
            if max(abs(x) for x in realized) > 1e-6:
                assert np.linalg.norm(resid) > 1e-9

    def test_tol_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            largest_bisimulation(random_wfa(rng), 0.0)

    @pytest.mark.parametrize("scale_exp", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["random", "duplicated", "hidden"])
    def test_matches_shrinking_fixed_point(self, kind, scale_exp):
        # the complement of reversed reachability is the fixed point's subspace
        for seed in range(40):
            a = scaled_family(np.random.default_rng([scale_exp, seed]), kind, scale_exp)
            w = largest_bisimulation(a, 1e-9)
            ref = fixed_point_bisimulation(a, 1e-9)
            assert w.dim == ref.shape[1]
            assert np.max(np.abs(w.basis @ w.basis.T - ref @ ref.T)) <= 1e-8

    @pytest.mark.parametrize("n", [30, 50])
    def test_single_symbol_automaton_is_observable(self, n):
        # the dual of test_single_symbol_krylov_span_is_full: the covectors
        # beta T^j span the whole space
        for seed in range(10):
            a = random_wfa(np.random.default_rng([n, seed]), n=n, alphabet=("a",), norm_cap=0.9)
            assert largest_bisimulation(a).dim == 0


class TestObservableReachable:
    def test_one_state_observable(self):
        a = Wfa(alphabet=("a",), alpha=[1.0], beta=[2.0], trans={"a": [[0.3]]})
        assert is_observable(a)

    def test_duplicated_copy_not_observable(self, rng):
        assert not is_observable(duplicated_copy(random_wfa(rng, n=2)))

    def test_zero_alpha_not_reachable(self, rng):
        a = random_wfa(rng, n=2)
        b = with_initial(a, np.zeros(2))
        assert not is_reachable(b)
        assert is_reachable(a)  # generic random automaton

    @pytest.mark.parametrize("seed", range(4))
    def test_alpha_in_invariant_subspace_not_reachable(self, seed):
        # span(e_1..e_r) is invariant under block upper-triangular transitions;
        # an orthogonal change of basis hides the blocks
        rng = np.random.default_rng(seed)
        n, r = 5, 1 + seed % 4
        a = random_wfa(rng, n=n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        trans = {s: m.copy() for s, m in a.trans.items()}
        for m in trans.values():
            m[r:, :r] = 0.0
        alpha = np.concatenate([rng.standard_normal(r), np.zeros(n - r)])
        b = Wfa(alphabet=a.alphabet, alpha=q @ alpha, beta=a.beta,
                trans={s: q @ m @ q.T for s, m in trans.items()})
        assert not is_reachable(b)
        assert reachable_subspace(b).dim == r
        assert is_reachable(with_initial(b, q @ rng.standard_normal(n)))


class TestSubspace:
    def test_basis_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="2-d array"):
            Subspace(np.ones(3), DEFAULT_TOL)

    def test_basis_must_be_orthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(np.ones((3, 1)), DEFAULT_TOL)
        assert Subspace(np.eye(3)[:, :2], DEFAULT_TOL).dim == 2


class TestReachableSubspace:
    def test_zero_alpha(self, rng):
        a = with_initial(random_wfa(rng, n=3), np.zeros(3))
        assert reachable_subspace(a).dim == 0

    def test_generic_full(self, rng):
        assert reachable_subspace(random_wfa(rng, n=3)).dim == 3

    @pytest.mark.parametrize("n", [30, 50])
    def test_single_symbol_krylov_span_is_full(self, n):
        # powers of one map turn nearly parallel: closing the span on raw images with a
        # per-vector residual test misses directions here, at n = 50 on almost every seed
        for seed in range(10):
            a = random_wfa(np.random.default_rng([n, seed]), n=n, alphabet=("a",), norm_cap=0.9)
            assert reachable_subspace(a).dim == n

    @pytest.mark.parametrize("kind", ["random", "duplicated", "one-symbol"])
    def test_same_dimension_as_full_svd_closure(self, kind):
        for seed in range(30):
            a = closure_sweep_family(np.random.default_rng([len(kind), seed]), kind)
            for b in (a, reverse(a)):
                ref = full_svd_closure(b)
                sub = reachable_subspace(b)
                assert sub.dim == ref.shape[1]
                assert np.max(np.abs(sub.basis @ sub.basis.T - ref @ ref.T)) <= 1e-6

    def test_hidden_invariant_block_is_found_exactly(self):
        for seed in range(300):
            a, r = hidden_reachable_family(np.random.default_rng([17, seed]), 2)
            assert reachable_subspace(a).dim == r

    @pytest.mark.parametrize("k", [1, 2])
    def test_svds_factor_each_direction_once(self, monkeypatch, k):
        # the full-SVD closure factors [Q | T Q] every round: about n^2 columns
        # in all for one symbol, 2,550 at n = 50
        n = 50
        a = random_wfa(np.random.default_rng([n, k]), n=n, alphabet=("a", "b")[:k])
        columns = []
        svd = np.linalg.svd

        def counting_svd(mat, *args, **kwargs):
            columns.append(np.shape(mat)[-1])
            return svd(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert reachable_subspace(a).dim == n
        assert sum(columns) <= k * n + 1

    def test_deterministic_with_fixed_signs(self, rng):
        for a in (random_wfa(rng, n=7), duplicated_copy(random_wfa(rng, n=4)),
                  random_wfa(rng, n=30, alphabet=("a",))):
            first, second = reachable_subspace(a).basis, reachable_subspace(a).basis
            assert first.tobytes() == second.tobytes()
            top = first[np.argmax(np.abs(first), axis=0), np.arange(first.shape[1])]
            assert np.all(top > 0)

    @pytest.mark.parametrize("tol", [1e-14, 1e-17, 1e-300])
    def test_tol_below_roundoff_keeps_an_orthonormal_basis(self, tol):
        # directions admitted at roundoff lean on the basis; Subspace rejects
        # a basis that is not orthonormal
        for seed in range(10):
            a = duplicated_copy(random_wfa(np.random.default_rng([3, seed]), n=10))
            assert reachable_subspace(a, tol).dim <= a.dim

    def test_block_diagonal_first_block(self, rng):
        a = random_wfa(rng, n=2)
        b = random_wfa(rng, n=3)
        trans = {}
        for s in a.alphabet:
            big = np.zeros((5, 5))
            big[:2, :2] = a.trans[s]
            big[2:, 2:] = b.trans[s]
            trans[s] = big
        joined = Wfa(alphabet=a.alphabet,
                     alpha=np.concatenate([a.alpha, np.zeros(3)]),
                     beta=np.concatenate([a.beta, b.beta]),
                     trans=trans)
        sub = reachable_subspace(joined)
        assert sub.dim == 2
        # spans exactly the first block
        assert np.allclose(sub.basis[2:], 0.0, atol=1e-9)


class TestMinimize:
    @pytest.mark.parametrize("seed", range(5))
    def test_common_scale_changes_no_dimension(self, seed):
        # at 2^-40 the images once fell below the unscaled cap and true states were dropped
        a = random_wfa(np.random.default_rng(seed), n=4)
        for e in (-40, 0, 40):
            b = Wfa(alphabet=a.alphabet, alpha=a.alpha, beta=a.beta,
                    trans={s: np.ldexp(m, e) for s, m in a.trans.items()})
            assert minimize(b).dim == 4
            assert largest_bisimulation(b).dim == 0

    def test_already_minimal_fixed_point(self):
        a = halving_automaton()
        m = minimize(a)
        assert m.dim == a.dim
        for word in all_words(a.alphabet, 4):
            assert evaluate(m, word) == pytest.approx(evaluate(a, word), abs=1e-10)

    def test_duplicated_copy_halves(self, rng):
        base = random_wfa(rng, n=3)
        dup = duplicated_copy(base)
        m = minimize(dup)
        assert m.dim == 3
        for word in all_words(dup.alphabet, 6):
            assert evaluate(m, word) == pytest.approx(evaluate(dup, word), abs=1e-6)

    def test_zero_function_collapses_to_empty(self, rng):
        a = random_wfa(rng, n=3)
        z = Wfa(alphabet=a.alphabet, alpha=a.alpha, beta=np.zeros(3), trans=dict(a.trans))
        m = minimize(z)
        assert m.dim == 0
        assert evaluate(m, ("a", "b")) == 0.0

    def test_minimized_is_observable_and_reachable(self, rng):
        m = minimize(duplicated_copy(random_wfa(rng, n=2)))
        assert is_observable(m)
        assert is_reachable(m)

    def test_idempotent_dimension(self, rng):
        a = duplicated_copy(random_wfa(rng, n=2))
        m = minimize(a)
        assert minimize(m).dim == m.dim

    def test_agreement_within_tolerance(self, rng):
        for _ in range(5):
            a = random_wfa(rng, n=4)
            m = minimize(a)
            worst = max(
                abs(evaluate(m, w) - evaluate(a, w)) for w in all_words(a.alphabet, 2 * a.dim)
            )
            assert worst <= 1e-6

    def test_basis_invariance_of_minimal_dimension(self, rng):
        a = duplicated_copy(random_wfa(rng, n=2))
        n = a.dim
        t = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        t_inv = np.linalg.inv(t)
        conj = Wfa(
            alphabet=a.alphabet,
            alpha=t @ a.alpha,
            beta=t_inv.T @ a.beta,
            trans={s: t @ m @ t_inv for s, m in a.trans.items()},
        )
        for word in all_words(a.alphabet, 3):
            assert evaluate(conj, word) == pytest.approx(evaluate(a, word), abs=1e-8)
        assert minimize(conj).dim == minimize(a).dim


class TestStatesBisimilar:
    def test_equal_states(self, rng):
        a = random_wfa(rng)
        u = rng.standard_normal(a.dim)
        assert states_bisimilar(a, u, u)

    def test_duplicated_copies_of_same_state(self, rng):
        base = random_wfa(rng, n=3)
        dup = duplicated_copy(base)
        e1 = np.zeros(6)
        e1[0] = 1.0
        e4 = np.zeros(6)
        e4[3] = 1.0
        assert states_bisimilar(dup, e1, e4)

    def test_observable_distinct_states(self, rng):
        a = random_wfa(rng, n=3)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        assert not states_bisimilar(a, u, v)

    def test_dimension_mismatch(self, rng):
        a = random_wfa(rng, n=3)
        with pytest.raises(ValueError):
            states_bisimilar(a, np.ones(2), np.ones(3))
