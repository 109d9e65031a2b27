import heapq
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wfametrics import (
    CannotCertifyError,
    CertifiedInterval,
    Wfa,
    admissible_gamma_bound,
    compute_tail_params,
    difference,
    distance,
    distance_upper_bound,
    evaluate,
    jsr_bounds,
    largest_bisimulation,
    minimize,
    parameter_continuity_experiment,
    seminorm_interval,
    truncated_seminorm,
    with_initial,
)
from wfametrics.bisim import Subspace
from wfametrics.linalg import DEFAULT_TOL, spectral_norm
from wfametrics import metric
from wfametrics.metric import DEFAULT_BUDGET, _BoundData, _TailPlan, balance_scaling
from conftest import all_words, duplicated_copy, pad_with_zero_state, random_stochastic, random_wfa


def one_state(tau):
    return Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[tau]]})


def growth_pair(i):
    """The one-letter pair tau = 1 vs tau_i = 1 + 2^-i."""
    return one_state(1.0), one_state(1.0 + 2.0 ** (-i))


def geometric_distance(tau1, tau2, gamma, terms=400):
    """Analytic/series value of sum_t gamma^t |tau1^t - tau2^t|."""
    total, p1, p2 = 0.0, 1.0, 1.0
    g = 1.0
    for _ in range(terms):
        total += g * abs(p1 - p2)
        p1 *= tau1
        p2 *= tau2
        g *= gamma
    return total


class TestAdmissibleGamma:
    def test_row_stochastic_is_one(self, rng):
        trans = {s: random_stochastic(rng, 3).T for s in ("a", "b")}
        a = Wfa(alphabet=("a", "b"), alpha=[1.0, 0, 0], beta=[0.5, 1.0, 0.2], trans=trans)
        bound = admissible_gamma_bound(a, depth=6)
        assert bound <= 1.0 + 1e-12
        assert bound >= 1.0 - 1e-9  # max-column-sum level bound is exact here

    def test_zero_transitions_unbounded(self):
        a = Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[0.0]]})
        assert admissible_gamma_bound(a, depth=3) == np.inf

    def test_growth_automaton(self):
        a = one_state(1.5)
        assert admissible_gamma_bound(a, depth=8) == pytest.approx(1 / 1.5, abs=1e-6)


# Badly scaled pair: the identity needs long blocks, the balanced scaling
# certifies theta ~ 0.70 at m = 1 and ~ 0.68 at m = 2.
SKEWED = Wfa(
    alphabet=("a", "b"), alpha=[1.0, 0.0], beta=[1.0, 1.0],
    trans={"a": [[0.5, 8.0], [0.0, 0.4]], "b": [[0.3, 0.0], [0.02, 0.5]]},
)


def reference_tail_params(a, gamma, depth=8, product_cap=4096):
    """From-scratch certificate search with the lengthening rule, or None when nothing certifies.

    The first certificate is the first ``(S, m)`` with ``gamma * theta <
    1 - 1e-12``: the identity before the balanced scaling, ``m = 1..depth``
    (``m >= 2`` only while ``k^m <= product_cap``).  From there ``m + 1`` of
    the same ``S`` is taken while ``m + 1 <= min(depth, 64)``, ``k^(m+1) <=
    product_cap``, ``k^(m+1) n^2 <= 8192``, it certifies and its ``tau`` is
    strictly smaller.  Conjugates each matrix explicitly, rebuilds every
    product level from the identity with einsum, takes ``theta`` from full
    SVDs and ``tau`` from the covectors ``gamma^j T_x^T beta`` of every word,
    over the last ``m`` of ``J`` levels (the most, up to 64, with ``n * N <=
    8192``, but at least ``m``).  Returns ``(theta, m, step_norm, S, tau)``
    with the ``tau`` of the first certificate when nothing is lengthened.
    """
    stack = a.trans_stack()
    k, n = stack.shape[0], a.dim
    candidates = [np.eye(n)]
    balanced = balance_scaling(stack)
    if not np.allclose(balanced, np.eye(n)):
        candidates.append(balanced)

    def level(mats, m):
        prods = np.eye(n)[None]
        for _ in range(m):
            prods = np.einsum("gij,pjk->pgik", mats, prods).reshape(-1, n, n)
        return prods

    def theta(scaled, m):
        return float(np.max(np.linalg.svd(level(scaled, m), compute_uv=False)[:, 0])) ** (1.0 / m)

    head, count = 0, 0
    while head < 64 and max(n, 1) * (count + k ** (head + 1)) <= 8192:
        head += 1
        count += k**head

    def tau(s_mat, rate, m):
        top = max(head, m)
        gtm = (gamma * rate) ** m
        tail = 0.0
        for j in range(top - m + 1, top + 1):
            covectors = gamma**j * np.einsum("pji,j->pi", level(stack, j), a.beta)
            tail += float(np.max(np.linalg.norm(covectors @ np.linalg.inv(s_mat), axis=1)))
        return tail * gtm / (1.0 - gtm)

    for s_mat in candidates:
        scaled = np.stack([s_mat @ t @ np.linalg.inv(s_mat) for t in stack])
        for m in range(1, depth + 1):
            if m > 1 and k**m > product_cap:
                break
            best = (theta(scaled, m), m)
            if not gamma * best[0] < 1.0 - 1e-12:
                continue
            best_tau = tau(s_mat, *best)
            while m < min(depth, 64) and k ** (m + 1) <= product_cap and k ** (m + 1) * n * n <= 8192:
                m += 1
                next_theta = theta(scaled, m)
                if not gamma * next_theta < 1.0 - 1e-12:
                    break
                next_tau = tau(s_mat, next_theta, m)
                if not next_tau < best_tau:
                    break
                best, best_tau = (next_theta, m), next_tau
            return best[0], best[1], max(1.0, theta(scaled, 1)), s_mat, best_tau
    return None


def _bounded(norm_cap):
    return random_wfa(np.random.default_rng(5), n=4, norm_cap=norm_cap)


def _stochastic():
    rng = np.random.default_rng(6)
    trans = {s: random_stochastic(rng, 3).T for s in ("a", "b")}
    return Wfa(alphabet=("a", "b"), alpha=[1, 0, 0], beta=[1.0, 0.5, 0.1], trans=trans)


TAIL_CASES = {
    # name (the first certificate): (automaton, gamma, depth, product_cap,
    # expected (block_len, balanced) after lengthening, or "raises")
    "identity-m1": (_bounded(0.8), 1.0, 8, 4096, (5, False)),
    "identity-m4": (_stochastic(), 0.97, 10, 4096, (9, False)),
    "balanced-m5": (_stochastic(), 0.99, 10, 4096, (9, True)),
    "balanced-m2": (SKEWED, 1.45, 4, 4096, (3, True)),
    "identity-m7-uncapped": (SKEWED, 1.0, 8, 4096, (8, False)),
    "product-cap-break": (SKEWED, 1.0, 8, 64, (3, True)),
    "cannot-certify": (SKEWED, 1.45, 4, 2, "raises"),
}


class TestTailParams:
    @pytest.mark.parametrize("case", list(TAIL_CASES))
    def test_matches_from_scratch_reference(self, case, monkeypatch):
        a, gamma, depth, cap, expected = TAIL_CASES[case]
        monkeypatch.setattr(metric, "_PRODUCT_CAP", cap)
        balanced = []

        def counting_balance(mats):
            balanced.append(mats)
            return balance_scaling(mats)

        monkeypatch.setattr(metric, "balance_scaling", counting_balance)
        ref = reference_tail_params(a, gamma, depth, cap)
        if expected == "raises":
            assert ref is None
            with pytest.raises(CannotCertifyError):
                compute_tail_params(a, gamma, depth)
            assert len(balanced) == 1
            return
        params = compute_tail_params(a, gamma, depth)
        theta, block_len, step_norm, scaling, tau = ref
        # the einsum and matmul levels of m >= 2 may differ in the last bits
        assert params.theta == pytest.approx(theta, rel=1e-14, abs=0.0)
        assert params.block_len == block_len
        # the tau that ranked the certificates is the one the node bound uses
        assert _BoundData(a, _TailPlan(a, gamma, params), None).norm_coeffs[0] == pytest.approx(tau, rel=1e-12, abs=0.0)
        assert params.step_norm == step_norm
        assert np.array_equal(params.scaling, scaling)
        assert (block_len, not np.array_equal(scaling, np.eye(a.dim))) == expected
        # balancing is computed only when the identity's levels certify nothing
        assert len(balanced) == expected[1]

    def test_overflowing_level_does_not_certify(self):
        # level 2 holds 1e400 = inf; its norm once read as theta = 0 and certified
        a = Wfa(alphabet=("a",), alpha=[1.0, 1.0], beta=[1.0, 1.0], trans={"a": np.diag([0.5, 1e200])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CannotCertifyError):
                compute_tail_params(a, 0.5)

    def test_more_symbols_than_the_product_cap_certify_at_block_length_one(self):
        # level 1 is the input matrices and is always formed; the cap bounds levels m >= 2
        symbols = tuple(f"s{i}" for i in range(metric._PRODUCT_CAP + 1))
        a = Wfa(alphabet=symbols, alpha=[1.0], beta=[1.0], trans={s: [[0.5]] for s in symbols})
        params = compute_tail_params(a, 0.9)
        assert (params.theta, params.block_len) == (0.5, 1)

    def test_balance_scaling_of_huge_entries_is_finite(self):
        # the squares of entries above ~1e154 overflow unless the stack is rescaled first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(balance_scaling([np.array([[1e200]])]), np.eye(1))

    def test_balance_scaling_ignores_a_power_of_two(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k, n = rng.integers(1, 4), rng.integers(1, 6)
            stack = rng.standard_normal((k, n, n)) * 10.0 ** rng.uniform(-30, 30, (k, n, n))
            expected = balance_scaling(stack)
            for exponent in (600, -600):
                assert np.array_equal(balance_scaling(np.ldexp(stack, exponent)), expected)

    def test_balance_scaling_of_no_states(self):
        assert np.array_equal(balance_scaling([np.zeros((0, 0))]), np.eye(0))

    @pytest.mark.parametrize("mat, message", [
        ([[1.0, np.nan], [0.0, 1.0]], "matrix 0 has a non-finite entry"),
        (np.ones((2, 3)), r"matrix 0 has shape \(2, 3\)"),
    ])
    def test_balance_scaling_names_a_bad_matrix(self, mat, message):
        with pytest.raises(ValueError, match=message):
            balance_scaling([mat, np.eye(2)])

    def test_single_step_identity_accepted(self, rng):
        # the identity certifies at m = 1 with theta = 0.8; every longer block of
        # it up to the depth certifies with a smaller tau, so the walk ends at 8
        a = random_wfa(rng, norm_cap=0.8)
        first = next(metric._certificates(a.trans_stack(), 8))
        assert first.block_len == 1
        assert first.theta == pytest.approx(0.8, abs=1e-12)
        params = compute_tail_params(a, gamma=1.0)
        assert params.block_len == 8
        assert np.array_equal(params.scaling, np.eye(a.dim))
        assert params.theta < first.theta

    def test_growth_pair_certificate(self):
        a1, a2 = growth_pair(2)
        d = difference(a1, a2)
        params = compute_tail_params(d, gamma=0.5)
        assert params.theta == pytest.approx(1.25, abs=1e-12)
        assert 0.5 * params.theta == pytest.approx(0.625, abs=1e-12)

    def test_scaled_rotation_certified_at_gamma_one(self):
        rot = 0.9 * np.array([[0.0, -1.0], [1.0, 0.0]])
        a = Wfa(alphabet=("a",), alpha=[1.0, 0.0], beta=[1.0, 1.0], trans={"a": rot})
        params = compute_tail_params(a, gamma=1.0)
        assert params.theta == pytest.approx(0.9, abs=1e-12)

    def test_block_certificate_for_stochastic_family(self, rng):
        # spectral norms of stochastic matrices exceed 1, but block norms of
        # their transposes converge to 1, so high discounts still certify
        trans = {s: random_stochastic(rng, 3).T for s in ("a", "b")}
        a = Wfa(alphabet=("a", "b"), alpha=[1, 0, 0], beta=[1.0, 0.5, 0.1], trans=trans)
        params = compute_tail_params(a, gamma=0.9, depth=10)
        assert 0.9 * params.theta < 1.0

    def test_cannot_certify(self):
        a = Wfa(alphabet=("a",), alpha=[1.0, 0.0], beta=[1.0, 1.0], trans={"a": np.eye(2)})
        with pytest.raises(CannotCertifyError):
            compute_tail_params(a, gamma=1.5, depth=6)


def first_certificate(a, gamma, depth=8):
    """The first certifying candidate of the search, which the walk lengthens."""
    return next(p for p in metric._certificates(a.trans_stack(), depth)
                if gamma * p.theta < 1.0 - metric._CERT_MARGIN)


def bound_tau(a, gamma, params):
    """The tail coefficient of the generic node bound built on ``params``."""
    return float(_BoundData(a, _TailPlan(a, gamma, params), None).norm_coeffs[0])


def sweep_case(rng):
    """A hard-sweep instance: n 2-5, k 1-3, gamma in U(.3, .85), Gaussian matrices over their JSR lower bound."""
    n, k, gamma = int(rng.integers(2, 6)), int(rng.integers(1, 4)), rng.uniform(0.3, 0.85)
    mats = [rng.standard_normal((n, n)) for _ in range(k)]
    scale = jsr_bounds(mats, 6).lower
    syms = ("a", "b", "c")[:k]
    a = Wfa(alphabet=syms, alpha=rng.standard_normal(n), beta=rng.standard_normal(n),
            trans={s: m / scale for s, m in zip(syms, mats)})
    return a, gamma


class TestLengthenedCertificate:
    def test_next_level_past_the_work_cap_keeps_the_first_certificate(self, monkeypatch):
        # k^2 n^2 = 19,600 > 8,192: no level past the first is compared, so tau is never computed
        a = random_wfa(np.random.default_rng(70), n=70, norm_cap=0.9)
        calls = []

        def counting_terms(plan, params):
            calls.append(params)
            return terms(plan, params)

        terms = _TailPlan.terms
        monkeypatch.setattr(_TailPlan, "terms", counting_terms)
        params, first = compute_tail_params(a, 0.9), first_certificate(a, 0.9)
        assert calls == []
        assert (params.theta, params.block_len, params.step_norm) == (first.theta, 1, first.step_norm)
        assert np.array_equal(params.scaling, first.scaling)

    def test_overflowing_next_level_ends_the_walk_without_balancing(self, monkeypatch):
        # level 1 certifies (gamma * theta = 0.16); level 2 holds 1e320 = inf and ends the walk
        a = Wfa(alphabet=("a",), alpha=[1.0, 0.0], beta=[1.0, 1.0], trans={"a": 1e160 * np.triu(np.ones((2, 2)))})
        calls = []
        monkeypatch.setattr(metric, "balance_scaling", lambda mats: calls.append(mats) or np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = compute_tail_params(a, 1e-161)
        assert (params.block_len, calls) == (1, [])
        assert np.array_equal(params.scaling, np.eye(2))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(n=st.integers(1, 8), k=st.integers(1, 3), gamma=st.floats(0.3, 0.99),
           norm_cap=st.floats(0.5, 1.5), seed=st.integers(0, 2**32 - 1))
    def test_walk_lengthens_while_tau_falls(self, n, k, gamma, norm_cap, seed):
        """The result certifies, has at most the first certificate's tau, and the next level would not pay."""
        a = random_wfa(np.random.default_rng(seed), n=n, alphabet=("a", "b", "c")[:k], norm_cap=norm_cap)
        try:
            params = compute_tail_params(a, gamma)
        except CannotCertifyError:
            return
        first = first_certificate(a, gamma)
        assert gamma * params.theta < 1.0 - metric._CERT_MARGIN
        assert np.array_equal(params.scaling, first.scaling)
        assert params.block_len >= first.block_len
        tau = bound_tau(a, gamma, params)
        assert tau <= bound_tau(a, gamma, first)
        m = params.block_len + 1
        if m <= 8 and k**m <= metric._PRODUCT_CAP and k**m * n * n <= metric._COVECTOR_WORK:
            following = next(p for p in metric._certificates(a.trans_stack(), m)
                             if p.block_len == m and np.array_equal(p.scaling, params.scaling))
            if gamma * following.theta < 1.0 - metric._CERT_MARGIN:
                assert bound_tau(a, gamma, following) >= tau

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(n=st.integers(1, 8), k=st.integers(1, 3), gamma=st.floats(0.3, 0.99),
           norm_cap=st.floats(0.5, 1.5), seed=st.integers(0, 2**32 - 1))
    def test_default_search_is_the_search_on_the_walks_certificate(self, n, k, gamma, norm_cap, seed):
        """The walk keeps the first certificate's head while it lengthens: the chosen one builds the same."""
        rng = np.random.default_rng(seed)
        a = random_wfa(rng, n=n, alphabet=("a", "b", "c")[:k], norm_cap=norm_cap)
        v = rng.standard_normal(n)
        try:
            params = compute_tail_params(a, gamma)
        except CannotCertifyError:
            return
        assert seminorm_interval(a, v, gamma, budget=200) == seminorm_interval(a, v, gamma, budget=200, params=params)

    def test_each_search_builds_its_head_once(self, monkeypatch):
        built = []

        class CountingPlan(_TailPlan):
            def __init__(self, a, gamma, params):
                built.append(params.block_len)
                super().__init__(a, gamma, params)

        monkeypatch.setattr(metric, "_TailPlan", CountingPlan)
        a, gamma = _bounded(0.8), 0.9  # the walk lengthens the first certificate, m = 1
        params = compute_tail_params(a, gamma)
        assert params.block_len > 1 and built == [1]
        built.clear()
        seminorm_interval(a, a.alpha, gamma, budget=100)
        assert built == [1]
        built.clear()
        seminorm_interval(a, a.alpha, gamma, budget=100, params=params)
        assert built == [params.block_len]
        built.clear()
        distance(a, _bounded(0.7), gamma, budget=100)
        assert len(built) == 1

    def test_sweep_expands_no_more_nodes_than_the_first_certificate(self):
        rng = np.random.default_rng(3)
        lengthened = first_fit = 0
        for _ in range(40):
            a, gamma = sweep_case(rng)
            got = seminorm_interval(a, a.alpha, gamma, budget=5000)
            ref = seminorm_interval(a, a.alpha, gamma, budget=5000, params=first_certificate(a, gamma))
            assert got.nodes_expanded <= ref.nodes_expanded
            lengthened += got.nodes_expanded
            first_fit += ref.nodes_expanded
        assert lengthened < first_fit


class TestSeminormInterval:
    def test_diverging_certificate_is_rejected(self, rng):
        a = random_wfa(rng, n=2)
        for theta in (2.0, np.inf):  # inf, which an overflowing level yields, is accepted and certifies nothing
            params = metric.TailBoundParams(theta, np.eye(2), 1, 1.0)
            with pytest.raises(CannotCertifyError, match="tail series diverges"):
                seminorm_interval(a, a.alpha, 0.9, params=params)

    @pytest.mark.parametrize("theta, scaling, message", [
        # -theta once gave a converged upper of 0.54460316..., below the depth-12 truncated value 0.54479745...
        (-1.0, None, "theta must be non-negative, got -0.89"),
        (np.nan, None, "theta must be non-negative, got nan"),
        (1.0, np.ones((3, 2)), r"scaling must be square, got shape \(3, 2\)"),
        (1.0, np.ones(3), r"scaling has shape \(3,\)"),
        (1.0, [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "scaling has non-finite entries"),
        (1.0, np.eye(2), r"scaling has shape \(2, 2\), expected \(3, 3\)"),
    ])
    def test_malformed_certificate_is_rejected(self, theta, scaling, message):
        """``theta`` scales the automaton's own certificate; a ``scaling`` of None keeps its scaling."""
        rng = np.random.default_rng(0)
        a = Wfa(("a", "b"), rng.standard_normal(3), rng.standard_normal(3),
                {s: 0.5 * rng.standard_normal((3, 3)) for s in "ab"})
        cert = compute_tail_params(a, 0.6)
        with pytest.raises(ValueError, match=message):
            scaling = cert.scaling if scaling is None else scaling
            seminorm_interval(a, a.alpha, 0.6, params=metric.TailBoundParams(theta * cert.theta, scaling, 1, 1.0))

    def test_zero_vector(self, rng):
        a = random_wfa(rng)
        iv = seminorm_interval(a, np.zeros(a.dim), gamma=0.5)
        assert iv.lower == 0.0
        assert iv.upper == 0.0

    def test_kernel_vectors_collapse(self, rng):
        dup = duplicated_copy(random_wfa(rng, n=2))
        w = largest_bisimulation(dup, 1e-9)
        assert w.dim >= 1
        vec = w.basis @ rng.standard_normal(w.dim)
        iv = seminorm_interval(dup, vec, gamma=0.4, eps=1e-6)
        assert iv.upper <= 1e-6

    def test_growth_pair_closed_form(self):
        a1, a2 = growth_pair(2)
        d = difference(a1, a2)
        iv = seminorm_interval(d, d.alpha, gamma=0.5, eps=1e-6)
        expected = 1 / (1 - 0.625) - 1 / (1 - 0.5)  # 2/3
        assert iv.lower - 1e-9 <= expected <= iv.upper + 1e-9
        assert iv.width <= 1e-6
        assert iv.converged

    def test_monotone_in_budget(self, rng):
        a = random_wfa(rng, n=3)
        v = rng.standard_normal(3)
        prev_lower, prev_upper = -np.inf, np.inf
        for budget in (5, 25, 125, 625):
            iv = seminorm_interval(a, v, gamma=0.4, eps=1e-12, budget=budget)
            assert iv.lower >= prev_lower - 1e-15
            assert iv.upper <= prev_upper + 1e-15
            prev_lower, prev_upper = iv.lower, iv.upper

    def test_budget_exhaustion_is_flagged_and_valid(self, rng):
        a = random_wfa(rng, n=3, norm_cap=0.95)
        v = rng.standard_normal(3)
        wide = seminorm_interval(a, v, gamma=0.9, eps=1e-12, budget=30)
        tight = seminorm_interval(a, v, gamma=0.9, eps=1e-6, budget=200_000)
        assert not wide.converged
        assert wide.lower - 1e-12 <= tight.lower
        assert wide.upper + 1e-12 >= tight.upper

    @pytest.mark.parametrize("budget", [2.5, np.nan, np.inf, -1])
    def test_budget_that_is_not_a_count_raises(self, rng, budget):
        # 2.5 and NaN were once silently unlimited: the loop stops at nodes_expanded == budget
        a = random_wfa(rng, n=3, norm_cap=0.95)
        v = rng.standard_normal(3)
        message = f"budget must be an integer of at least 0, got {budget}"
        with pytest.raises(ValueError, match=message):
            seminorm_interval(a, v, gamma=0.9, eps=1e-12, budget=budget)
        with pytest.raises(ValueError, match=message):
            distance(a, with_initial(a, v), gamma=0.9, eps=1e-12, budget=budget)

    @pytest.mark.parametrize("budget", [3.0, np.int64(3)])
    def test_integral_budget_of_another_type(self, rng, budget):
        a = random_wfa(rng, n=3, norm_cap=0.95)
        iv = seminorm_interval(a, rng.standard_normal(3), gamma=0.9, eps=1e-12, budget=budget)
        assert (iv.nodes_expanded, iv.converged) == (3, False)

    def test_witness_attains_lower(self, rng):
        a = random_wfa(rng, n=3)
        v = rng.standard_normal(3)
        iv = seminorm_interval(a, v, gamma=0.4, eps=1e-8)
        state = v
        total = abs(float(a.beta @ v))
        g = 1.0
        for sym in iv.witness_prefix:
            g *= 0.4
            state = a.trans[sym] @ state
            total += g * abs(float(a.beta @ state))
        assert total == pytest.approx(iv.lower, rel=1e-12, abs=1e-12)

    def test_vector_shape_checked(self, rng):
        a = random_wfa(rng, n=3)
        with pytest.raises(ValueError):
            seminorm_interval(a, np.ones(2), gamma=0.5)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, np.nan, np.inf])
    def test_invalid_gamma_rejected_with_params(self, rng, gamma):
        a = random_wfa(rng, n=3)
        params = compute_tail_params(a, 0.5)
        with pytest.raises(ValueError, match="gamma"):
            seminorm_interval(a, np.ones(3), gamma, params=params)

    @pytest.mark.parametrize("eps", [np.nan, 0.0, -1e-6])
    def test_invalid_eps_rejected(self, rng, eps):
        a = random_wfa(rng, n=3)
        with pytest.raises(ValueError, match="eps"):
            seminorm_interval(a, np.ones(3), 0.5, eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, rng, bad):
        a = random_wfa(rng, n=3)
        with pytest.raises(ValueError, match="non-finite"):
            seminorm_interval(a, np.array([1.0, bad, 0.0]), 0.5)

    @pytest.mark.parametrize("lower,upper", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
    def test_interval_rejects_nan_endpoints(self, lower, upper):
        with pytest.raises(ValueError):
            CertifiedInterval(lower, upper, 0.5, 0, 0, ())

    @pytest.mark.parametrize("lower,upper", [(0.0, np.inf), (np.inf, np.inf)])
    def test_interval_rejects_infinite_endpoints(self, lower, upper):
        with pytest.raises(ValueError):
            CertifiedInterval(lower, upper, 0.5, 0, 0, ())

    def test_overflowing_root_bound_rejected_before_any_node(self):
        # the node bound of every vector but 0 is inf: the search would spend its budget
        a = Wfa(alphabet=("a", "b"), alpha=[1.0, 0.0], beta=[1e308, 0.0],
                trans={"a": [[0.0, 1.0], [1.0, 0.0]], "b": [[1.0, 0.0], [0.0, 1.0]]})
        calls = []

        class Counting:
            def children(self, states):
                calls.append(len(states))
                return [0.0] * len(states), [np.inf] * len(states), None

        with pytest.raises(ValueError, match="overflows"):
            seminorm_interval(a, a.alpha, 0.9)
        with pytest.raises(ValueError, match="overflows"):
            seminorm_interval(a, a.alpha, 0.9, node_bound=Counting())
        assert calls == [1]
        # with no budget the root is still bounded once and rejected
        with pytest.raises(ValueError, match="overflows"):
            seminorm_interval(a, a.alpha, 0.9, budget=0, node_bound=Counting())
        assert calls == [1, 1]


def tuple_word_seminorm_interval(a, v, gamma, eps, budget, projection=True):
    """The branch-and-bound loop with tuple words.

    Kept as the reference for :func:`seminorm_interval`, which must return
    the same bits: each heap entry carries its word as a tuple and its power
    of gamma.  The bounds on ``R`` come from the generic bound's ``children``
    on the same batches the search passes (the one-row root, then the ``k``
    children of a node), so that any difference is the loop's.  Only the heap
    top after a budget exit tightens ``upper``; see
    ``test_stop_on_gap_keeps_popped_bound``.  ``upper`` is then rounded
    outward by the slack of "Rounding" in the metric module docstring.
    """
    params = compute_tail_params(a, gamma)
    kernel = largest_bisimulation(a, DEFAULT_TOL) if projection else None
    data = _BoundData(a, _TailPlan(a, gamma, params), kernel)

    def remaining(states):
        return data.children(states)[1]

    stack = a.trans_stack()
    beta = a.beta
    symbols = a.alphabet

    root_p = abs(float(beta @ v))
    lower = root_p
    witness = ()
    upper = root_p + remaining(v[None])[0]
    depth_explored = 0
    nodes_expanded = 0

    heap = [(-upper, 0, (), gamma, v, root_p)]
    while heap and nodes_expanded < budget:
        neg_u, d, word, gpow, state, partial = heapq.heappop(heap)
        upper = min(upper, -neg_u)
        if upper - lower <= eps:
            break
        children = stack @ state
        bvals = np.abs(children @ beta)
        rems = remaining(children)
        for i, sym in enumerate(symbols):
            child_state = children[i]
            child_p = partial + gpow * float(bvals[i])
            if child_p > lower:
                lower = child_p
                witness = word + (sym,)
            child_upper = child_p + gpow * rems[i]
            heapq.heappush(
                heap,
                (-child_upper, d + 1, word + (sym,), gpow * gamma, child_state, child_p),
            )
        nodes_expanded += 1
        depth_explored = max(depth_explored, d + 1)
    else:
        if heap:
            upper = min(upper, -heap[0][0])
    upper = max(upper, lower)
    converged = (upper - lower) <= eps
    levels = max(metric._COVECTOR_LEVELS, params.block_len)
    upper += upper * ((depth_explored + levels + a.dim + 5) * 2.0**-52)
    return CertifiedInterval(
        lower=lower,
        upper=upper,
        gamma=gamma,
        depth_explored=depth_explored,
        nodes_expanded=nodes_expanded,
        witness_prefix=witness,
        converged=converged,
    )


def no_projection_bound(a, gamma):
    """The generic bound with ``W = {0}``: the covector bound on the whole state, no residual terms."""
    return _BoundData(a, _TailPlan(a, gamma, compute_tail_params(a, gamma)), None)


def _tied(a):
    """``a`` with its second symbol given the first one's matrix: sibling bounds tie exactly."""
    trans = dict(a.trans)
    trans[a.alphabet[1]] = trans[a.alphabet[0]]
    return Wfa(alphabet=a.alphabet, alpha=a.alpha, beta=a.beta, trans=trans)


BNB_FAMILIES = {
    # name: (alphabet, make automaton, project out the bisimulation kernel)
    "k1": (("a",), lambda a: a, True),
    "k2-multichar": (("aa", "ab"), lambda a: a, True),
    "k3-multichar": (("aa", "ab", "b"), lambda a: a, True),
    "k3": (("a", "b", "c"), lambda a: a, True),
    "duplicated-kernel": (("a", "b"), duplicated_copy, True),
    "duplicated-no-projection": (("a", "b"), duplicated_copy, False),
    "plain-no-projection": (("aa", "ab", "b"), lambda a: a, False),
    "tied-k2": (("aa", "ab"), _tied, True),
    "tied-k3": (("aa", "ab", "b"), _tied, True),
}


class TestBranchAndBoundLoop:
    @pytest.mark.parametrize("family", sorted(BNB_FAMILIES))
    def test_bit_equal_to_tuple_word_loop(self, family):
        alphabet, make, projection = BNB_FAMILIES[family]
        rng = np.random.default_rng([5, sorted(BNB_FAMILIES).index(family)])
        exits = 0
        for case in range(12):
            a = make(random_wfa(rng, n=int(rng.integers(1, 5)), alphabet=alphabet,
                                norm_cap=rng.uniform(0.3, 1.1)))
            v = rng.standard_normal(a.dim)
            gamma = rng.uniform(0.2, 0.8)
            # every third case is a budget exit: an eps no run reaches, a small budget
            eps, budget = (1e-15, int(rng.integers(1, 20))) if case % 3 == 0 else (1e-7, 4000)
            bound = None if projection else no_projection_bound(a, gamma)
            got = seminorm_interval(a, v, gamma, eps, budget, node_bound=bound)
            assert got == tuple_word_seminorm_interval(a, v, gamma, eps, budget, projection)
            exits += not got.converged
            if family.startswith("tied"):
                # the twin word spelled with alphabet[0] is lexicographically smaller
                assert alphabet[1] not in got.witness_prefix
        assert exits >= 3

    def test_tie_break_picks_lexicographically_smallest_witness(self):
        # one state, both symbols scale by 0.5: every word of a length has the
        # same value, so the witness must be the first one, all "aa"
        a = Wfa(alphabet=("ab", "aa"), alpha=[1.0], beta=[1.0],
                trans={"aa": [[0.5]], "ab": [[0.5]]})
        iv = seminorm_interval(a, np.ones(1), 0.5, eps=1e-9)
        assert iv.witness_prefix == ("aa",) * len(iv.witness_prefix)
        assert len(iv.witness_prefix) >= 10
        assert iv == tuple_word_seminorm_interval(a, np.ones(1), 0.5, 1e-9, DEFAULT_BUDGET)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_stop_on_gap_keeps_popped_bound(self, gamma, eps):
        # always taking "a" is optimal: s = sum_t (gamma/2)^t.  Stopping on the
        # gap once dropped the popped node and took the next heap entry's
        # smaller bound, which put upper below this value by 1e-10 to 1e-3
        # relative; before upper was rounded outward it sat 1 ulp below at
        # gamma = 0.3 and 0.9.
        a = Wfa(alphabet=("a", "b"), alpha=[1.0], beta=[1.0], trans={"a": [[0.5]], "b": [[0.25]]})
        iv = seminorm_interval(a, np.ones(1), gamma, eps)
        exact = 1.0 / (1.0 - gamma / 2)
        assert iv.converged
        assert iv.lower <= exact <= iv.upper

    def test_sound_on_seeded_sweep(self):
        """Truncated value below ``upper`` and a witness that re-propagates to ``lower``."""
        rng = np.random.default_rng(424242)
        for case in range(200):
            alphabet = (("a",), ("a", "b"), ("aa", "ab", "b"))[case % 3]
            a = random_wfa(rng, n=int(rng.integers(1, 5)), alphabet=alphabet,
                           norm_cap=rng.uniform(0.3, 1.0))
            if case % 4 == 1:
                a = duplicated_copy(a)
            elif case % 4 == 2:  # a near-copy: the numerical kernel has small residuals
                a = duplicated_copy(a)
                noise = 10.0 ** rng.uniform(-12, -8)
                a = Wfa(alphabet=a.alphabet, alpha=a.alpha, beta=a.beta,
                        trans={s: m + noise * rng.standard_normal(m.shape) for s, m in a.trans.items()})
            v = rng.standard_normal(a.dim)
            gamma = rng.uniform(0.2, 0.7)
            bound = no_projection_bound(a, gamma) if case % 5 == 0 else None
            iv = seminorm_interval(a, v, gamma, budget=5000, node_bound=bound)
            assert truncated_seminorm(a, v, gamma, 8) <= iv.upper
            start = with_initial(a, v)
            word = iv.witness_prefix
            value = sum(gamma**t * abs(evaluate(start, word[:t])) for t in range(len(word) + 1))
            assert value == pytest.approx(iv.lower, rel=1e-12, abs=0.0)


def chain_remainders(data, a, gamma, params, kernel, states):
    """The bound on ``R`` of each row of ``states`` by the one norm chain ``|beta|_S* (G-1) |y|_S``.

    With ``K = params.step_norm``, splitting a word of length ``j = q*m + r``
    into ``q`` blocks and ``r`` steps gives ``|tau_x u|_S <= theta^(q*m) K^r |u|_S``,
    whose discounted sum is ``G``; ``y = (I-Q)u``, with ``Q`` the bound's
    projector onto the kernel (orthogonal in the working norm).  The ``Q u`` term is
    the generic bound's own, as both bounds share it.
    """
    m, theta, big_k, s_mat = params.block_len, params.theta, params.step_norm, params.scaling
    g = sum((gamma * big_k) ** r for r in range(m)) / (1.0 - (gamma * theta) ** m)
    beta_dual = np.linalg.norm(np.linalg.inv(s_mat).T @ a.beta)
    c_mat = np.linalg.qr(s_mat @ kernel.basis)[0] if kernel is not None else np.zeros((a.dim, 0))
    in_w = states @ s_mat.T @ c_mat  # rows C^T S u, so S Q u = C C^T S u
    perp = np.linalg.norm(states @ s_mat.T - in_w @ c_mat.T, axis=1)
    resid = data.norm_coeffs[1] if len(data.norm_coeffs) > 1 else 0.0
    return beta_dual * (g - 1.0) * perp + resid * np.linalg.norm(in_w, axis=1)


def diagonal_skew(a, d):
    """``a`` in the coordinates ``diag(d) x``: the same function, its transitions scaled apart."""
    return Wfa(alphabet=a.alphabet, alpha=d * a.alpha, beta=a.beta / d,
               trans={s: d[:, None] * m / d[None, :] for s, m in a.trans.items()})


class TestCovectorBound:
    def test_at_most_the_chain_bound_for_each_certificate(self):
        rng = np.random.default_rng(31)
        checked = 0
        for case in range(30):
            alphabet = (("a",), ("a", "b"), ("a", "b", "c"))[case % 3]
            a = random_wfa(rng, n=int(rng.integers(1, 5)), alphabet=alphabet,
                           norm_cap=rng.uniform(0.5, 1.3))
            if case % 2:
                a = duplicated_copy(a)
            gamma = rng.uniform(0.2, 0.8)
            kernel = largest_bisimulation(a, DEFAULT_TOL) if case % 4 < 2 else None
            states = rng.standard_normal((5, a.dim))
            for params in metric._certificates(a.trans_stack(), 3):
                if gamma * params.theta >= 1.0 - metric._CERT_MARGIN:
                    continue
                data = _BoundData(a, _TailPlan(a, gamma, params), kernel)
                rems = np.array(data.children(states)[1])
                chain = chain_remainders(data, a, gamma, params, kernel, states)
                assert np.all(rems <= chain * (1.0 + 1e-12))
                checked += 1
        assert checked >= 60

    def test_kernel_kept_in_a_scaling_that_skews_its_orthogonal_projector(self):
        # W = span((1, 1)) is an exact bisimulation of tau = 0.5 I.  In the scaling
        # diag(1, 100) its orthogonal projector has working norm about 50, which
        # once made the bound drop W; the S-orthogonal projector has norm 1.
        a = Wfa(alphabet=("a",), alpha=[1.0, 0.0], beta=[1.0, -1.0], trans={"a": 0.5 * np.eye(2)})
        kernel = Subspace(np.ones((2, 1)) / np.sqrt(2.0), DEFAULT_TOL)
        for scaling in (np.eye(2), np.diag([1.0, 100.0])):
            data = _BoundData(a, _TailPlan(a, 0.9, metric.TailBoundParams(0.5, scaling, 1, 1.0)), kernel)
            assert len(data.norm_coeffs) == 2
            assert data.children(np.ones((1, 2)))[1][0] <= 1e-15

    def test_badly_scaled_pair_closes_at_the_root(self):
        # the balanced scaling certifies this pair; with the orthogonal projector
        # the bound dropped W and its root upper was 0.48
        rng = np.random.default_rng([99, 98])
        d = 10.0 ** rng.uniform(-2, 2, 2)
        a = diagonal_skew(random_wfa(rng, n=2), d)
        assert distance(a, minimize(a), 0.9, budget=0).upper <= 1e-12

    def test_root_bound_with_a_loose_kernel_is_above_the_truncated_value(self):
        # Three letters keep J at 6 or 7 levels for n <= 4, so levels up to 10 of
        # the truncation come from the tail, and v near the copies' differences
        # puts its weight on the P_W u part, which a kernel at a loose tol does
        # not keep inside ker(beta).  Dropping tau_W, or its E or delta term,
        # gives an upper below the truncated value here.
        rng = np.random.default_rng(43)
        checked = 0
        for case in range(200):
            half = int(rng.integers(1, 3))
            a = duplicated_copy(random_wfa(rng, n=half, alphabet=("a", "b", "c"), norm_cap=rng.uniform(0.5, 1.0)))
            noise = 10.0 ** rng.uniform(-2, -0.3)
            a = Wfa(alphabet=a.alphabet, alpha=a.alpha, beta=a.beta,
                    trans={s: m + noise * rng.standard_normal(m.shape) for s, m in a.trans.items()})
            v = rng.standard_normal(a.dim)
            v[half:] = -v[:half] + 1e-3 * v[half:]
            gamma, tol = rng.uniform(0.9, 0.99), 10.0 ** rng.uniform(-2, -0.3)
            try:
                params = compute_tail_params(a, gamma)
            except CannotCertifyError:
                continue
            bound = _BoundData(a, _TailPlan(a, gamma, params), largest_bisimulation(a, tol))
            iv = seminorm_interval(a, v, gamma, budget=0, node_bound=bound)
            assert truncated_seminorm(a, v, gamma, 10) <= iv.upper
            checked += 1
        assert checked >= 120

    @pytest.mark.parametrize("half", [13, 20])
    def test_large_duplicated_copy_closes_at_the_root(self, half):
        # (x, -x) lies in the kernel; the root bound alone is the whole interval
        for seed in range(5):
            rng = np.random.default_rng([41, half, seed])
            a = duplicated_copy(random_wfa(rng, n=half, norm_cap=0.9))
            x = rng.standard_normal(half)
            v = np.concatenate([x, -x])
            iv = seminorm_interval(a, v, 0.8, budget=0)
            assert iv.upper <= 1e-13 * np.linalg.norm(v)

    def test_kernel_tail_takes_the_kernels_own_block_rate(self):
        # the identity certifies this skewed copy at m = 8 with (gamma*theta)^m = 0.998,
        # but the block rate on the kernel is 1.4 against theta^m = 5.9: with
        # theta^m for the kernel the root upper was 4.1e-7 * |v|, now 4.4e-9
        rng = np.random.default_rng([41, 13, 7])
        a = duplicated_copy(random_wfa(rng, n=13, norm_cap=0.9))
        x = rng.standard_normal(13)
        v = np.concatenate([x, -x])
        d = 10.0 ** rng.uniform(-1.5, 1.5, 26)
        a, v = diagonal_skew(a, d), d * v
        iv = seminorm_interval(a, v, 0.8, budget=0)
        assert iv.upper <= 1e-8 * np.linalg.norm(v)

    def test_levels_within_the_work_cap_but_at_least_the_block_length(self):
        rng = np.random.default_rng(32)
        a = random_wfa(rng, n=3, alphabet=("a", "b"), norm_cap=0.9)
        params = compute_tail_params(a, 0.5)
        data = _BoundData(a, _TailPlan(a, 0.5, params), None)
        # 2 + 4 + ... + 2^10 = 2046 covectors; 3 * 2046 <= 8192 < 3 * 4094
        assert data.count == 2046 and len(data.level_starts) == 10
        long_block = metric.TailBoundParams(params.theta, params.scaling, 12, params.step_norm)
        assert len(_BoundData(a, _TailPlan(a, 0.5, long_block), None).level_starts) == 12

    def test_one_letter_levels_capped_but_at_least_the_block_length(self):
        # k = 1 keeps n * N within the work cap for 8,192 / n levels; 64 is the most
        a = one_state(0.9)
        params = compute_tail_params(a, 0.5)
        data = _BoundData(a, _TailPlan(a, 0.5, params), None)
        assert data.count == len(data.level_starts) == 64
        long_block = metric.TailBoundParams(params.theta, params.scaling, 70, params.step_norm)
        assert len(_BoundData(a, _TailPlan(a, 0.5, long_block), None).level_starts) == 70

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(1, 5), k=st.integers(1, 3),
           gamma=st.floats(0.2, 0.85, exclude_min=True, exclude_max=True),
           kernel=st.sampled_from(["none", "copy", "near-copy", "loose", "skewed"]),
           seed=st.integers(0, 2**32 - 1))
    def test_sound_property(self, n, k, gamma, kernel, seed):
        """``upper`` is above the truncated value and the witness re-propagates to ``lower``."""
        rng = np.random.default_rng(seed)
        a = random_wfa(rng, n=n, alphabet=("a", "b", "c")[:k], norm_cap=rng.uniform(0.3, 1.0))
        if kernel != "none":  # duplicated copies: a bisimulation kernel of dimension n
            a = duplicated_copy(a)
        if kernel not in ("none", "copy"):  # a numerical kernel with small (or large) residuals
            noise = 10.0 ** (rng.uniform(-12, -8) if kernel == "near-copy" else rng.uniform(-6, -1))
            a = Wfa(alphabet=a.alphabet, alpha=a.alpha, beta=a.beta,
                    trans={s: m + noise * rng.standard_normal(m.shape) for s, m in a.trans.items()})
        v = rng.standard_normal(a.dim)
        bound, budget = None, 2000
        if kernel in ("loose", "skewed"):  # a kernel at a loose tol, v near the copies' differences, the root's bound
            v[n:] = -v[:n] + 1e-3 * v[n:]
            if kernel == "skewed":  # coordinates scaled apart: the balanced scaling meets a kernel
                d = 10.0 ** rng.uniform(-1.5, 1.5, a.dim)
                a, v = diagonal_skew(a, d), d * v
            tol = 10.0 ** rng.uniform(-4, -1)
            bound = _BoundData(a, _TailPlan(a, gamma, compute_tail_params(a, gamma)), largest_bisimulation(a, tol))
            budget = 0
        iv = seminorm_interval(a, v, gamma, budget=budget, node_bound=bound)
        assert truncated_seminorm(a, v, gamma, 9) <= iv.upper
        word = iv.witness_prefix
        value = sum(gamma**t * abs(evaluate(with_initial(a, v), word[:t])) for t in range(len(word) + 1))
        assert value == pytest.approx(iv.lower, rel=1e-12, abs=0.0)


class TestNodeBoundOption:
    def _generic(self, a, gamma):
        return _BoundData(a, _TailPlan(a, gamma, compute_tail_params(a, gamma)), largest_bisimulation(a, DEFAULT_TOL))

    def test_generic_bound_passed_explicitly_is_the_default(self, rng):
        a = duplicated_copy(random_wfa(rng, n=2, norm_cap=0.8))
        v = rng.standard_normal(a.dim)
        for eps, budget in ((1e-7, 4000), (1e-15, 7)):
            got = seminorm_interval(a, v, 0.6, eps, budget, node_bound=self._generic(a, 0.6))
            assert got == seminorm_interval(a, v, 0.6, eps, budget)

    def test_bound_with_only_children_is_the_default(self, rng):
        a = duplicated_copy(random_wfa(rng, n=2, norm_cap=0.8))
        v = rng.standard_normal(a.dim)
        generic = self._generic(a, 0.6)

        class ChildrenOnly:
            def children(self, states):
                return generic.children(states)

        for eps, budget in ((1e-7, 4000), (1e-15, 7)):
            got = seminorm_interval(a, v, 0.6, eps, budget, node_bound=ChildrenOnly())
            assert got == seminorm_interval(a, v, 0.6, eps, budget)

    @pytest.mark.parametrize("option,value", [("params", "certificate")])
    def test_generic_only_option_rejected(self, rng, option, value):
        a = random_wfa(rng, n=2, norm_cap=0.8)
        if value == "certificate":
            value = compute_tail_params(a, 0.6)
        with pytest.raises(ValueError, match=option):
            seminorm_interval(a, a.alpha, 0.6, node_bound=self._generic(a, 0.6), **{option: value})

    @pytest.mark.parametrize("option,value", [("tol", 1e-6), ("use_kernel_projection", False)])
    @pytest.mark.parametrize("func", ["seminorm_interval", "distance"])
    def test_removed_option_raises_type_error(self, rng, func, option, value):
        a = random_wfa(rng, n=2, norm_cap=0.8)
        with pytest.raises(TypeError, match=option):
            if func == "seminorm_interval":
                seminorm_interval(a, a.alpha, 0.6, **{option: value})
            else:
                distance(a, a, 0.6, **{option: value})


def level_loop_truncated_seminorm(a, v, gamma, depth):
    """Depth-limited seminorm with states as rows, each mapped by the stacked product."""
    stack = a.trans_stack()
    stacked = stack.reshape(-1, a.dim)  # rows of tau_s for s in alphabet order
    states = v[None, :]
    totals = np.array([abs(float(a.beta @ v))])
    gpow = 1.0
    for _ in range(depth):
        gpow *= gamma
        states = np.concatenate([stacked @ u for u in states]).reshape(-1, a.dim)
        totals = np.repeat(totals, stack.shape[0]) + gpow * np.abs(states @ a.beta)
    return float(np.max(totals))


class TestTruncatedSeminorm:
    @pytest.mark.parametrize("n,alphabet,depth", [
        (1, ("a",), 6), (3, ("a", "b"), 5), (5, ("a", "b", "c"), 4), (8, ("a", "b"), 6),
        (20, ("a", "b"), 4),
    ])
    def test_bit_equal_to_level_loop(self, n, alphabet, depth):
        rng = np.random.default_rng(n)
        for _ in range(5):
            a = random_wfa(rng, n=n, alphabet=alphabet, norm_cap=rng.uniform(0.3, 1.5))
            v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            gamma = rng.uniform(0.1, 0.99)
            for d in range(depth + 1):
                assert truncated_seminorm(a, v, gamma, d) == level_loop_truncated_seminorm(
                    a, v, gamma, d
                )

    def test_equals_value_iteration(self, rng):
        # depth-T enumeration must equal T+1 applications of the seminorm
        # operator F(s)(v) = |beta(v)| + gamma max_s s(tau_s v) to zero
        a = random_wfa(rng, n=2)
        gamma = 0.6

        def f_iter(v, k):
            if k == 0:
                return 0.0
            return abs(float(a.beta @ v)) + gamma * max(
                f_iter(a.trans[s] @ v, k - 1) for s in a.alphabet
            )

        for depth in range(7):
            v = rng.standard_normal(2)
            assert truncated_seminorm(a, v, gamma, depth) == pytest.approx(
                f_iter(v, depth + 1), abs=1e-12
            )

    def test_absolute_homogeneity(self, rng):
        a = random_wfa(rng, n=3)
        v = rng.standard_normal(3)
        base = truncated_seminorm(a, v, 0.5, 4)
        # powers of two scale exactly in floating point
        assert truncated_seminorm(a, 4.0 * v, 0.5, 4) == 4.0 * base
        assert truncated_seminorm(a, -v, 0.5, 4) == base
        c = 1.37
        assert truncated_seminorm(a, c * v, 0.5, 4) == pytest.approx(c * base, rel=1e-12)

    @pytest.mark.parametrize("gamma,v", [
        (np.nan, [1.0, 0.0, 0.0]), (-0.5, [1.0, 0.0, 0.0]), (0.5, [np.nan, 0.0, 0.0]),
    ])
    def test_invalid_input_rejected(self, rng, gamma, v):
        a = random_wfa(rng, n=3)
        with pytest.raises(ValueError):
            truncated_seminorm(a, np.array(v), gamma, 3)

    def test_subadditivity(self, rng):
        a = random_wfa(rng, n=3)
        for _ in range(20):
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            lhs = truncated_seminorm(a, u + v, 0.5, 5)
            rhs = truncated_seminorm(a, u, 0.5, 5) + truncated_seminorm(a, v, 0.5, 5)
            assert lhs <= rhs + 1e-9

    def test_is_lower_bound_of_interval_value(self, rng):
        a = random_wfa(rng, n=2)
        v = rng.standard_normal(2)
        iv = seminorm_interval(a, v, gamma=0.4, eps=1e-9)
        for depth in (2, 4, 6):
            assert truncated_seminorm(a, v, 0.4, depth) <= iv.upper + 1e-9


class TestDistance:
    def test_self_distance_immediate(self, rng):
        a = random_wfa(rng)
        iv = distance(a, a, gamma=0.5, eps=1e-6)
        assert iv.nodes_expanded == 0
        assert iv.upper <= 1e-9

    def test_padded_equivalent(self, rng):
        a = random_wfa(rng, n=3)
        padded = pad_with_zero_state(a)
        iv = distance(a, padded, gamma=0.4, eps=1e-6)
        assert iv.upper <= 1e-8

    def test_growth_pair_regression(self):
        a1, a2 = growth_pair(1)
        iv = distance(a1, a2, gamma=0.5, eps=1e-6)
        assert iv.lower - 1e-9 <= 2.0 <= iv.upper + 1e-9
        assert iv.width <= 1e-6

    def test_symmetry_exact(self, rng):
        a1 = random_wfa(rng, n=3)
        a2 = random_wfa(rng, n=2)
        iv12 = distance(a1, a2, gamma=0.4, eps=1e-6)
        iv21 = distance(a2, a1, gamma=0.4, eps=1e-6)
        assert iv12.lower == iv21.lower
        assert iv12.upper == iv21.upper
        assert iv12.witness_prefix == iv21.witness_prefix

    def test_triangle_inequality(self, rng):
        for _ in range(8):
            a = random_wfa(rng, n=2)
            b = random_wfa(rng, n=2)
            c = random_wfa(rng, n=3)
            ab = distance(a, b, gamma=0.3, eps=1e-8)
            bc = distance(b, c, gamma=0.3, eps=1e-8)
            ac = distance(a, c, gamma=0.3, eps=1e-8)
            assert ac.lower <= ab.upper + bc.upper + 1e-9

    def test_one_letter_families_contain_series_value(self, rng):
        for tau1, tau2, gamma in [(0.9, 0.7, 0.8), (1.2, 1.0, 0.5), (0.5, -0.5, 0.9)]:
            iv = distance(one_state(tau1), one_state(tau2), gamma=gamma, eps=1e-8)
            expected = geometric_distance(tau1, tau2, gamma)
            assert iv.lower - 1e-7 <= expected <= iv.upper + 1e-7

    def test_change_of_basis_overlap(self, rng):
        a1 = random_wfa(rng, n=2)
        a2 = random_wfa(rng, n=2)
        t = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        t_inv = np.linalg.inv(t)

        def conj(a):
            return Wfa(
                alphabet=a.alphabet,
                alpha=t @ a.alpha,
                beta=t_inv.T @ a.beta,
                trans={s: t @ m @ t_inv for s, m in a.trans.items()},
            )

        iv = distance(a1, a2, gamma=0.4, eps=1e-8)
        iv_c = distance(conj(a1), conj(a2), gamma=0.4, eps=1e-8)
        assert max(iv.lower, iv_c.lower) <= min(iv.upper, iv_c.upper) + 1e-7

    def test_kernel_separation(self, rng):
        # states outside the bisimulation kernel get strictly positive lower bounds
        dup = duplicated_copy(random_wfa(rng, n=2))
        w = largest_bisimulation(dup, 1e-9)
        comp = w.complement_basis()
        for _ in range(20):
            vec = rng.standard_normal(dup.dim)
            vec /= np.linalg.norm(vec)
            if np.linalg.norm(comp.T @ vec) < 0.1:
                continue
            iv = seminorm_interval(dup, vec, gamma=0.4, eps=1e-6)
            assert iv.lower > 0.0

    def test_alphabet_mismatch(self, rng):
        a1 = random_wfa(rng, alphabet=("a", "b"))
        a2 = random_wfa(rng, alphabet=("a", "c"))
        with pytest.raises(ValueError):
            distance(a1, a2, gamma=0.5)


def per_matrix_joint_certificate(a1, a2, gamma):
    """Joint single-step certificate, conjugating one matrix at a time.

    Returns ``(theta, scaling)`` of the smallest certifying theta, or None.
    """
    mats = [a1.trans[s] for s in a1.alphabet] + [a2.trans[s] for s in a2.alphabet]
    candidates = [np.eye(a1.dim)]
    balanced = balance_scaling(mats)
    if not np.allclose(balanced, np.eye(a1.dim)):
        candidates.append(balanced)
    best = None
    for s_mat in candidates:
        s_inv = np.linalg.inv(s_mat)
        theta = max(spectral_norm(s_mat @ m @ s_inv) for m in mats)
        if gamma * theta < 1.0 - 1e-12 and (best is None or theta < best[0]):
            best = (theta, s_mat)
    return best


def per_matrix_upper_bound(a1, a2, gamma, s_mat):
    """The closed-form distance bound, conjugating one matrix at a time; None if nu >= 1."""
    s_inv = np.linalg.inv(s_mat)
    theta = max(spectral_norm(s_mat @ a.trans[s] @ s_inv) for a in (a1, a2) for s in a.alphabet)
    nu = gamma * theta
    if nu >= 1.0:
        return None
    alpha_norm = float(np.linalg.norm(s_mat @ a1.alpha))
    beta_diff = float(np.linalg.norm(s_inv.T @ (a1.beta - a2.beta)))
    beta2_dual = float(np.linalg.norm(s_inv.T @ a2.beta))
    alpha_diff = float(np.linalg.norm(s_mat @ (a1.alpha - a2.alpha)))
    tau_diff = max(
        spectral_norm(s_mat @ (a1.trans[s] - a2.trans[s]) @ s_inv) for s in a1.alphabet
    )
    return (alpha_norm * beta_diff + beta2_dual * alpha_diff) / (1.0 - nu) + (
        gamma * alpha_norm * beta2_dual * tau_diff
    ) / (1.0 - nu) ** 2


def skewed_pair(rng, n, alphabet):
    """Two nearby automata in a badly scaled basis, so balancing is a candidate."""
    a = random_wfa(rng, n=n, alphabet=alphabet, norm_cap=0.7)
    d = np.diag(10.0 ** rng.uniform(-2, 2, n))
    d_inv = np.linalg.inv(d)
    a = Wfa(alphabet=alphabet, alpha=d @ a.alpha, beta=d_inv @ a.beta,
            trans={s: d @ m @ d_inv for s, m in a.trans.items()})
    b = Wfa(alphabet=alphabet, alpha=a.alpha + 0.01 * rng.standard_normal(n),
            beta=a.beta + 0.01 * rng.standard_normal(n),
            trans={s: m + 0.01 * rng.standard_normal((n, n)) for s, m in a.trans.items()})
    return a, b


class TestDistanceUpperBound:
    @pytest.mark.parametrize("n,alphabet", [(1, ("a",)), (3, ("a", "b")), (6, ("a", "b", "c"))])
    def test_bit_equal_to_per_matrix_reference(self, n, alphabet):
        rng = np.random.default_rng(n)
        for _ in range(10):
            a, b = skewed_pair(rng, n, alphabet)
            gamma = rng.uniform(0.05, 0.5)
            ref = per_matrix_joint_certificate(a, b, gamma)
            if ref is None:
                with pytest.raises(CannotCertifyError):
                    distance_upper_bound(a, b, gamma)
                continue
            assert distance_upper_bound(a, b, gamma) == per_matrix_upper_bound(a, b, gamma, ref[1])

    def test_identical_automata_zero(self, rng):
        a = random_wfa(rng)
        assert distance_upper_bound(a, a, 0.5) == 0.0

    def test_growth_pair_value(self):
        a1, a2 = growth_pair(2)
        bound = distance_upper_bound(a1, a2, 0.5)
        # gamma * |tau - tau_i| / (1 - nu)^2 with nu = 0.625 under l2 scaling
        assert bound == pytest.approx(0.5 * 0.25 / 0.140625, rel=1e-9)
        assert bound >= 2.0 / 3.0

    def test_dominates_true_distance(self, rng):
        for _ in range(15):
            a = random_wfa(rng, n=3, norm_cap=0.7)
            noise = {
                s: a.trans[s] + 0.05 * rng.standard_normal((3, 3)) for s in a.alphabet
            }
            b = Wfa(
                alphabet=a.alphabet,
                alpha=a.alpha + 0.05 * rng.standard_normal(3),
                beta=a.beta + 0.05 * rng.standard_normal(3),
                trans=noise,
            )
            bound = distance_upper_bound(a, b, 0.5)
            iv = distance(a, b, gamma=0.5, eps=1e-6)
            assert bound >= iv.lower - 1e-12
            if iv.converged:
                assert bound >= iv.upper - 1e-9

    def test_nu_must_be_below_one(self):
        # rate 1.5 at gamma 0.7: nu = 1.05 in every candidate scaling
        a = one_state(1.5)
        assert distance_upper_bound(a, a, 0.6) == 0.0
        with pytest.raises(CannotCertifyError, match="gamma=0.7"):
            distance_upper_bound(a, a, 0.7)

    @pytest.mark.parametrize("gamma", [np.nan, -0.5, 0.0])
    def test_invalid_gamma_rejected(self, gamma):
        # a NaN gamma once passed the nu >= 1 check and returned NaN, a
        # negative one returned a negative bound
        a1, a2 = one_state(0.5), one_state(0.4)
        with pytest.raises(ValueError, match="gamma"):
            distance_upper_bound(a1, a2, gamma)

    def test_empty_automata(self):
        empty = Wfa(alphabet=("a",), alpha=np.zeros(0), beta=np.zeros(0),
                    trans={"a": np.zeros((0, 0))})
        assert distance_upper_bound(empty, empty, 0.9) == 0.0

    def test_cannot_certify_joint(self):
        # the certificate must hold for both automata: a1 alone certifies, the pair does not
        a1, a2 = one_state(0.5), one_state(1.5)
        assert distance_upper_bound(a1, a1, 0.7) == 0.0
        with pytest.raises(CannotCertifyError, match="no common single-step certificate"):
            distance_upper_bound(a1, a2, 0.7)


class TestContinuityExperiment:
    def test_zero_scale_row(self, rng):
        a = random_wfa(rng, n=3, norm_cap=0.7)
        rows = parameter_continuity_experiment(a, [0.0], gamma=0.4, eps=1e-6, seed=1)
        scale, lower, upper, bound = rows[0]
        assert scale == 0.0
        assert upper <= 1e-6
        assert bound <= 1e-9

    @pytest.mark.parametrize("scale", [-0.1, np.nan, np.inf])
    def test_bad_scale_rejected(self, rng, scale):
        # a negative scale once printed -0.1 for a perturbation of norm 0.1
        a = random_wfa(rng, n=2, norm_cap=0.7)
        with pytest.raises(ValueError, match=f"got {scale}"):
            parameter_continuity_experiment(a, [0.01, scale], gamma=0.4)

    def test_upper_decreases_with_scale(self, rng):
        a = random_wfa(rng, n=3, norm_cap=0.7)
        rows = parameter_continuity_experiment(
            a, [1e-1, 1e-2, 1e-3, 1e-4], gamma=0.4, eps=1e-8, seed=3
        )
        uppers = [r[2] for r in rows]
        widths = [r[2] - r[1] for r in rows]
        for i in range(len(uppers) - 1):
            assert uppers[i + 1] <= uppers[i] + widths[i] + widths[i + 1]
        assert uppers[-1] < uppers[0]
        # Lemma-style bound dominates every certified upper value
        for _, lower, upper, bound in rows:
            assert bound >= lower - 1e-12

    def test_growth_family_distance_decreases(self):
        # closed form: d vanishes as the perturbed rate approaches 1
        gamma = 0.5
        values = []
        for i in (1, 2, 3, 4):
            a1, a2 = growth_pair(i)
            iv = distance(a1, a2, gamma=gamma, eps=1e-8)
            expected = 1 / (1 - gamma * (1 + 2.0 ** (-i))) - 1 / (1 - gamma)
            assert iv.lower - 1e-7 <= expected <= iv.upper + 1e-7
            values.append(iv.upper)
        assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
