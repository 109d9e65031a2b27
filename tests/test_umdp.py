import heapq
import itertools
import warnings

import numpy as np
import pytest

from wfametrics import (
    CannotCertifyError,
    CertifiedInterval,
    Umdp,
    admissible_gamma_bound,
    seminorm_interval,
    umdp_sup_value_interval,
    umdp_to_wfa,
    umdp_value_truncated,
    wfa_spectral_radius,
)
from wfametrics import umdp as umdp_mod
from conftest import random_stochastic


def random_umdp(rng, n=3, actions=("a", "b"), gamma=0.9):
    return Umdp(
        actions=tuple(actions),
        alpha=(lambda p: p / p.sum())(rng.random(n) + 1e-3),
        beta=rng.random(n),
        trans={act: random_stochastic(rng, n) for act in actions},
        gamma=gamma,
    )


def alpha_set(u):
    """The alpha-set that ``umdp_sup_value_interval`` builds for ``u``."""
    top = float(np.max(u.beta)) / (1.0 - u.gamma)
    return umdp_mod._alpha_vectors(u, umdp_mod._loop_values(u, 1), top)


def simulate_value(u, word, horizon):
    """Independent forward simulation of the distribution recursion."""
    dist = np.array(u.alpha)
    total = 0.0
    for t in range(1, horizon + 1):
        total += u.gamma ** (t - 1) * float(dist @ u.beta)
        dist = dist @ u.trans[word[t - 1]]
    return total


class TestValidation:
    def test_rejects_non_stochastic(self, rng):
        bad = np.array([[0.5, 0.6], [0.2, 0.8]])
        with pytest.raises(ValueError, match="row sums"):
            Umdp(actions=("a",), alpha=[1.0, 0.0], beta=[1.0, 0.0], trans={"a": bad}, gamma=0.9)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="probability"):
            Umdp(actions=("a",), alpha=[0.7, 0.7], beta=[1.0, 0.0],
                 trans={"a": np.eye(2)}, gamma=0.9)

    def test_rejects_negative_rewards(self):
        with pytest.raises(ValueError, match="non-negative"):
            Umdp(actions=("a",), alpha=[1.0, 0.0], beta=[-1.0, 0.0],
                 trans={"a": np.eye(2)}, gamma=0.9)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            Umdp(actions=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[1.0]]}, gamma=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["alpha", "beta", "trans"])
    def test_non_finite_entries_rejected(self, field, bad):
        parts = {"alpha": [1.0, 0.0], "beta": [1.0, 0.0],
                 "trans": {"a": np.eye(2), "b": np.eye(2)}}
        if field == "trans":
            parts["trans"]["b"] = np.array([[bad, 0.0], [0.0, 1.0]])
        else:
            parts[field] = [1.0, bad] if field == "beta" else [bad, 0.0]
        match = {"alpha": "alpha", "beta": "rewards", "trans": "kernel for 'b'"}[field]
        with pytest.raises(ValueError, match=f"{match}.* has non-finite entries"):
            Umdp(actions=("a", "b"), gamma=0.9, **parts)

    def test_rejects_empty_action(self):
        with pytest.raises(ValueError, match="actions has an empty symbol"):
            Umdp(actions=("", "a"), alpha=[1.0], beta=[1.0], trans={"": [[1.0]], "a": [[1.0]]},
                 gamma=0.9)

    @pytest.mark.parametrize("action", ["ε", "a b"])
    def test_rejects_action_no_word_can_name(self, action):
        # "ε" is the empty word and whitespace separates actions, so neither has a text form
        with pytest.raises(ValueError, match=f"actions has the symbol '{action}'"):
            Umdp(actions=(action, "a"), alpha=[1.0], beta=[1.0], trans={action: [[1.0]], "a": [[1.0]]},
                 gamma=0.9)

    def test_trans_keys_must_be_the_actions(self):
        with pytest.raises(ValueError, match="trans keys must match"):
            Umdp(actions=("a",), alpha=[1.0], beta=[1.0], trans={"b": [[1.0]]}, gamma=0.9)

    def test_kernel_entries_lie_in_unit_interval(self):
        # the rows sum to 1, but 1.5 is no probability
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            Umdp(actions=("a",), alpha=[1.0, 0.0], beta=[1.0, 0.0],
                 trans={"a": [[1.5, -0.5], [0.0, 1.0]]}, gamma=0.9)

    def test_rows_renormalized_exactly(self, rng):
        mat = random_stochastic(rng, 3)
        mat[0] = mat[0] * (1 + 5e-13)  # within tolerance, off machine-exact
        u = Umdp(actions=("a",), alpha=[1, 0, 0], beta=[1, 1, 1], trans={"a": mat}, gamma=0.5)
        assert np.allclose(u.trans["a"].sum(axis=1), 1.0, atol=1e-15)


class TestTruncatedValue:
    def test_horizon_one_is_expected_reward(self, rng):
        u = random_umdp(rng)
        word = ("a",) * 5
        assert umdp_value_truncated(u, word, 1) == pytest.approx(
            float(u.alpha @ u.beta), abs=1e-14
        )

    def test_single_state_geometric(self):
        u = Umdp(actions=("a",), alpha=[1.0], beta=[2.5], trans={"a": [[1.0]]}, gamma=0.8)
        for h in (1, 3, 10):
            expected = 2.5 * (1 - 0.8**h) / (1 - 0.8)
            assert umdp_value_truncated(u, ("a",) * h, h) == pytest.approx(expected, rel=1e-12)

    def test_matches_simulation_oracle(self, rng):
        u = random_umdp(rng, n=2)
        for _ in range(10):
            word = tuple(rng.choice(u.actions, size=12))
            got = umdp_value_truncated(u, word, 12)
            assert got == pytest.approx(simulate_value(u, word, 12), abs=1e-13)

    def test_string_shorter_than_horizon(self, rng):
        u = random_umdp(rng)
        with pytest.raises(ValueError, match="horizon"):
            umdp_value_truncated(u, ("a",), 2)

    def test_unknown_action(self, rng):
        u = random_umdp(rng)
        with pytest.raises(ValueError, match="'z'"):
            umdp_value_truncated(u, ("z",), 1)

    def test_unknown_action_reported_before_the_horizon(self, rng):
        u = random_umdp(rng)
        with pytest.raises(ValueError, match="unknown symbol 'z'"):
            umdp_value_truncated(u, "az", 5)


class TestReduction:
    def test_identity_transitions_geometric(self):
        u = Umdp(actions=("a",), alpha=[0.5, 0.5], beta=[1.0, 3.0],
                 trans={"a": np.eye(2)}, gamma=0.7)
        a = umdp_to_wfa(u)
        h = 20
        expected = float(u.alpha @ u.beta) * (1 - 0.7**h) / (1 - 0.7)
        state = a.alpha
        total = 0.0
        for t in range(h):
            total += 0.7**t * abs(float(a.beta @ state))
            state = a.trans["a"] @ state
        assert total == pytest.approx(expected, rel=1e-12)

    def test_spectral_radius_consistent_with_discount(self, rng):
        u = random_umdp(rng)
        a = umdp_to_wfa(u)
        bounds = wfa_spectral_radius(a, depth=6)
        assert bounds.upper >= 1.0 - 1e-12
        assert admissible_gamma_bound(a, depth=6) <= 1.0 + 1e-12

    def test_reduction_identity(self, rng):
        for _ in range(5):
            u = random_umdp(rng, n=3)
            a = umdp_to_wfa(u)
            for _ in range(10):
                word = tuple(rng.choice(u.actions, size=30))
                lhs = umdp_value_truncated(u, word, 30)
                state = a.alpha
                rhs = 0.0
                for t in range(30):
                    rhs += u.gamma**t * abs(float(a.beta @ state))
                    state = a.trans[word[t]] @ state
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSupValue:
    @pytest.mark.parametrize("eps", [0.0, -1e-6, np.nan])
    def test_eps_must_be_positive(self, rng, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            umdp_sup_value_interval(random_umdp(rng), eps=eps)

    def test_single_action_resolvent_in_interval(self, rng):
        for _ in range(5):
            trans = random_stochastic(rng, 3)
            alpha = rng.random(3)
            alpha /= alpha.sum()
            u = Umdp(actions=("a",), alpha=alpha, beta=rng.random(3),
                     trans={"a": trans}, gamma=0.9)
            iv = umdp_sup_value_interval(u, eps=1e-6)
            exact = float(u.alpha @ np.linalg.solve(np.eye(3) - u.gamma * trans, u.beta))
            assert iv.lower - 1e-9 <= exact <= iv.upper + 1e-9
            assert iv.converged

    def test_zero_rewards(self, rng):
        u = Umdp(actions=("a", "b"), alpha=[1.0, 0.0], beta=[0.0, 0.0],
                 trans={"a": random_stochastic(rng, 2), "b": random_stochastic(rng, 2)},
                 gamma=0.5)
        iv = umdp_sup_value_interval(u)
        assert iv.lower == 0.0
        assert iv.upper <= 1e-12

    def test_dominating_action_wins_witness(self):
        # action "a" stays in the high-reward state, "b" drains to low reward
        trans = {
            "a": np.array([[1.0, 0.0], [1.0, 0.0]]),
            "b": np.array([[0.0, 1.0], [0.0, 1.0]]),
        }
        u = Umdp(actions=("a", "b"), alpha=[1.0, 0.0], beta=[1.0, 0.0],
                 trans=trans, gamma=0.5)
        iv = umdp_sup_value_interval(u, eps=1e-4)
        assert set(iv.witness_prefix) == {"a"}
        # exhaustive depth-10 search oracle
        best = max(
            sum(0.5**t * _value_term(u, word, t) for t in range(10))
            for word in _all_fixed_words(("a", "b"), 10)
        )
        assert iv.upper >= best - 1e-9

    def test_reward_monotonicity(self, rng):
        u = random_umdp(rng, n=2, gamma=0.6)
        bigger = Umdp(actions=u.actions, alpha=u.alpha, beta=u.beta + 0.5,
                      trans=dict(u.trans), gamma=u.gamma)
        iv1 = umdp_sup_value_interval(u, eps=1e-5)
        iv2 = umdp_sup_value_interval(bigger, eps=1e-5)
        assert iv2.lower >= iv1.lower - 1e-9


def sweep_umdp(rng, case):
    """Random UMDP of the soundness sweep; every third one has (near-)deterministic kernels."""
    n = int(rng.integers(2, 7))
    actions = ("a", "b", "c")[: int(rng.integers(1, 4))]
    trans = {}
    for act in actions:
        if case % 3 == 0:
            mat = np.eye(n)[rng.integers(0, n, size=n)]
            if case % 6 == 0:  # near-deterministic; the other half stays deterministic
                mat = mat + 10.0 ** rng.uniform(-12, -3) * rng.random((n, n))
            trans[act] = mat / mat.sum(axis=1, keepdims=True)
        else:
            trans[act] = random_stochastic(rng, n)
    alpha = rng.random(n) + 1e-3
    beta = rng.random(n) * (rng.random(n) < 0.8)  # some states without reward
    return Umdp(actions=actions, alpha=alpha / alpha.sum(), beta=beta, trans=trans,
                gamma=rng.uniform(0.3, 0.95))


def best_truncated_value(u, depth):
    """Brute force: the largest value of the first ``depth + 1`` rewards over all action strings."""
    dists = u.alpha[None, :]
    totals = dists @ u.beta
    for t in range(1, depth + 1):
        dists = np.concatenate([dists @ u.trans[act] for act in u.actions])
        totals = np.tile(totals, len(u.actions)) + u.gamma**t * (dists @ u.beta)
    return float(np.max(totals))


def mdp_value(u):
    """Fully observable MDP value by value iteration: an upper bound on the blind sup value."""
    v = np.zeros(u.num_states)
    for _ in range(100_000):
        new = np.max([u.beta + u.gamma * (u.trans[act] @ v) for act in u.actions], axis=0)
        if np.array_equal(new, v):
            break
        v = new
    return v


class TestAlphaVectorBound:
    def test_sound_on_seeded_sweep(self):
        rng = np.random.default_rng(60606)
        certified = 0
        for case in range(200):
            u = sweep_umdp(rng, case)
            iv = umdp_sup_value_interval(u, budget=500)
            top = float(np.max(u.beta)) / (1.0 - u.gamma)
            assert best_truncated_value(u, 8) <= iv.upper
            assert iv.upper <= float(u.alpha @ mdp_value(u)) + 1e-12 * top
            word = iv.witness_prefix
            value = umdp_value_truncated(u, word + (u.actions[0],), len(word) + 1)
            assert value == pytest.approx(iv.lower, rel=1e-12, abs=0.0)
            assert iv.converged == (iv.upper - iv.lower <= 1e-6)
            for act in u.actions:  # no stationary sequence beats the lasso lower bound
                assert iv.lower >= umdp_value_truncated(u, (act,) * 400, 400) - 1e-6 / 100
            loops = umdp_mod._loop_values(u, umdp_mod._longest_loop(len(u.actions), u.num_states))
            assert iv.lower >= float(np.max(loops @ u.alpha)) - 1e-6 / 100  # nor any root loop
            a = umdp_to_wfa(u)
            try:
                generic = seminorm_interval(a, a.alpha, u.gamma, budget=50)
            except CannotCertifyError:
                continue
            certified += 1
            assert max(iv.lower, generic.lower) <= min(iv.upper, generic.upper)
        assert certified >= 100

    @pytest.mark.parametrize("zero_rewards", [False, True])
    def test_alpha_set_is_a_supersolution(self, zero_rewards):
        rng = np.random.default_rng(61)
        for case in range(30):
            u = sweep_umdp(rng, case)
            if zero_rewards:
                u = Umdp(actions=u.actions, alpha=u.alpha, beta=np.zeros(u.num_states),
                         trans=u.trans, gamma=u.gamma)
            alphas = alpha_set(u)
            for i, act in enumerate(u.actions):
                backup = np.max([u.trans[act] @ alphas[j] for j in range(len(u.actions))], axis=0)
                assert np.all(alphas[i] >= u.beta + u.gamma * backup)
            if zero_rewards:
                assert np.all(alphas == 0.0)

    OVERFLOWING = Umdp(actions=("a", "b"), alpha=[0.5, 0.5], beta=[1e308, 0.0],
                       trans={"a": np.eye(2), "b": np.eye(2)[::-1]}, gamma=0.9)

    def test_no_alpha_set_when_the_value_bound_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no inf * 0 in the iteration
            with pytest.raises(ValueError, match="overflows"):
                umdp_sup_value_interval(self.OVERFLOWING)

    def test_overflowing_value_rejected_before_the_search(self):
        # the search once spent its whole budget on an infinite root bound
        with pytest.raises(ValueError, match="overflows"):
            umdp_sup_value_interval(self.OVERFLOWING, budget=20_000)

    @pytest.mark.parametrize("budget", [2.5, np.nan, -1, np.inf])
    def test_bad_budget_rejected_before_the_alpha_set(self, rng, monkeypatch, budget):
        # the alpha-set is a dense linear solve per policy; a bad budget once paid for it first
        def not_called(*args):
            raise AssertionError("_alpha_vectors was called")

        monkeypatch.setattr(umdp_mod, "_alpha_vectors", not_called)
        with pytest.raises(ValueError, match="budget"):
            umdp_sup_value_interval(random_umdp(rng, n=3, gamma=0.5), budget=budget)

    def test_failed_check_cannot_certify(self, rng, monkeypatch):
        monkeypatch.setattr(umdp_mod, "_is_supersolution", lambda *args: False)
        u = random_umdp(rng, n=3, gamma=0.5)
        with pytest.raises(CannotCertifyError, match="alpha-vector bound"):
            umdp_sup_value_interval(u)

    def test_discount_next_to_one_cannot_certify(self, rng):
        # at 1 - gamma ~ 7e-16 the lift cannot beat the rounding of the backup
        u = random_umdp(rng, n=3, gamma=1.0 - 7e-16)
        assert 1.0 - u.gamma < 7e-16
        with pytest.raises(CannotCertifyError, match="alpha-vector bound"):
            umdp_sup_value_interval(u)

    def test_alpha_set_is_the_fixed_point(self):
        # policy iteration lands on the fixed point that value iteration approaches
        rng = np.random.default_rng(62)
        for case in range(20):
            u = sweep_umdp(rng, case)
            kernels = np.concatenate([u.trans[act] for act in u.actions])
            alphas = np.full((len(u.actions), u.num_states), np.max(u.beta) / (1 - u.gamma))
            for _ in range(2000):
                alphas = umdp_mod._backup(kernels, u.beta, u.gamma, alphas)
            top = float(np.max(u.beta)) / (1.0 - u.gamma)
            assert np.allclose(alpha_set(u), alphas, rtol=0, atol=1e-9 * top)

    @pytest.mark.parametrize("gamma", [0.999, 1.0 - 1e-9])
    def test_discount_near_one_gets_a_tight_alpha_set(self, gamma):
        # value iteration from max(beta) / (1 - gamma) barely moves at these discounts
        u = random_umdp(np.random.default_rng(5), n=20, actions=("a", "b", "c"), gamma=gamma)
        iv = umdp_sup_value_interval(u, budget=50)
        top = float(np.max(u.beta)) / (1.0 - gamma)
        assert iv.upper < 0.9 * top

    def test_tighter_than_generic_bound_at_equal_budget(self, rng):
        u = random_umdp(rng, n=4, actions=("a", "b", "c"), gamma=0.8)
        a = umdp_to_wfa(u)
        ours = umdp_sup_value_interval(u, budget=2000)
        generic = seminorm_interval(a, a.alpha, u.gamma, budget=2000)
        assert ours.width < generic.width


def prefix_search(a, gamma, bound, eps, budget):
    """The sup search with tuple words and prefix lower bounds only: the loop before lassos."""
    # children as seminorm_interval forms them: one product with the (k*n, n) stack
    stack_rows = np.concatenate([a.trans[s] for s in a.alphabet])
    bvals, rems, _ = bound.children(a.alpha[None])
    lower = bvals[0]
    upper = lower + rems[0]
    witness, depth_explored, nodes_expanded = (), 0, 0
    heap = [(-upper, 0, (), gamma, a.alpha, lower)]
    while heap and nodes_expanded < budget:
        neg_u, d, word, gpow, state, partial = heapq.heappop(heap)
        upper = min(upper, -neg_u)
        if upper - lower <= eps:
            break
        children = (stack_rows @ state).reshape(len(a.alphabet), a.dim)
        bvals, rems, _ = bound.children(children)
        for i, sym in enumerate(a.alphabet):
            child_p = partial + gpow * bvals[i]
            if child_p > lower:
                lower, witness = child_p, word + (sym,)
            heapq.heappush(heap, (-(child_p + gpow * rems[i]), d + 1, word + (sym,),
                                  gpow * gamma, children[i], child_p))
        nodes_expanded += 1
        depth_explored = max(depth_explored, d + 1)
    else:
        if heap:
            upper = min(upper, -heap[0][0])
    upper = max(upper, lower)
    converged = (upper - lower) <= eps
    # the outward rounding of "Rounding" in the metric module docstring, for a bound passed in
    upper += upper * ((depth_explored + 64 + a.dim + 5) * 2.0**-52)
    return CertifiedInterval(lower, upper, gamma, depth_explored, nodes_expanded, witness,
                             converged=converged)


class WithoutLassos:
    """A node bound with its lasso values dropped: the search then scores prefixes only."""

    def __init__(self, bound):
        self.bound = bound

    def children(self, states):
        return self.bound.children(states)[:2] + (None,)


def spy_node_bounds(monkeypatch):
    """The node bounds that ``umdp_sup_value_interval`` searches with, in call order."""
    bounds, search = [], umdp_mod.seminorm_interval

    def spy(*args, node_bound, **kwargs):
        bounds.append(node_bound)
        return search(*args, node_bound=node_bound, **kwargs)

    monkeypatch.setattr(umdp_mod, "seminorm_interval", spy)
    return bounds


def assert_lassos_only_help(u, iv, bound, eps, budget):
    """The search without ``bound``'s lassos expands at least as many nodes and finds no better ``lower``."""
    a = umdp_to_wfa(u)
    prefixes = seminorm_interval(a, a.alpha, u.gamma, eps, budget, node_bound=WithoutLassos(bound))
    assert iv.nodes_expanded <= prefixes.nodes_expanded and iv.lower >= prefixes.lower
    return prefixes


class TestLassoLowerBound:
    DEMO = Umdp(actions=("jump", "stay"), alpha=[1.0, 0.0], beta=[0.0, 2.0],
                trans={"stay": np.array([[0.9, 0.1], [0.2, 0.8]]),
                       "jump": np.array([[0.1, 0.9], [0.0, 1.0]])}, gamma=0.8)

    def test_bound_without_lassos_gives_the_prefix_search(self, monkeypatch):
        bounds = spy_node_bounds(monkeypatch)
        rng = np.random.default_rng(63)
        for case in range(30):
            u = sweep_umdp(rng, case)
            a = umdp_to_wfa(u)
            for eps, budget in ((1e-6, 300), (1e-12, 7)):
                iv = umdp_sup_value_interval(u, eps, budget)
                got = assert_lassos_only_help(u, iv, bounds[-1], eps, budget)
                assert got == prefix_search(a, u.gamma, bounds[-1], eps, budget)

    def test_lasso_closes_the_gap_at_the_root(self):
        # "jump" forever is optimal: value 2 * 0.9 * 0.8 / (0.2 * 0.92) = 180 / 23
        iv = umdp_sup_value_interval(self.DEMO, eps=1e-4)
        assert iv.converged and iv.nodes_expanded == 0 and iv.depth_explored == 0
        assert set(iv.witness_prefix) == {"jump"}
        assert 180 / 23 - 1e-4 / 100 <= iv.lower <= 180 / 23 <= iv.upper
        # the written-out word is as short as its tail bound allows
        length = len(iv.witness_prefix)
        assert 0.8 ** (length + 1) * 10 <= 1e-6 < 0.8**length * 10

    def test_converged_is_judged_on_the_written_out_lower(self):
        # lasso values inflated by 1 close the gap test at once; the word cannot back them
        a = umdp_to_wfa(self.DEMO)
        bound = umdp_mod._AlphaVectorBound(alpha_set(self.DEMO), self.DEMO.beta,
                                           umdp_mod._loop_values(self.DEMO, 1) + 1.0, 10, 1e-6)
        iv = seminorm_interval(a, a.alpha, 0.8, 1e-4, node_bound=bound)
        assert iv.nodes_expanded == 0 and not iv.converged
        assert iv.lower == umdp_value_truncated(self.DEMO, iv.witness_prefix + ("jump",), 11)

    @pytest.mark.parametrize("gamma, prefix_lower, upper", [
        (0.996, 90.89, 164.27517015938696),
        (0.999, 119.71, 656.9971927816063),
        (1.0 - 1e-9, 132.08, 656965361.907185),
    ])
    def test_lasso_past_the_length_cap_is_written_out_to_the_cap(self, gamma, prefix_lower, upper):
        # a search that scored prefixes only here gave the same upper and a lower end of prefix_lower
        u = random_umdp(np.random.default_rng(6), n=4, actions=("a", "b"), gamma=gamma)
        iv = umdp_sup_value_interval(u, budget=200)
        word = iv.witness_prefix
        assert len(word) == umdp_mod._LASSO_LENGTH_CAP == 4096
        assert iv.lower == umdp_value_truncated(u, word + ("a",), len(word) + 1)
        assert iv.upper == upper and iv.lower > prefix_lower

    def test_near_one_lower_is_the_value_of_its_witness(self, monkeypatch):
        bounds = spy_node_bounds(monkeypatch)
        rng = np.random.default_rng(2024)
        capped = 0
        for _ in range(20):
            n = int(rng.integers(1, 7))
            actions = ("a", "b", "c")[: int(rng.integers(1, 4))]
            gamma = 1.0 - 10.0 ** rng.uniform(-5, -1.5)
            u = random_umdp(rng, n=n, actions=actions, gamma=gamma)
            iv = umdp_sup_value_interval(u, budget=100)
            word = iv.witness_prefix
            assert iv.lower == umdp_value_truncated(u, word + ("a",), len(word) + 1) <= iv.upper
            assert_lassos_only_help(u, iv, bounds[-1], 1e-6, 100)
            capped += len(word) == umdp_mod._LASSO_LENGTH_CAP
        assert capped >= 10


def sparse_umdp(c):
    """Seeded UMDP from the first state, with one or two successors per state and action."""
    rng = np.random.default_rng([2026, c])
    n = int(rng.integers(2, 7))
    actions = ("a", "b", "c")[: int(rng.integers(2, 4))]
    gamma = float(rng.uniform(0.5, 0.95))
    trans = {}
    for act in actions:
        mat = np.zeros((n, n))
        for s in range(n):
            cols = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
            w = rng.random(len(cols)) + 0.05
            mat[s, cols] = w / w.sum()
        trans[act] = mat
    beta = rng.random(n) * (rng.random(n) < 0.6)
    return Umdp(actions=actions, alpha=np.eye(n)[0], beta=beta, trans=trans, gamma=gamma)


class TestLoopLassos:
    # "a" then "b" walks 0 -> 1 -> 0 -> ... on the rewarding states; every other
    # move drops into the sink 2, so one action repeated earns at most two rewards
    ALTERNATING = Umdp(actions=("a", "b"), alpha=[1.0, 0.0, 0.0], beta=[1.0, 1.0, 0.0],
                       trans={"a": np.eye(3)[[1, 2, 2]], "b": np.eye(3)[[2, 0, 2]]}, gamma=0.9)

    @pytest.mark.parametrize("budget", [0, 20])
    def test_alternating_loop_sets_the_lower_end(self, budget):
        u, eps = self.ALTERNATING, 1e-6
        iv = umdp_sup_value_interval(u, eps=eps, budget=budget)
        alternating = 1.0 / (1.0 - u.gamma)  # a reward at every step
        assert iv.lower >= alternating - eps / 100
        assert iv.lower <= alternating <= iv.upper
        word = iv.witness_prefix
        assert iv.lower == umdp_value_truncated(u, word + (u.actions[0],), len(word) + 1)
        assert word[:4] == ("a", "b", "a", "b") and len(set(word[-2:])) == 2
        # the node lassos alone repeat one action after a prefix: worth less
        a = umdp_to_wfa(u)
        loops = umdp_mod._loop_values(u, 1)
        top = float(np.max(u.beta)) / (1.0 - u.gamma)
        bound = umdp_mod._AlphaVectorBound(alpha_set(u), u.beta, loops, len(word), eps / 100)
        single = seminorm_interval(a, a.alpha, u.gamma, eps, budget, node_bound=bound)
        assert single.lower < alternating - 0.5 * top * u.gamma ** (budget + 3)

    def test_best_lasso_after_a_prefix(self):
        # states S, H, A, B, Z: "aa" collects H's reward 5 and reaches A, then "ab" alternates
        # A and B (reward 1 each); no loop from S or from H does as well, and "ba" from S
        # alternates A and B without H
        u = Umdp(actions=("a", "b"), alpha=np.eye(5)[0], beta=[0.0, 5.0, 1.0, 1.0, 0.0],
                 trans={"a": np.eye(5)[[1, 2, 3, 4, 4]], "b": np.eye(5)[[2, 4, 4, 2, 4]]}, gamma=0.5)
        iv = umdp_sup_value_interval(u, eps=1e-6, budget=0)
        best = 0.5 * 5.0 + 0.25 * 2.0
        assert best - 1e-6 / 100 <= iv.lower <= best <= iv.upper
        assert iv.witness_prefix[:6] == ("a", "a", "a", "b", "a", "b")

    # lower ends of a lasso stage in two steps: the node lasso written out and summed, then
    # every loop scored after the prefixes of the word kept.  Scoring the loops only after
    # the prefixes of the best prefix and of the node lasso's stem gave 3.9549, 1.1859 and
    # 5.8595 here: the node lasso written out must be scored as well.
    SPARSE_LOWER = {20: 4.220404941873668, 52: 1.2312949117795426, 100: 6.247426970875406}

    def test_lasso_stage_scores_the_written_out_node_lasso(self):
        for c in range(200):
            u = sparse_umdp(c)
            iv = umdp_sup_value_interval(u, eps=1e-6, budget=c % 4)
            word = iv.witness_prefix
            assert iv.lower == umdp_value_truncated(u, word + (u.actions[0],), len(word) + 1)
            assert iv.lower >= self.SPARSE_LOWER.get(c, 0.0) * (1 - 1e-12)
            if c == 188:  # the lasso closes the gap at the root
                assert iv.converged and iv.nodes_expanded == 0
                assert iv.lower == pytest.approx(4.052281174032168, rel=1e-12)

    def test_loop_values_are_the_repeated_loops(self):
        u = random_umdp(np.random.default_rng(64), n=3, actions=("a", "b"), gamma=0.5)
        loops = umdp_mod._loop_values(u, 3)
        words = [w for p in (1, 2, 3) for w in itertools.product(u.actions, repeat=p)]
        assert loops.shape == (len(words), 3)
        for word, row in zip(words, loops):
            # 0.5^60 of the reward bound is far below the tolerance
            assert float(u.alpha @ row) == pytest.approx(
                simulate_value(u, word * 60, 60), rel=1e-12, abs=0.0)

    def test_longest_loop_is_the_largest_within_the_caps(self):
        entries, loops = umdp_mod._LOOP_ENTRIES, umdp_mod._LOOP_COUNT
        for k, n in itertools.product([1, 2, 3, 4], [1, 2, 8, 20, 60, 91, 200]):
            p = umdp_mod._longest_loop(k, n)
            count = sum(k**t for t in range(1, p + 1))
            assert p == 1 or (k**p * n * n <= entries and count <= loops)
            if k == 1:  # a longer loop of one action only repeats it
                assert p == 1
            else:  # the next level would pass a cap
                assert k ** (p + 1) * n * n > entries or count + k ** (p + 1) > loops
        assert umdp_mod._longest_loop(3, 8) == 5 and umdp_mod._longest_loop(2, 2) == 8

    def spy_loop_lengths(self, monkeypatch):
        calls = []
        loop_values = umdp_mod._loop_values

        def spy(u, longest):
            calls.append(longest)
            return loop_values(u, longest)

        monkeypatch.setattr(umdp_mod, "_loop_values", spy)
        return calls

    def test_one_action_stops_at_level_one(self, monkeypatch):
        # the loop count cap alone would allow 512 levels of one loop each
        calls = self.spy_loop_lengths(monkeypatch)
        u = random_umdp(np.random.default_rng(65), n=2, actions=("a",), gamma=0.9)
        iv = umdp_sup_value_interval(u, eps=1e-8)
        assert calls == [1] and iv.converged

    def test_large_automaton_forms_level_one_only(self, monkeypatch):
        calls = self.spy_loop_lengths(monkeypatch)
        u = random_umdp(np.random.default_rng(66), n=46, actions=("a", "b", "c", "d"), gamma=0.9)
        assert 4 * 46 * 46 <= umdp_mod._LOOP_ENTRIES < 16 * 46 * 46
        umdp_sup_value_interval(u, budget=20)
        assert calls == [1]

    def test_small_automaton_forms_longer_loops(self, monkeypatch):
        calls = self.spy_loop_lengths(monkeypatch)
        umdp_sup_value_interval(self.ALTERNATING, budget=0)
        assert calls == [umdp_mod._longest_loop(2, 3)] and calls[0] > 1


def _all_fixed_words(actions, length):
    return itertools.product(actions, repeat=length)


def _value_term(u, word, t):
    dist = np.array(u.alpha)
    for sym in word[:t]:
        dist = dist @ u.trans[sym]
    return float(dist @ u.beta)
