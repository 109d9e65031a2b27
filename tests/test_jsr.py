import itertools

import numpy as np
import pytest

from wfametrics import (
    Wfa,
    admissible_gamma_bound,
    hausdorff_distance,
    is_irreducible,
    jsr_bounds,
    minimize,
    wfa_irreducible,
    wfa_spectral_radius,
    with_final,
    with_initial,
)
from wfametrics import jsr
from wfametrics.jsr import DEFAULT_NODE_BUDGET, extend_products
from wfametrics.linalg import CAP_SLACK, spectral_norm, spectral_norms, spectral_radii
from wfametrics.metric import balance_scaling
from conftest import random_stochastic, random_wfa

GOLDEN = (1 + np.sqrt(5)) / 2
CLASSIC_PAIR = [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])]


def brute_force_bracket(mats, depth):
    """Independent exhaustive product enumeration (no pruning, no batching)."""
    lower, upper = 0.0, np.inf
    level = [np.eye(mats[0].shape[0])]
    for t in range(1, depth + 1):
        level = [m @ p for p in level for m in mats]
        radii = [np.max(np.abs(np.linalg.eigvals(p))) for p in level]
        norms = [np.linalg.norm(p, ord=2) for p in level]
        lower = max(lower, max(radii) ** (1.0 / t))
        upper = min(upper, max(norms) ** (1.0 / t))
    return lower, upper


def full_enumeration_bounds(mats, depth, node_budget=DEFAULT_NODE_BUDGET):
    """Reference jsr_bounds: an eigen solve and an SVD on every product, a tuple per word."""
    gens = np.array(mats, dtype=float)
    symbols = tuple(str(i) for i in range(len(gens)))
    lower, witness, upper = 0.0, (), np.inf
    level_complete, truncated = True, False
    words, prods = [()], np.eye(gens.shape[1])[None]
    for t in range(1, depth + 1):
        words = [w + (s,) for w in words for s in symbols]
        prods = extend_products(gens, prods)
        radii = spectral_radii(prods)
        best = int(np.argmax(radii >= np.max(radii) * (1.0 - CAP_SLACK)))
        cand = radii[best] ** (1.0 / t) if radii[best] > 0 else 0.0
        if cand > lower * (1.0 + CAP_SLACK):
            lower, witness = float(cand), words[best]
        norms = spectral_norms(prods)
        if level_complete:
            abs_prods = np.abs(prods)
            for level_max in (float(np.max(norms)), float(np.max(abs_prods.sum(axis=2))),
                              float(np.max(abs_prods.sum(axis=1)))):
                upper = min(upper, level_max ** (1.0 / t) if level_max > 0 else 0.0)
        if len(words) > node_budget and t < depth:
            order = sorted(range(len(words)), key=lambda i: (-norms[i], words[i]))
            keep = sorted(order[:node_budget])
            words = [words[i] for i in keep]
            prods = prods[keep]
            level_complete, truncated = False, True
    return min(lower, upper), upper, witness, truncated


def _witness_radius(mats, witness):
    """``rho(P)^(1/t)`` for the product ``P`` of the length-``t`` witness, one matrix at a time."""
    prod = np.eye(len(mats[0]))
    for sym in witness:
        prod = mats[int(sym)] @ prod
    return np.max(np.abs(np.linalg.eigvals(prod))) ** (1.0 / len(witness))


def _family(rng, kind, n, k):
    if kind == "random":
        return [rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-1, 1) for _ in range(k)]
    if kind == "nonnegative":
        return [rng.random((n, n)) for _ in range(k)]
    if kind == "triangular":
        return [np.triu(rng.standard_normal((n, n))) for _ in range(k)]
    if kind == "scaled-orthogonal":
        return [rng.uniform(0.5, 2.0) * np.linalg.qr(rng.standard_normal((n, n)))[0]
                for _ in range(k)]
    if kind == "row-stochastic":
        return [random_stochastic(rng, n) for _ in range(k)]
    assert kind == "rank-one"
    return [np.outer(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(k)]


def assert_matches_full_enumeration(mats, depth, node_budget=DEFAULT_NODE_BUDGET):
    b = jsr_bounds(mats, depth, node_budget)
    assert (b.lower, b.upper, b.witness, b.truncated) == full_enumeration_bounds(
        mats, depth, node_budget)


def _jordan(n, lam):
    return lam * np.eye(n) + np.eye(n, k=1)


def _power_cap_families():
    """Families whose radii sit far below every cheap cap: the power cap decides what is solved.

    Nilpotent and nearly nilpotent products are where an eigen solve returns
    radii of order ``eps^(1/n)`` that the cap must still cover; the scaled
    families have products whose fourth powers underflow or overflow.
    """
    rng = np.random.default_rng(71)
    families = {}
    for n in range(2, 7):
        families[f"jordan-n{n}"] = [_jordan(n, 0.0), _jordan(n, 0.9)]
        families[f"jordan-and-transpose-n{n}"] = [_jordan(n, 0.5), _jordan(n, 0.5).T]
        families[f"strictly-triangular-n{n}"] = [
            np.triu(rng.standard_normal((n, n)), 1) + 1e-12 * rng.standard_normal((n, n))
            for _ in range(2)]
        pair = []
        for _ in range(2):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            y -= (y @ x) / (x @ x) * x  # y . x is roundoff: x y^T is nearly nilpotent
            pair.append(np.outer(x, y))
        families[f"rank-one-n{n}"] = pair
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        families[f"rotated-jordan-n{n}"] = [q @ _jordan(n, 0.0) @ q.T]
    # a rotation of 1.53 N with N the nilpotent 4-by-4 Jordan block: at length
    # 2 the eigen solve's radius, roundoff of order eps^(1/4), is above
    # ||fl(P^4)||_F^(1/4) and needs the cap's slack
    families["rotated-jordan-n4-slack"] = [np.array([float.fromhex(h) for h in (
        "-0x1.c5a5674af51efp-2", "-0x1.d58a307d7e3fdp-2", "-0x1.98249571ae0ecp-1", "-0x1.527dc95145b96p-1",
        "-0x1.5d0bdea0abb40p-4", "-0x1.8e6d2ff5bfa88p-2", "0x1.339e8c6f444a4p-1", "-0x1.38604fe1c86f5p+0",
        "0x1.f0b40d957aa98p-1", "-0x1.6209b74d9d27ap-2", "0x1.6d93ad6e2f18bp-1", "-0x1.c0f128ea660f8p-6",
        "0x1.a305a1b634893p-1", "-0x1.ae94f01514ddcp-1", "-0x1.8b677e8ca5853p-1", "0x1.e3acf1915a583p-4",
    )]).reshape(4, 4)]
    shift = np.array([[0.0, 2.0], [0.0, 0.0]])
    families["tiny"] = [1e-80 * shift, 1e-80 * shift.T, 1e-81 * np.diag([1.0, 0.0])]
    families["huge"] = [1e37 * _jordan(2, 1.0), 1e37 * _jordan(2, 1.0).T]
    return families


POWER_CAP_FAMILIES = _power_cap_families()

# The two 3-by-3 pairs of the benchmark's structure workload, and the signed
# permutations its coordinate seeds 7, 11 and 3 apply to them.
STRUCTURE_JSR_PAIRS = [
    [np.array([[-0.8778196921405966, 0.3881253133134576, -1.0070407969651516],
               [-0.16475745224707214, 0.7919850073101906, -0.3136193667420206],
               [0.9526223910239826, -0.47932796222707497, 1.6736658251600969]]),
     np.array([[-0.15890428978153032, 2.614749591422141, 0.7200108794052978],
               [-0.039511151972114834, -1.1276526529019835, -0.42214737983048406],
               [1.97936808569481, -1.2546511810470697, -1.5735489593232446]])],
    [np.array([[0.2995218224296711, 1.2628137398402302, -0.37949009804734984],
               [-0.8649718194986402, -0.2242458897206879, -0.217317403004282],
               [1.1280269088169366, 1.888076473348729, -0.14912142955833432]]),
     np.array([[-0.8298404857638987, -1.2051467720073086, -1.74326615561249],
               [-0.07545298284450112, -1.5696753679822466, 0.7116111203254674],
               [-0.23915040112983185, -0.7123688819819387, 1.44058254316036]])],
]
STRUCTURE_COORDS = {
    7: [([2, 1, 0], [-1.0, 1.0, 1.0]), ([2, 1, 0], [-1.0, -1.0, -1.0])],
    11: [([0, 2, 1], [-1.0, -1.0, 1.0]), ([1, 0, 2], [-1.0, 1.0, -1.0])],
    3: [([1, 2, 0], [-1.0, -1.0, -1.0]), ([0, 1, 2], [1.0, -1.0, 1.0])],
}


def _einsum_products(gens, prods):
    """``extend_products`` with an ``einsum`` for matrices too: the same products, rounded differently."""
    return np.einsum("gij,pjk->pgik", gens, prods).reshape((-1,) + prods.shape[1:])


class TestJsrBounds:
    def test_identity_depth_one(self):
        b = jsr_bounds([np.eye(3)], depth=1)
        assert b.lower <= 1.0 <= b.upper
        assert b.upper - b.lower <= 1e-9

    def test_single_stochastic_contains_one(self, rng):
        b = jsr_bounds([random_stochastic(rng, 4)], depth=6)
        assert b.lower <= 1.0 + 1e-12
        assert b.upper >= 1.0 - 1e-12
        # row sums give the exact upper bound for stochastic matrices
        assert b.upper == pytest.approx(1.0, abs=1e-9)

    def test_classic_pair_brackets_golden_ratio(self):
        b = jsr_bounds(CLASSIC_PAIR, depth=12)
        lo, hi = brute_force_bracket(CLASSIC_PAIR, 12)
        assert b.lower - 1e-12 <= GOLDEN <= b.upper + 1e-12
        assert b.upper - b.lower <= 0.1
        assert b.lower == pytest.approx(lo, abs=1e-9)
        assert b.upper <= hi + 1e-9  # extra norms may tighten, never loosen

    def test_monotone_in_depth(self):
        prev = jsr_bounds(CLASSIC_PAIR, depth=2)
        for depth in (4, 6, 8):
            cur = jsr_bounds(CLASSIC_PAIR, depth=depth)
            assert cur.lower >= prev.lower - 1e-12
            assert cur.upper <= prev.upper + 1e-12
            prev = cur

    def test_witness_attains_lower(self):
        b = jsr_bounds(CLASSIC_PAIR, depth=6)
        assert _witness_radius(CLASSIC_PAIR, b.witness) == pytest.approx(b.lower, rel=1e-12)

    def test_deep_pruned_witness_attains_lower(self):
        # a witness of 78 pruned binary levels: its base-2 index overflows int64
        mats = list(np.random.default_rng(57).standard_normal((2, 3, 3)))
        b = jsr_bounds(mats, depth=80, node_budget=2)
        assert b.truncated and len(b.witness) == 78
        assert _witness_radius(mats, b.witness) == pytest.approx(b.lower, rel=1e-12)

    def test_extend_products_follows_witness_convention(self, rng):
        # index of word x1..xt in a level is its base-k value; the product is
        # T[xt] @ ... @ T[x1], the order jsr_bounds uses for its witness
        gens = rng.standard_normal((3, 2, 2))
        level = np.eye(2)[None]
        for t in range(1, 5):
            level = extend_products(gens, level)
            words = list(itertools.product(range(3), repeat=t))
            assert level.shape == (len(words), 2, 2)
            for idx, word in enumerate(words):
                expected = np.eye(2)
                for x in word:
                    expected = gens[x] @ expected
                np.testing.assert_allclose(level[idx], expected, rtol=1e-12, atol=1e-12)

        b = jsr_bounds(gens, depth=4)
        t = len(b.witness)
        level = np.eye(2)[None]
        for _ in range(t):
            level = extend_products(gens, level)
        idx = sum(int(x) * 3 ** (t - 1 - i) for i, x in enumerate(b.witness))
        assert spectral_radii(level)[idx] ** (1.0 / t) == b.lower

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("cols", ["state", "block", "square"])
    def test_extend_products_serves_every_stack_shape(self, k, cols):
        # one kernel for (p, n, 1) states, (p, n, r) kernel blocks and n-by-n levels
        rng = np.random.default_rng([k, len(cols)])
        for n in (1, 3, 7):
            r = {"state": 1, "block": 2, "square": n}[cols]
            gens = rng.standard_normal((k, n, n))
            prods = rng.standard_normal((4, n, r))
            level = extend_products(gens, prods)
            assert level.shape == (4 * k, n, r)
            for p in range(4):
                for g in range(k):
                    np.testing.assert_allclose(level[p * k + g], gens[g] @ prods[p], rtol=1e-13, atol=1e-13)

    def test_conjugation_keeps_bracket_overlapping(self, rng):
        t = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        t_inv = np.linalg.inv(t)
        conj = [t @ m @ t_inv for m in CLASSIC_PAIR]
        b1 = jsr_bounds(CLASSIC_PAIR, depth=8)
        b2 = jsr_bounds(conj, depth=8)
        assert max(b1.lower, b2.lower) <= min(b1.upper, b2.upper) + 1e-9

    def test_budget_prunes_but_stays_valid(self):
        full = jsr_bounds(CLASSIC_PAIR, depth=10)
        pruned = jsr_bounds(CLASSIC_PAIR, depth=10, node_budget=8)
        assert pruned.truncated
        assert pruned.lower <= full.lower + 1e-12
        assert pruned.lower <= GOLDEN <= pruned.upper

    def test_all_zero(self):
        b = jsr_bounds([np.zeros((2, 2)), np.zeros((2, 2))], depth=3)
        assert b.lower == 0.0
        assert b.upper == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            jsr_bounds([np.eye(2), np.eye(3)], depth=2)
        with pytest.raises(ValueError):
            jsr_bounds([np.eye(2)], depth=0)
        # NaN and inf once pruned no level (k^d products); 2.5 failed in the pruning slice
        for budget in (0, -1, np.nan, np.inf, 2.5):
            message = f"node_budget must be an integer of at least 1, got {budget}"
            with pytest.raises(ValueError, match=message):
                jsr_bounds([np.eye(2)], depth=2, node_budget=budget)
        # an integral float prunes as its int does; it once failed in the pruning slice
        pruned = jsr_bounds(CLASSIC_PAIR, depth=10, node_budget=4)
        assert pruned.truncated and jsr_bounds(CLASSIC_PAIR, depth=10, node_budget=4.0) == pruned

    def test_symbols_are_one_distinct_label_per_matrix(self):
        with pytest.raises(ValueError, match="one symbol per matrix"):
            jsr_bounds([np.eye(2), np.eye(2)], depth=2, symbols=("a",))
        # a repeated label would make the witness ambiguous
        with pytest.raises(ValueError, match="symbols must be distinct"):
            jsr_bounds([np.eye(2), np.eye(2)], depth=2, symbols=("a", "a"))
        # the labels keep the order given, sorted or not
        b = jsr_bounds([np.eye(2), 2.0 * np.eye(2)], depth=2, symbols=("b", "a"))
        assert b.witness == ("a",)

    def test_empty_family_is_named(self):
        for call in (lambda: jsr_bounds([], depth=2), lambda: is_irreducible([]),
                     lambda: hausdorff_distance([], [np.eye(2)]), lambda: balance_scaling([])):
            with pytest.raises(ValueError, match="matrix family is empty"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_named(self, bad):
        mat = np.eye(2)
        mat[0, 1] = bad
        with pytest.raises(ValueError, match="matrix 1 "):
            jsr_bounds([np.eye(2), mat], depth=2)
        with pytest.raises(ValueError, match="matrix 1 "):
            is_irreducible([np.eye(2), mat])
        with pytest.raises(ValueError, match="matrix 1 "):
            hausdorff_distance([np.eye(2)], [np.eye(2), mat])

    def test_overflowing_level_is_named(self):
        with pytest.raises(ValueError, match="length 2 overflow"):
            jsr_bounds([1e200 * np.eye(2)], depth=3)
        # entries that stay finite are fine even where their squares overflow
        b = jsr_bounds([1e160 * np.eye(2)], depth=1)
        assert b.lower == b.upper == 1e160

    @pytest.mark.parametrize("kind", ["random", "nonnegative", "triangular",
                                      "scaled-orthogonal", "row-stochastic", "rank-one"])
    def test_matches_full_enumeration(self, kind):
        # eigen and SVD work only on the products a cap cannot rule out leaves
        # every bracket, witness and pruning decision bit for bit as it was
        for seed in range(40):
            rng = np.random.default_rng([len(kind), seed])
            n, k, depth = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
            mats = _family(rng, kind, n, k)
            assert_matches_full_enumeration(mats, depth)
            assert_matches_full_enumeration(mats, depth, node_budget=int(rng.integers(1, 3 * k)))

    @pytest.mark.parametrize("mats", [
        [np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]), np.outer([2.0, 1.0, 2.0], [2.0, 1.0, 2.0])],
        [np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([[1.0, 0.0], [0.5, 0.5]])],
        [np.diag([2.0, -2.0, 1.0]), np.diag([1.0, 2.0, 2.0]), np.diag([-2.0, 0.5, 2.0])],
        [3.0 * np.eye(3)[[1, 2, 0]], 3.0 * np.eye(3)[[0, 2, 1]]],
        [0.5 * np.array([[0.6, -0.8], [0.8, 0.6]]), 0.5 * np.eye(2)],
        [np.zeros((2, 2)), np.eye(2)],
    ], ids=["xxT", "stochastic", "diagonal", "c-permutation", "c-rotation", "zero-and-identity"])
    def test_radius_or_norm_equal_to_a_cap(self, mats):
        # rho or sigma equals a cap exactly and radii tie across products, so
        # only the slack keeps the products that set the bracket and the witness
        for depth in (1, 4, 7):
            assert_matches_full_enumeration(mats, depth)
            assert_matches_full_enumeration(mats, depth, node_budget=2)


    @pytest.mark.parametrize("name", sorted(POWER_CAP_FAMILIES))
    def test_power_cap_keeps_every_radius_that_can_move_the_bracket(self, name):
        for depth in range(1, 9):
            assert_matches_full_enumeration(POWER_CAP_FAMILIES[name], depth)
            assert_matches_full_enumeration(POWER_CAP_FAMILIES[name], depth, node_budget=3)

    def test_power_cap_skips_most_eigen_solves(self, monkeypatch):
        # a random 25-state pair: every cheap cap stays above every radius
        a = random_wfa(np.random.default_rng(7), n=25, norm_cap=0.9)
        solved = []

        def counting_radii(mats):
            solved.append(len(mats))
            return spectral_radii(mats)

        monkeypatch.setattr(jsr, "spectral_radii", counting_radii)
        admissible_gamma_bound(a, depth=8)
        assert sum(solved) <= 510 // 4
        assert_matches_full_enumeration(a.trans_stack(), 8)

    @pytest.mark.parametrize("seed", sorted(STRUCTURE_COORDS))
    def test_witness_does_not_depend_on_the_product_kernel(self, monkeypatch, seed):
        # rotations and powers of a word tie in radius: taking the largest
        # computed radius gave 01101111 with matmul and 11011110 with einsum
        # for the second pair at seed 7
        for mats, (perm, sign) in zip(STRUCTURE_JSR_PAIRS, STRUCTURE_COORDS[seed]):
            sign = np.array(sign)
            moved = [sign[:, None] * m[np.ix_(perm, perm)] * sign[None, :] for m in mats]
            blas = jsr_bounds(moved, 14)
            monkeypatch.setattr(jsr, "extend_products", _einsum_products)
            summed = jsr_bounds(moved, 14)
            monkeypatch.undo()
            assert blas.witness == summed.witness
            assert blas.lower == pytest.approx(summed.lower, rel=1e-12)
            assert _witness_radius(moved, blas.witness) == pytest.approx(blas.lower, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_largest_line_sums_equal_numpy_sums(self, n):
        # short axes are summed slice by slice; the caps must stay the same floats
        rng = np.random.default_rng(n)
        abs_prods = np.abs(rng.standard_normal((500, n, n)) * 10.0 ** rng.uniform(-8, 8, (500, n, n)))
        for axis in (1, 2):
            expected = abs_prods.sum(axis=axis).max(axis=1)
            assert jsr._largest_line_sum(abs_prods, axis).tobytes() == expected.tobytes()


class TestWfaSpectralRadius:
    def test_growth_automaton(self):
        a = Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[1.5]]})
        b = wfa_spectral_radius(a, depth=4)
        assert b.lower <= 1.5 <= b.upper
        assert b.upper - b.lower <= 1e-9

    def test_direct_sum_law(self, rng):
        from wfametrics import difference

        a1 = random_wfa(rng, n=2, norm_cap=0.8)
        a2 = random_wfa(rng, n=3, norm_cap=1.4)
        d = difference(a1, a2)
        b1 = wfa_spectral_radius(a1, depth=8)
        b2 = wfa_spectral_radius(a2, depth=8)
        bd = wfa_spectral_radius(d, depth=8)
        assert bd.upper >= max(b1.lower, b2.lower) - 1e-12
        assert bd.lower <= max(b1.upper, b2.upper) + 1e-12

    def test_zero_transitions(self):
        a = Wfa(alphabet=("a",), alpha=[1.0, 0.0], beta=[1.0, 1.0],
                trans={"a": np.zeros((2, 2))})
        b = wfa_spectral_radius(a, depth=3)
        assert b.lower == 0.0 and b.upper == 0.0


class TestIrreducible:
    @pytest.mark.parametrize("scale", [1e60, 1e-60, 1e300, 1e-300])
    def test_answer_holds_at_every_scale(self, scale):
        # products of the raw matrices once overflowed at 1e60 and underflowed at 1e-60
        rng = np.random.default_rng(1)
        pair = [rng.standard_normal((4, 4)) for _ in range(2)]
        assert is_irreducible(pair)
        assert is_irreducible([scale * m for m in pair])
        assert not is_irreducible([scale * np.eye(4), scale * np.diag([1.0, 2.0, 3.0, 4.0])])

    def test_identity_alone_reducible(self):
        assert not is_irreducible([np.eye(2)])
        assert not is_irreducible([np.eye(3)])

    def test_single_diagonalizable_reducible(self):
        assert not is_irreducible([np.diag([2.0, 1.0])])

    def test_generic_pair_irreducible(self, rng):
        for _ in range(5):
            pair = [rng.standard_normal((2, 2)), rng.standard_normal((2, 2))]
            got = is_irreducible(pair)
            assert got == _no_common_eigendirection(pair)

    @pytest.mark.parametrize("n,k", list(itertools.product((3, 4, 5), (1, 2, 3))))
    def test_matches_gram_schmidt_reference(self, n, k):
        rng = np.random.default_rng([n, k])
        for _ in range(10):
            # every entry carries its own scale 10^U(-3,3)
            mats = [rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
                    for _ in range(k)]
            assert is_irreducible(mats) == _gram_schmidt_irreducible(mats)
            # span(e_1..e_r) is invariant for block upper-triangular matrices;
            # a random orthogonal change of basis hides the block structure
            r = int(rng.integers(1, n))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            for m in mats:
                m[r:, :r] = 0.0
            hidden = [q @ m @ q.T for m in mats]
            assert not is_irreducible(hidden)
            assert not _gram_schmidt_irreducible(hidden)

    @pytest.mark.parametrize("scale", [1e-12, 1e-10, 1e10, 1e12])
    def test_scaling_one_matrix_keeps_the_answer(self, rng, scale):
        n = 4
        e11 = np.zeros((n, n))
        e11[0, 0] = 1.0
        shift = np.roll(np.eye(n), 1, axis=0)  # with E11 the closure needs about 2n levels
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a[2:, :2] = b[2:, :2] = 0.0
        hidden = [q @ a @ q.T, q @ b @ q.T]
        assert is_irreducible([shift, scale * e11])
        assert is_irreducible([scale * shift, e11])
        assert is_irreducible([a + b.T, scale * b])
        assert not is_irreducible([hidden[0], scale * hidden[1]])
        assert not is_irreducible([scale * shift, scale * np.eye(n)])

    def test_tol_must_be_positive(self):
        for tol in (0.0, -1e-9):
            with pytest.raises(ValueError):
                is_irreducible([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])], tol)

    def test_wfa_minimality_characterization(self, rng):
        # for an irreducible automaton, every nonzero initial/final replacement
        # stays minimal at full dimension
        a = random_wfa(rng, n=2)
        assert wfa_irreducible(a)
        for _ in range(20):
            v = rng.standard_normal(2)
            w = rng.standard_normal(2)
            m = minimize(with_final(with_initial(a, v), w))
            assert m.dim == 2


def _gram_schmidt_irreducible(mats, tol=1e-9):
    """Burnside's criterion by Gram-Schmidt over breadth-first products.

    A candidate product joins the basis when its residual exceeds
    ``tol`` times its own norm.
    """
    n = mats[0].shape[0]
    basis = []

    def try_add(mat):
        vec = mat.reshape(-1)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            return False
        resid = vec.copy()
        for _ in range(2):
            for b in basis:
                resid -= (b @ resid) * b
        rnorm = np.linalg.norm(resid)
        if rnorm <= tol * norm:
            return False
        basis.append(resid / rnorm)
        return True

    try_add(np.eye(n))
    frontier = [m for m in mats if try_add(m)]
    while frontier and len(basis) < n * n:
        next_frontier = []
        for g in mats:
            for m in frontier:
                cand = g @ m
                if try_add(cand):
                    next_frontier.append(cand)
                    if len(basis) == n * n:
                        return True
        frontier = next_frontier
    return len(basis) == n * n


def _no_common_eigendirection(pair):
    """Eigenvector enumeration oracle for 2x2 families.

    A 2x2 family is reducible iff the generators share a common (real)
    eigendirection, i.e. some eigenvector of the first is also an
    eigenvector of the second.
    """
    directions = []
    for m in pair:
        vals, vecs = np.linalg.eig(m)
        for j in range(2):
            if abs(vals[j].imag) < 1e-12:
                directions.append(np.real(vecs[:, j]))
    for d in directions:
        d = d / np.linalg.norm(d)
        shared = True
        for m in pair:
            image = m @ d
            resid = image - (d @ image) * d
            if np.linalg.norm(resid) > 1e-9 * max(1.0, np.linalg.norm(image)):
                shared = False
                break
        if shared:
            return False
    return True


class TestHausdorff:
    def test_identical_sets(self, rng):
        mats = [rng.standard_normal((3, 3)) for _ in range(3)]
        assert hausdorff_distance(mats, mats) == 0.0

    def test_singletons(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        expected = np.linalg.norm(a - b, ord=2)
        assert hausdorff_distance([a], [b]) == pytest.approx(expected, rel=1e-12)

    def test_subset_directed_part(self, rng):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        expected = np.linalg.norm(a - b, ord=2)
        assert hausdorff_distance([a, b], [a]) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hausdorff_distance([np.eye(2)], [np.eye(3)])

    def test_equals_a_per_pair_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m1, m2 = (rng.standard_normal((int(rng.integers(1, 4)), n, n)) for _ in range(2))
            dist = np.array([[spectral_norm(x - y) for y in m2] for x in m1])
            expected = max(np.max(np.min(dist, axis=1)), np.max(np.min(dist, axis=0)))
            assert hausdorff_distance(m1, m2) == expected
