import numpy as np
import pytest

from wfametrics import Wfa, bisim, hankel_from_wfa, jsr, learn
from wfametrics.linalg import (
    CAP_SLACK,
    DEFAULT_TOL,
    fix_signs,
    max_spectral_norm,
    null_basis,
    sign_flips,
    spectral_norm,
    spectral_norms,
)


def full_svd_null_basis(mat, tol=DEFAULT_TOL):
    """Null basis from the full SVD, with the same rank rule and sign fix."""
    _, sv, vt = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(sv > tol * sv[0]))
    return fix_signs(vt[rank:].T)


def low_rank(rng, rows, cols, rank):
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


class TestNullBasis:
    @pytest.mark.parametrize(
        "rows, cols, rank",
        [
            (12, 5, 5),  # tall, full column rank
            (12, 5, 3),  # tall, rank-deficient
            (40, 8, 6),  # much taller than wide, rank-deficient
            (5, 5, 5),  # square, invertible
            (6, 6, 2),  # square, rank-deficient
            (1, 7, 1),  # wide single row, like a final-weight vector
            (3, 7, 2),  # wide, rank-deficient
        ],
    )
    def test_kernel_basis(self, rows, cols, rank):
        rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
        mat = low_rank(rng, rows, cols, rank)
        basis = null_basis(mat)
        assert basis.shape == (cols, cols - rank)
        np.testing.assert_allclose(basis.T @ basis, np.eye(cols - rank), atol=1e-12)
        np.testing.assert_allclose(mat @ basis, 0.0, atol=1e-12 * np.linalg.norm(mat))
        np.testing.assert_allclose(basis, full_svd_null_basis(mat), atol=1e-12)

    def test_zero_matrix_is_whole_space(self):
        np.testing.assert_array_equal(null_basis(np.zeros((3, 4))), np.eye(4))


def loop_fix_signs(basis):
    """Column-by-column sign rule: negate a column whose first entry within
    ``CAP_SLACK`` of the largest magnitude is negative."""
    basis = np.array(basis, dtype=float, copy=True)
    for j in range(basis.shape[1]):
        col = basis[:, j]
        if col.shape[0] == 0:
            continue
        top = max(abs(x) for x in col)
        i = next(i for i, x in enumerate(col) if abs(x) >= top * (1.0 - CAP_SLACK))
        if col[i] < 0:
            basis[:, j] = -col
    return basis


class TestSignFlips:
    @pytest.mark.parametrize(
        "basis",
        [
            np.zeros((0, 3)),  # no rows
            np.zeros((4, 0)),  # no columns
            np.array([[1.0, -2.0], [-1.0, 2.0]]),  # ties in magnitude: the first entry decides
            np.array([[0.5, -3.0, 0.0], [-4.0, 1.0, 0.0], [2.0, 2.5, -0.0]]),  # negative maxima, zeros
            np.random.default_rng(9).standard_normal((7, 4)),
        ],
    )
    def test_matches_column_loop(self, basis):
        fixed = fix_signs(basis)
        expected = loop_fix_signs(basis)
        assert fixed.shape == basis.shape
        assert fixed.tobytes() == expected.tobytes()
        flips = sign_flips(basis)
        assert flips.shape == (basis.shape[1],)
        assert set(flips.tolist()) <= {-1.0, 1.0}
        assert (basis * flips).tobytes() == expected.tobytes()

    def test_tie_and_negative_maximum(self):
        np.testing.assert_array_equal(sign_flips(np.array([[-2.0, 1.0], [2.0, -3.0]])), [-1.0, -1.0])

    @pytest.mark.parametrize("x", [0.3, 1.0, 7.0 / 3.0, 1e-200])
    def test_twin_magnitudes_one_ulp_apart_keep_the_exact_twins_sign(self, x):
        # a (v, -v) column whose entries rounding moved 1 ulp apart: the first entry still decides
        for first in (x, -x):
            twin = sign_flips(np.array([[first], [-first]]))
            assert twin == np.sign(first)
            for second in (np.nextafter(-first, np.inf), np.nextafter(-first, -np.inf)):
                assert sign_flips(np.array([[first], [second]])) == twin


class TestMaxSpectralNorm:
    @pytest.mark.parametrize("scale", [1e-170, 1e-3, 1.0, 1e3, 1e170])
    def test_equals_max_over_every_svd(self, scale):
        # 1e-170 underflows the squares in the Frobenius norm, 1e170 overflows them
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n, count = int(rng.integers(1, 7)), int(rng.integers(1, 40))
            mats = scale * rng.standard_normal((count, n, n))
            if count > 2:  # repeated and orthogonally equivalent matrices tie
                mats[1] = mats[0]
                mats[2] = mats[0] @ np.linalg.qr(rng.standard_normal((n, n)))[0]
            assert max_spectral_norm(mats) == np.max(spectral_norms(mats))

    @pytest.mark.parametrize("mats", [
        np.stack([np.eye(3), 2.0 * np.eye(3), -2.0 * np.eye(3)]),
        np.stack([np.outer([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]), np.diag([9.0, 0.0, 0.0])]),
        np.zeros((4, 2, 2)),
        np.zeros((3, 0, 0)),
    ], ids=["scaled-identity", "rank-one-vs-diagonal", "zero", "empty-matrices"])
    def test_norm_equal_to_frobenius(self, mats):
        assert max_spectral_norm(mats) == np.max(spectral_norms(mats))

    def test_matrices_with_no_entries_have_norm_zero(self):
        np.testing.assert_array_equal(spectral_norms(np.zeros((2, 0, 3))), np.zeros(2))
        assert spectral_norm(np.zeros((0, 3))) == 0.0


class TestTolCheck:
    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("entry", ["reachable_subspace", "largest_bisimulation", "minimize",
                                       "is_irreducible", "spectral_learn", "basis_is_complete"])
    def test_every_entry_point_rejects_tol_that_is_not_positive(self, entry, tol):
        # a NaN once passed `tol <= 0`, and every `sv > nan * sv[0]` is false: rank 0
        a = Wfa(alphabet=("a", "b"), alpha=[1.0, 0.0], beta=[1.0, 0.0],
                trans={"a": [[0.5, 0.0], [0.0, 0.25]], "b": [[0.25, 0.0], [0.0, 0.5]]})
        block = hankel_from_wfa(a, [(), ("a",)], [(), ("a",)])
        call = {
            "reachable_subspace": lambda: bisim.reachable_subspace(a, tol),
            "largest_bisimulation": lambda: bisim.largest_bisimulation(a, tol),
            "minimize": lambda: bisim.minimize(a, tol),
            "is_irreducible": lambda: jsr.is_irreducible(a.trans_stack(), tol),
            "spectral_learn": lambda: learn.spectral_learn(block, 1, tol),
            "basis_is_complete": lambda: learn.basis_is_complete(a, block, tol),
        }[entry]
        with pytest.raises(ValueError, match="tol must be positive"):
            call()
