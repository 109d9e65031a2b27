import re

import numpy as np
import pytest

from wfametrics import (
    Wfa,
    basis_is_complete,
    distance,
    evaluate,
    hankel_from_wfa,
    minimize,
    perturbation_experiment,
    spectral_learn,
)
from wfametrics.learn import HankelBlock, block_from_dict, block_to_dict
from conftest import all_words, random_wfa


def growth_automaton():
    return Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[1.5]]})


class TestHankelFromWfa:
    def test_zero_automaton_block(self, rng):
        a = random_wfa(rng, n=2)
        z = Wfa(alphabet=a.alphabet, alpha=np.zeros(2), beta=a.beta, trans=dict(a.trans))
        words = all_words(a.alphabet, 2)
        block = hankel_from_wfa(z, words, words)
        assert np.all(block.h == 0.0)
        assert all(np.all(m == 0.0) for m in block.hsig.values())

    def test_growth_automaton_entries(self):
        a = growth_automaton()
        block = hankel_from_wfa(a, [(), ("a",)], [(), ("a",)])
        assert np.allclose(block.h, [[1.0, 1.5], [1.5, 2.25]])
        assert np.allclose(block.hsig["a"], [[1.5, 2.25], [2.25, 3.375]])
        assert np.allclose(block.hp, [1.0, 1.5])
        assert np.allclose(block.hs, [1.0, 1.5])

    def test_entries_match_evaluations(self, rng):
        a = random_wfa(rng, n=3)
        prefixes = all_words(a.alphabet, 2)
        suffixes = all_words(a.alphabet, 1)
        block = hankel_from_wfa(a, prefixes, suffixes)
        for i, p in enumerate(block.prefixes):
            assert block.hp[i] == pytest.approx(evaluate(a, p), abs=1e-12)
            for j, s in enumerate(block.suffixes):
                assert block.h[i, j] == pytest.approx(evaluate(a, p + s), abs=1e-12)
                for sym in a.alphabet:
                    assert block.hsig[sym][i, j] == pytest.approx(
                        evaluate(a, p + (sym,) + s), abs=1e-12
                    )

    def test_rank_bounded_by_dimension(self, rng):
        a = random_wfa(rng, n=3)
        words = all_words(a.alphabet, 3)
        block = hankel_from_wfa(a, words, words)
        assert np.linalg.matrix_rank(block.h, tol=1e-9) <= a.dim

    def test_consistency_of_exact_blocks(self, rng):
        a = random_wfa(rng, n=3)
        words = all_words(a.alphabet, 2)
        block = hankel_from_wfa(a, words, words)
        index = {p: i for i, p in enumerate(block.prefixes)}
        # for p = p' s, row p of H equals row p' of the block shifted by s
        shifted = [(i, index[p[:-1]], p[-1]) for p, i in index.items() if p and p[:-1] in index]
        assert len(shifted) == len(words) - 1
        for i, head, sym in shifted:
            np.testing.assert_allclose(block.h[i], block.hsig[sym][head], rtol=0, atol=1e-12)

    def test_requires_empty_word(self, rng):
        a = random_wfa(rng)
        with pytest.raises(ValueError, match="empty word"):
            hankel_from_wfa(a, [("a",)], [(), ("a",)])
        with pytest.raises(ValueError, match="empty word"):
            hankel_from_wfa(a, [], [()])

    def test_unknown_symbol(self, rng):
        a = random_wfa(rng)
        with pytest.raises(ValueError, match="'z'"):
            hankel_from_wfa(a, [(), ("z",)], [()])


class TestBasisComplete:
    def test_single_word_basis_too_small(self, rng):
        a = random_wfa(rng, n=2)
        block = hankel_from_wfa(a, [()], [()])
        assert not basis_is_complete(a, block)

    def test_full_basis_complete(self, rng):
        a = random_wfa(rng, n=3)
        words = all_words(a.alphabet, 3)
        block = hankel_from_wfa(a, words, words)
        assert basis_is_complete(a, block)

    def test_zero_automaton_any_basis(self, rng):
        a = random_wfa(rng, n=2)
        z = Wfa(alphabet=a.alphabet, alpha=np.zeros(2), beta=a.beta, trans=dict(a.trans))
        block = hankel_from_wfa(z, [()], [()])
        assert basis_is_complete(z, block)


class TestSpectralLearn:
    def test_round_trip_exact_block(self, rng):
        for _ in range(5):
            a = random_wfa(rng, n=3)
            words = all_words(a.alphabet, 3)
            block = hankel_from_wfa(a, words, words)
            learned = spectral_learn(block, rank=3)
            for word in all_words(a.alphabet, 2 * a.dim):
                assert evaluate(learned, word) == pytest.approx(
                    evaluate(a, word), abs=1e-8
                )

    def test_growth_automaton_rank_one(self):
        a = growth_automaton()
        block = hankel_from_wfa(a, [(), ("a",)], [(), ("a",)])
        learned = spectral_learn(block, rank=1)
        assert learned.trans["a"][0, 0] == pytest.approx(1.5, abs=1e-12)
        assert float(learned.alpha @ learned.beta) == pytest.approx(1.0, abs=1e-12)
        for k in range(6):
            assert evaluate(learned, ("a",) * k) == pytest.approx(1.5**k, rel=1e-12)

    def test_zero_block_rank_overestimated(self, rng):
        a = random_wfa(rng, n=2)
        z = Wfa(alphabet=a.alphabet, alpha=np.zeros(2), beta=a.beta, trans=dict(a.trans))
        block = hankel_from_wfa(z, all_words(a.alphabet, 1), all_words(a.alphabet, 1))
        with pytest.raises(ValueError, match="rank overestimated"):
            spectral_learn(block, rank=1)

    def test_rank_above_numerical_rank_warns(self, rng):
        from wfametrics.learn import HankelBlock

        a = random_wfa(rng, n=2)
        words = all_words(a.alphabet, 2)
        block = hankel_from_wfa(a, words, words)  # rank 2 block, 7x7
        noisy = HankelBlock(
            alphabet=block.alphabet,
            prefixes=block.prefixes,
            suffixes=block.suffixes,
            h=block.h + 1e-12 * rng.standard_normal(block.h.shape),
            hsig=dict(block.hsig),
            hp=block.hp,
            hs=block.hs,
        )
        with pytest.warns(UserWarning, match="numerical rank"):
            spectral_learn(noisy, rank=3)

    def test_rank_beyond_block_size(self, rng):
        a = random_wfa(rng, n=2)
        block = hankel_from_wfa(a, [()], [()])
        with pytest.raises(ValueError, match="exceeds block size"):
            spectral_learn(block, rank=2)

    def test_learned_equivalent_to_minimized(self, rng):
        from conftest import duplicated_copy

        a = duplicated_copy(random_wfa(rng, n=2))  # redundant automaton
        words = all_words(a.alphabet, 4)
        block = hankel_from_wfa(a, words, words)
        rank = minimize(a).dim
        learned = spectral_learn(block, rank=rank)
        assert learned.dim == rank
        iv = distance(a, learned, gamma=0.4, eps=1e-6)
        assert iv.upper <= 1e-6


class TestPerturbationExperiment:
    def test_zero_scale_recovers(self, rng):
        a = random_wfa(rng, n=2, norm_cap=0.7)
        words = all_words(a.alphabet, 2)
        rows = perturbation_experiment(a, words, words, [0.0], gamma=0.3, eps=1e-6, seed=5)
        scale, herr, lo, hi, ratio, status = rows[0]
        assert status == "ok"
        assert herr == 0.0
        assert hi <= 1e-6

    def test_bounded_ratio_across_scales(self, rng):
        a = random_wfa(rng, n=2, norm_cap=0.7)
        words = all_words(a.alphabet, 2)
        rows = perturbation_experiment(
            a, words, words, [1e-2, 1e-3, 1e-4], gamma=0.3, eps=1e-7, seed=5
        )
        assert all(r[5] == "ok" for r in rows)
        hankel_errs = [r[1] for r in rows]
        assert hankel_errs == pytest.approx([1e-2, 1e-3, 1e-4], rel=1e-9)
        ratios = [r[4] for r in rows]
        assert max(ratios) / min(ratios) <= 10.0

    @pytest.mark.parametrize("scales,trials,message", [
        ([1e-3], 0, "trials must be an integer of at least 1, got 0"),
        ([1e-3, -1e-3], 1, "got -0.001"),
        ([np.inf], 1, "got inf"),
    ])
    def test_bad_inputs_rejected(self, rng, scales, trials, message):
        a = random_wfa(rng, n=2, norm_cap=0.7)
        words = all_words(a.alphabet, 2)
        with pytest.raises(ValueError, match=message):
            perturbation_experiment(a, words, words, scales, gamma=0.3, trials=trials)

    def test_zero_function_has_nothing_to_learn(self, rng):
        a = random_wfa(rng, n=2, norm_cap=0.7)
        zero = Wfa(alphabet=a.alphabet, alpha=a.alpha, beta=np.zeros(2), trans=dict(a.trans))
        words = all_words(a.alphabet, 2)
        with pytest.raises(ValueError, match="computes the zero function"):
            perturbation_experiment(zero, words, words, [1e-3], gamma=0.3)

    def test_deterministic_given_seed(self, rng):
        a = random_wfa(rng, n=2, norm_cap=0.7)
        words = all_words(a.alphabet, 2)
        r1 = perturbation_experiment(a, words, words, [1e-3], gamma=0.3, seed=9)
        r2 = perturbation_experiment(a, words, words, [1e-3], gamma=0.3, seed=9)
        assert r1 == r2


class TestBlockJson:
    def test_round_trip(self, rng):
        a = random_wfa(rng, n=2)
        words = all_words(a.alphabet, 2)
        block = hankel_from_wfa(a, words, words)
        doc = block_to_dict(block)
        back = block_from_dict(doc)
        assert back.prefixes == block.prefixes
        assert np.array_equal(back.h, block.h)
        assert np.array_equal(back.hp, block.hp)
        for sym in block.alphabet:
            assert np.array_equal(back.hsig[sym], block.hsig[sym])

    def test_index_sets_need_the_empty_word(self):
        doc = block_to_dict(hankel_from_wfa(growth_automaton(), [(), ("a",)], [(), ("a",)]))
        with pytest.raises(ValueError, match="must both contain the empty word"):
            block_from_dict({**doc, "prefixes": [["a"]], "H": doc["H"][1:], "hP": doc["hP"][1:],
                             "Hsig": {"a": doc["Hsig"]["a"][1:]}})

    @pytest.mark.parametrize("hsig", [{}, "extra"])
    def test_shifted_blocks_cover_the_alphabet(self, hsig):
        doc = block_to_dict(hankel_from_wfa(growth_automaton(), [()], [()]))
        doc["Hsig"] = {**doc["Hsig"], "b": [[0.0]]} if hsig == "extra" else {}
        with pytest.raises(ValueError, match="cover exactly the alphabet"):
            block_from_dict(doc)

    @pytest.mark.parametrize("field,name", [
        ("H", "H"), ("Hsig", "Hsig['a']"), ("hP", "hP"), ("hS", "hS"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_named(self, field, name, bad):
        # a NaN in H once reached the SVD and failed there with "SVD did not converge"
        doc = block_to_dict(hankel_from_wfa(growth_automaton(), [(), ("a",)], [(), ("a",)]))
        if field == "Hsig":
            doc["Hsig"]["a"][1][0] = bad
        elif field == "H":
            doc["H"][0][1] = bad
        else:
            doc[field][1] = bad
        with pytest.raises(ValueError, match=f"{re.escape(name)} has non-finite entries"):
            block_from_dict(doc)

    @pytest.mark.parametrize("alphabet, prefixes, suffixes, message", [
        (("a", "a"), [(), ("a",)], [(), ("a",)], "duplicate symbols"),
        ((), [()], [()], "must be non-empty"),
        (("", "a"), [(), ("a",)], [(), ("a",)], "alphabet has an empty symbol"),
        (("a",), [(), ("z",)], [(), ("a",)], r"\['z'\] has a symbol outside the alphabet"),
        (("a",), [(), ("a",)], [(), ("a", "z")], r"\['a', 'z'\] has a symbol outside the alphabet"),
        (("ε", "a"), [(), ("a",)], [(), ("a",)], "alphabet has the symbol 'ε'"),
        (("a b", "a"), [(), ("a",)], [(), ("a",)], "alphabet has the symbol 'a b'"),
    ])
    def test_alphabet_rules(self, alphabet, prefixes, suffixes, message):
        # each once passed the constructor; a bad alphabet failed later, inside spectral_learn
        size = (len(prefixes), len(suffixes))
        with pytest.raises(ValueError, match=message):
            HankelBlock(alphabet=alphabet, prefixes=prefixes, suffixes=suffixes, h=np.ones(size),
                        hsig={s: np.ones(size) for s in alphabet}, hp=np.ones(size[0]),
                        hs=np.ones(size[1]))

    def test_missing_field(self):
        with pytest.raises(ValueError, match="Hsig"):
            block_from_dict({"alphabet": ["a"], "prefixes": [[]], "suffixes": [[]],
                             "H": [[1.0]], "hP": [1.0], "hS": [1.0]})
