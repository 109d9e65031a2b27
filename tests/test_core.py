import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wfametrics import (
    Wfa,
    difference,
    evaluate,
    reverse,
    wfa_from_dict,
    wfa_to_dict,
    with_final,
    with_initial,
)
from wfametrics.core import format_word, json_text, load_json, parse_word, prefix_states, save_wfa
from wfametrics.jsr import jsr_bounds, wfa_spectral_radius
from wfametrics.learn import hankel_from_wfa, perturbation_experiment, spectral_learn
from wfametrics.metric import TailBoundParams, compute_tail_params, seminorm_interval, truncated_seminorm
from wfametrics.umdp import Umdp, umdp_value_truncated
from conftest import all_words, random_wfa


def one_state(tau):
    return Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[tau]]})


def eval_oracle(a, word):
    """Independent left-to-right vector propagation."""
    state = np.array(a.alpha)
    for sym in word:
        state = np.array(a.trans[sym]) @ state
    return float(np.array(a.beta) @ state)


class TestEvaluate:
    def test_one_state_growth(self):
        # tau = 1 + 2^-1; the value of a word is tau^len
        a = one_state(1.5)
        assert evaluate(a, "aa") == pytest.approx(2.25, abs=1e-12)

    def test_empty_word_is_alpha_dot_beta(self, rng):
        a = random_wfa(rng)
        assert evaluate(a, ()) == pytest.approx(float(a.beta @ a.alpha), abs=1e-12)

    def test_matches_oracle_on_short_words(self, rng):
        a = random_wfa(rng, n=3)
        for word in all_words(a.alphabet, 4):
            assert evaluate(a, word) == pytest.approx(eval_oracle(a, word), rel=1e-12, abs=1e-12)

    def test_unknown_symbol_named_in_error(self):
        a = one_state(1.0)
        with pytest.raises(ValueError, match="'z'"):
            evaluate(a, ("a", "z"))


class TestReverse:
    def test_involution(self, rng):
        a = random_wfa(rng, n=3)
        rr = reverse(reverse(a))
        for word in all_words(a.alphabet, 4):
            assert evaluate(rr, word) == pytest.approx(evaluate(a, word), abs=1e-12)

    def test_one_letter_alphabet_is_palindromic(self):
        a = one_state(1.5)
        r = reverse(a)
        for k in range(5):
            word = ("a",) * k
            assert evaluate(r, word) == pytest.approx(evaluate(a, word), abs=1e-12)

    def test_reversed_word_evaluation(self, rng):
        a = random_wfa(rng, n=2)
        r = reverse(a)
        assert evaluate(r, ("a", "b")) == pytest.approx(eval_oracle(a, ("b", "a")), abs=1e-12)
        for word in all_words(a.alphabet, 3):
            assert evaluate(r, word) == pytest.approx(eval_oracle(a, word[::-1]), abs=1e-12)


class TestDifference:
    def test_self_difference_is_zero(self, rng):
        a = random_wfa(rng)
        d = difference(a, a)
        for word in all_words(a.alphabet, 4):
            assert abs(evaluate(d, word)) <= 1e-12

    def test_growth_pair(self):
        d = difference(one_state(1.0), one_state(1.5))
        assert evaluate(d, "aa") == pytest.approx(1.0 - 2.25, abs=1e-12)

    def test_random_pair_matches_subtraction(self, rng):
        a1 = random_wfa(rng, n=3)
        a2 = random_wfa(rng, n=2)
        d = difference(a1, a2)
        for _ in range(50):
            word = tuple(rng.choice(a1.alphabet, size=rng.integers(0, 6)))
            expected = eval_oracle(a1, word) - eval_oracle(a2, word)
            assert evaluate(d, word) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_exhaustive_small_dims(self, rng):
        for n1, n2 in [(1, 2), (2, 2), (3, 4)]:
            a1 = random_wfa(rng, n=n1)
            a2 = random_wfa(rng, n=n2)
            d = difference(a1, a2)
            for word in all_words(a1.alphabet, 6):
                expected = eval_oracle(a1, word) - eval_oracle(a2, word)
                assert evaluate(d, word) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_alphabet_mismatch_lists_difference(self, rng):
        a1 = random_wfa(rng, alphabet=("a", "b"))
        a2 = random_wfa(rng, alphabet=("a", "c"))
        with pytest.raises(ValueError, match="b.*c|c.*b"):
            difference(a1, a2)


class TestReplaceWeights:
    def test_with_initial_identity(self, rng):
        a = random_wfa(rng)
        b = with_initial(a, a.alpha)
        for word in all_words(a.alphabet, 3):
            assert evaluate(b, word) == evaluate(a, word)

    def test_with_initial_zero(self, rng):
        a = random_wfa(rng)
        b = with_initial(a, np.zeros(a.dim))
        for word in all_words(a.alphabet, 3):
            assert evaluate(b, word) == 0.0

    def test_with_final_matches_oracle(self, rng):
        a = random_wfa(rng)
        w = rng.standard_normal(a.dim)
        b = with_final(a, w)
        for word in all_words(a.alphabet, 3):
            state = a.alpha
            for sym in word:
                state = a.trans[sym] @ state
            assert evaluate(b, word) == pytest.approx(float(w @ state), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        a = random_wfa(rng, n=3)
        with pytest.raises(ValueError):
            with_initial(a, np.ones(4))
        with pytest.raises(ValueError):
            with_final(a, np.ones(2))

    def test_linearity_of_initial_weights(self, rng):
        a = random_wfa(rng)
        u = rng.standard_normal(a.dim)
        v = rng.standard_normal(a.dim)
        c = 1.7
        combo = with_initial(a, c * u + v)
        for word in all_words(a.alphabet, 3):
            lhs = evaluate(combo, word)
            rhs = c * evaluate(with_initial(a, u), word) + evaluate(with_initial(a, v), word)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestValidationAndJson:
    def test_alphabet_constraints(self):
        with pytest.raises(ValueError):
            Wfa(alphabet=(), alpha=[1.0], beta=[1.0], trans={})
        with pytest.raises(ValueError):
            Wfa(alphabet=("a", "a"), alpha=[1.0], beta=[1.0], trans={"a": [[1.0]]})
        # the CLI's word tokenizer once matched "" without moving on and never returned
        with pytest.raises(ValueError, match="alphabet has an empty symbol"):
            Wfa(alphabet=("", "a"), alpha=[1.0], beta=[1.0], trans={"": [[1.0]], "a": [[1.0]]})
        # no word's text can name these: "ε" is the empty word, whitespace separates symbols
        for sym in ("ε", "a b", "\tb"):
            with pytest.raises(ValueError, match=re.escape(f"alphabet has the symbol {sym!r}")):
                Wfa(alphabet=(sym, "a"), alpha=[1.0], beta=[1.0], trans={sym: [[1.0]], "a": [[1.0]]})

    def test_integer_past_float_range_names_its_field(self):
        with pytest.raises(ValueError, match="^beta must hold numbers: int too large"):
            Wfa(alphabet=("a",), alpha=[1.0], beta=[10**400], trans={"a": [[1.0]]})

    def test_shape_constraints(self):
        with pytest.raises(ValueError):
            Wfa(alphabet=("a",), alpha=[1.0, 2.0], beta=[1.0], trans={"a": [[1.0]]})
        with pytest.raises(ValueError):
            Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"b": [[1.0]]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["alpha", "beta", "trans"])
    def test_non_finite_entries_rejected(self, field, bad):
        parts = {"alpha": [1.0, 0.0], "beta": [1.0, 0.0],
                 "trans": {"a": np.eye(2), "b": np.eye(2)}}
        if field == "trans":
            parts["trans"]["b"] = np.array([[0.5, bad], [0.0, 0.5]])
        else:
            parts[field] = [1.0, bad]
        match = "transition for 'b'" if field == "trans" else field
        with pytest.raises(ValueError, match=f"{match} has non-finite entries"):
            Wfa(alphabet=("a", "b"), **parts)

    def test_immutable(self, rng):
        a = random_wfa(rng)
        with pytest.raises(ValueError):
            a.alpha[0] = 5.0

    def test_json_round_trip(self, rng, tmp_path):
        a = random_wfa(rng)
        doc = wfa_to_dict(a)
        text = json.dumps(doc)
        b = wfa_from_dict(json.loads(text))
        assert b.alphabet == a.alphabet
        assert np.array_equal(b.alpha, a.alpha)
        assert np.array_equal(b.beta, a.beta)
        for sym in a.alphabet:
            assert np.array_equal(b.trans[sym], a.trans[sym])

    def test_json_missing_field(self):
        with pytest.raises(ValueError, match="alpha"):
            wfa_from_dict({"alphabet": ["a"], "dim": 1, "beta": [1.0], "trans": {"a": [[1.0]]}})

    def test_json_unknown_field(self, rng):
        doc = wfa_to_dict(random_wfa(rng))
        with pytest.raises(ValueError, match="^WFA document has unknown field 'Trans'$"):
            wfa_from_dict({**doc, "Trans": doc["trans"]})

    def test_json_bad_shape(self):
        with pytest.raises(ValueError, match="trans"):
            wfa_from_dict(
                {"alphabet": ["a"], "dim": 2, "alpha": [1.0, 0.0], "beta": [1.0, 0.0],
                 "trans": {"a": [[1.0]]}}
            )


class TestPrefixStates:
    def test_rows_are_explicit_products(self, rng):
        a = random_wfa(rng, n=3, alphabet=("a", "b", "c"))
        word = ("b", "a", "c", "c", "a")
        states = prefix_states(a, word)
        assert states.shape == (len(word) + 1, a.dim)
        for t in range(len(word) + 1):
            product = np.eye(a.dim)
            for sym in word[:t]:
                product = a.trans[sym] @ product
            np.testing.assert_allclose(states[t], product @ a.alpha, rtol=1e-13, atol=1e-15)
        assert evaluate(a, word) == float(a.beta @ states[-1])

    def test_empty_word_is_one_row(self, rng):
        a = random_wfa(rng)
        states = prefix_states(a, ())
        assert states.shape == (1, a.dim)
        np.testing.assert_array_equal(states[0], a.alpha)

    def test_zero_dimensional(self):
        a = Wfa(alphabet=("a",), alpha=np.zeros(0), beta=np.zeros(0), trans={"a": np.zeros((0, 0))})
        assert prefix_states(a, "aa").shape == (3, 0)
        assert prefix_states(a, ()).shape == (1, 0)
        assert evaluate(a, "aa") == 0.0

    def test_unknown_symbol(self, rng):
        with pytest.raises(ValueError, match="unknown symbol 'z'"):
            prefix_states(random_wfa(rng), "abz")


def reference_all_words(alphabet, max_len):
    """Level-by-level enumeration: each level extends every word of the last by each symbol."""
    words = [()]
    level = [()]
    for _ in range(max_len):
        level = [w + (s,) for w in level for s in alphabet]
        words.extend(level)
    return words


class TestFormatWord:
    def test_single_characters_concatenate(self):
        assert format_word((), ("a", "b")) == "ε"
        assert format_word(("a", "b", "a"), ("a", "b")) == "aba"

    def test_longer_symbols_are_spaced(self):
        assert format_word(("s1", "b", "s2"), ("b", "s1", "s2")) == "s1 b s2"

    def test_one_long_symbol_in_the_alphabet_spaces_every_word(self):
        # "aab" would read back as ("a", "ab")
        assert format_word(("a", "a", "b"), ("a", "ab", "b")) == "a a b"
        assert format_word((), ("a", "ab", "b")) == "ε"
        assert parse_word("ε", ("a", "ab", "b")) == ()

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_text_reads_back(self, data):
        # one-character symbols written together can spell a longer symbol of the alphabet
        short = data.draw(st.lists(st.sampled_from(("a", "b", "é")), min_size=1, unique=True))
        spelled = st.lists(st.sampled_from(short), min_size=2, max_size=3).map("".join)
        alphabet = tuple(short + data.draw(st.lists(spelled | st.sampled_from(("s1", "aε")), min_size=1,
                                                    unique=True)))
        word = tuple(data.draw(st.lists(st.sampled_from(alphabet), min_size=2, max_size=8)))
        assert parse_word(format_word(word, alphabet), alphabet) == word

    def test_printed_witnesses_read_back(self):
        # 16 of these 200 witnesses were once printed run together and read back as other words
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = random_wfa(rng, 3, alphabet=("a", "ab", "b"))
            for word in (seminorm_interval(a, a.alpha, 0.5, budget=200).witness_prefix,
                         wfa_spectral_radius(a, 4).witness):
                assert parse_word(format_word(word, a.alphabet), a.alphabet) == word


class TestAllWords:
    @pytest.mark.parametrize(
        "alphabet, max_len", [(("a",), 4), (("a", "b"), 3), (("x", "b", "c"), 3), (("a", "b"), 0)]
    )
    def test_count_and_order(self, alphabet, max_len):
        words = all_words(alphabet, max_len)
        assert len(words) == sum(len(alphabet) ** length for length in range(max_len + 1))
        assert words == reference_all_words(alphabet, max_len)


class TestLoadJson:
    def test_invalid_json_message(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alphabet": ["a"],\n  "dim": 1,')
        with pytest.raises(ValueError) as info:
            load_json(str(bad), wfa_from_dict)
        assert str(info.value) == (
            f"{bad}: invalid JSON at line 2, column 12: Expecting property name enclosed in double quotes"
        )

    @pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff\xfe[]"], ids=["deep", "not-utf8"])
    def test_unreadable_json_names_the_file(self, content, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        with pytest.raises(ValueError, match="invalid JSON") as info:
            load_json(str(bad), wfa_from_dict)
        assert str(info.value).startswith(f"{bad}: invalid JSON: ")

    def test_document_errors_are_prefixed_with_path(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError) as info:
            load_json(str(path), wfa_from_dict)
        assert str(info.value) == f"{path}: WFA document must be a JSON object, got list"

    def test_text_round_trips_through_loader(self, rng, tmp_path):
        a = random_wfa(rng)
        path = tmp_path / "a.json"
        save_wfa(a, str(path))
        assert path.read_text() == json_text(wfa_to_dict(a))
        assert wfa_to_dict(load_json(str(path), wfa_from_dict)) == wfa_to_dict(a)


def count_entry_points():
    """Each counted argument with the call that takes it, the least count and a passing value."""
    a = random_wfa(np.random.default_rng(5), n=2, alphabet=("a",), norm_cap=0.5)
    words = [(), ("a",)]
    block = hankel_from_wfa(a, words, words)
    u = Umdp(actions=("a",), alpha=[1.0, 0.0], beta=[1.0, 0.5], trans={"a": np.eye(2)}, gamma=0.5)
    return [
        ("depth", 1, 2, lambda d: compute_tail_params(a, 0.5, depth=d)),
        ("depth", 1, 2, lambda d: jsr_bounds(list(a.trans.values()), d)),
        ("depth", 0, 2, lambda d: truncated_seminorm(a, a.alpha, 0.5, d)),
        ("rank", 1, 1, lambda r: spectral_learn(block, r)),
        ("trials", 1, 1, lambda t: perturbation_experiment(a, words, words, [1e-3], 0.5, trials=t)),
        ("horizon", 1, 2, lambda h: umdp_value_truncated(u, "aa", h)),
        ("block_len", 1, 2, lambda m: TailBoundParams(0.5, np.eye(2), m, 1.0)),
    ]


class TestCountCheck:
    @pytest.mark.parametrize("entry", range(7))
    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, -1])
    def test_every_count_is_checked_alike(self, entry, bad):
        # 2.5 once raised TypeError from range or a slice, 1.5 an IndexError and NaN passed depth < 1
        name, least, _, call = count_entry_points()[entry]
        for count in (bad, least - 1):
            message = f"^{name} must be an integer of at least {least}, got {count}$"
            with pytest.raises(ValueError, match=message):
                call(count)

    @pytest.mark.parametrize("entry", range(7))
    def test_a_whole_float_counts_as_its_int(self, entry):
        _, _, good, call = count_entry_points()[entry]
        assert repr(call(float(good))) == repr(call(good))
