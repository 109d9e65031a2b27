import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from wfametrics import Wfa, hankel_from_wfa, load_wfa, save_wfa, wfa_from_dict, wfa_to_dict
from wfametrics.cli import main
from wfametrics.core import parse_word
from wfametrics.learn import block_to_dict
from wfametrics import core, learn, umdp as umdp_mod
from wfametrics.umdp import Umdp, save_umdp, umdp_to_dict
from conftest import duplicated_copy, random_stochastic, random_wfa

DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture
def growth_files(tmp_path):
    a = Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[1.0]]})
    a1 = Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[1.5]]})
    p, p1 = tmp_path / "A.json", tmp_path / "A1.json"
    save_wfa(a, str(p))
    save_wfa(a1, str(p1))
    return str(p), str(p1)


class TestTokenize:
    def test_empty(self):
        assert parse_word("", ("a",)) == ()

    def test_concatenated(self):
        assert parse_word("abab", ("a", "b")) == ("a", "b", "a", "b")

    def test_spaced_multichar(self):
        assert parse_word("s1 s2", ("s1", "s2")) == ("s1", "s2")

    def test_spaced_single_characters(self):
        # the README's replay recipe appends " a" to a witness written together
        assert parse_word("abab a", ("a", "b")) == ("a", "b", "a", "b", "a")

    def test_unknown(self, growth_files, capsys):
        _, a1 = growth_files
        assert main(["eval", a1, "--word", "az"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown symbol 'z'")


class TestBasicCommands:
    def test_eval(self, growth_files, capsys):
        _, a1 = growth_files
        assert main(["eval", a1, "--word", "aa"]) == 0
        assert capsys.readouterr().out.strip() == "2.25"

    @pytest.mark.parametrize("command", ["eval", "hankel"])
    def test_overflowing_value_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "big.json"
        save_wfa(Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[1e200]]}), str(path))
        words = tmp_path / "words.txt"
        words.write_text("\na\naa\n")
        args = {"eval": ["--word", "aaa"], "hankel": ["--prefixes", str(words), "--suffixes", str(words)]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(path), *args[command]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "overflows floating point" in captured.err

    @pytest.mark.parametrize("command", ["bound", "distance", "seminorm", "continuity"])
    def test_overflowing_automaton_cannot_certify(self, tmp_path, capsys, command):
        # its second product level overflows; that level once certified theta = 0
        path = tmp_path / "big.json"
        save_wfa(Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[1e200]]}), str(path))
        vector = tmp_path / "v.json"
        vector.write_text("[1.0]")
        argv = {"bound": ["bound", str(path), str(path)],
                "distance": ["distance", str(path), str(path)],
                "seminorm": ["seminorm", str(path), "--vector", str(vector)],
                "continuity": ["experiment", "continuity", str(path), "--scales", "0", "0.1"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--gamma", "0.5"])
        captured = capsys.readouterr()
        if command == "continuity":  # an uncertifiable pair is a NaN row
            assert code == 0 and captured.err == ""
            assert captured.out.splitlines()[2:] == ["0,nan,nan,nan", "0.1,nan,nan,nan"]
        else:
            assert code == 2 and captured.out == ""
            assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    def test_reverse_round_trips(self, growth_files, tmp_path, capsys):
        _, a1 = growth_files
        out = tmp_path / "rev.json"
        assert main(["reverse", a1, "-o", str(out)]) == 0
        rev = load_wfa(str(out))
        assert rev.trans["a"][0, 0] == 1.5

    def test_diff_and_eval(self, growth_files, tmp_path, capsys):
        a, a1 = growth_files
        out = tmp_path / "diff.json"
        assert main(["diff", a, a1, "-o", str(out)]) == 0
        assert main(["eval", str(out), "--word", "aa"]) == 0
        assert capsys.readouterr().out.strip() == "-1.25"

    def test_minimize(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from conftest import duplicated_copy

        a = duplicated_copy(random_wfa(rng, n=2))
        src = tmp_path / "dup.json"
        save_wfa(a, str(src))
        out = tmp_path / "min.json"
        assert main(["minimize", str(src), "-o", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "dim 2"
        assert load_wfa(str(out)).dim == 2

    def test_minimize_to_zero_states_round_trips(self, tmp_path, capsys):
        zero = Wfa(alphabet=("a",), alpha=[0.0], beta=[1.0], trans={"a": [[0.5]]})
        src = tmp_path / "zero.json"
        save_wfa(zero, str(src))
        out = tmp_path / "min.json"
        assert main(["minimize", str(src), "-o", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "dim 0"
        assert main(["eval", str(out), "--word", "aa"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_bisim_prints_dimension_and_basis(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from conftest import duplicated_copy

        a = duplicated_copy(random_wfa(rng, n=2))
        src = tmp_path / "dup.json"
        save_wfa(a, str(src))
        assert main(["bisim", str(src)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "dim 2"
        assert len(lines) == 1 + a.dim

    def test_jsr(self, growth_files, capsys):
        _, a1 = growth_files
        assert main(["jsr", a1, "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "lower 1.5" in out
        assert "upper 1.5" in out
        assert "truncated" not in out

    def test_jsr_prints_truncation(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        save_wfa(Wfa(alphabet=("a", "b"), alpha=[1.0, 0.0], beta=[1.0, 1.0],
                     trans={"a": [[1.0, 1.0], [0.0, 1.0]], "b": [[1.0, 0.0], [1.0, 1.0]]}), str(path))
        assert main(["jsr", str(path), "--depth", "4", "--budget", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "truncated true"

    def test_jsr_input_errors(self, growth_files, tmp_path, capsys):
        _, a1 = growth_files
        for budget in ("0", "-1"):
            assert main(["jsr", a1, "--depth", "4", "--budget", budget]) == 1
            assert capsys.readouterr().err == f"error: node_budget must be an integer of at least 1, got {budget}\n"
        huge = tmp_path / "huge.json"
        save_wfa(Wfa(alphabet=("a",), alpha=[1.0, 0.0], beta=[1.0, 1.0],
                     trans={"a": 1e200 * np.eye(2)}), str(huge))
        assert main(["jsr", str(huge), "--depth", "3"]) == 1
        assert capsys.readouterr().err == "error: products of length 2 overflow floating point\n"

    def test_irreducible(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = random_wfa(rng, n=2)
        src = tmp_path / "a.json"
        save_wfa(a, str(src))
        assert main(["irreducible", str(src)]) == 0
        assert capsys.readouterr().out.strip() in {"true", "false"}


class TestIntervalCommands:
    def test_distance_regression(self, growth_files, capsys):
        a, a1 = growth_files
        assert main(["distance", a, a1, "--gamma", "0.5", "--eps", "1e-6"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        assert float(fields["lower"]) <= 2.0 + 1e-9
        assert float(fields["upper"]) >= 2.0 - 1e-9
        assert float(fields["upper"]) - float(fields["lower"]) <= 1e-6

    def test_distance_self_zero(self, growth_files, capsys):
        a, _ = growth_files
        assert main(["distance", a, a, "--gamma", "0.5", "--eps", "1e-6"]) == 0
        fields = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert float(fields["lower"]) == 0.0
        assert float(fields["upper"]) <= 1e-6

    def test_distance_budget_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        a1 = random_wfa(rng, n=3, norm_cap=0.95)
        a2 = random_wfa(rng, n=3, norm_cap=0.95)
        p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
        save_wfa(a1, str(p1))
        save_wfa(a2, str(p2))
        code = main(["distance", str(p1), str(p2), "--gamma", "0.9",
                     "--eps", "1e-12", "--budget", "50"])
        assert code == 3
        out = capsys.readouterr().out
        assert "converged false" in out
        assert "lower" in out and "upper" in out  # interval still printed

    def test_cannot_certify_exit_code(self, growth_files, capsys):
        _, a1 = growth_files  # growth rate 1.5
        assert main(["distance", a1, a1, "--gamma", "0.7"]) == 2

    def test_seminorm(self, tmp_path, growth_files, capsys):
        a, a1 = growth_files
        vec = tmp_path / "v.json"
        vec.write_text("[1.0]")
        assert main(["seminorm", a1, "--vector", str(vec), "--gamma", "0.5"]) == 0
        fields = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.splitlines()
        )
        # sum of (0.75)^t = 4
        assert float(fields["lower"]) == pytest.approx(4.0, abs=1e-5)

    def test_bound_command(self, growth_files, capsys):
        a, a1 = growth_files
        assert main(["bound", a, a1, "--gamma", "0.5"]) == 0
        # closed form at i=1: 0.5 * 0.5 / (1 - 0.75)^2 = 4
        assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0, rel=1e-9)


class TestValidationErrors:
    def test_malformed_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alphabet": ["a"], "dim": 1,')
        assert main(["eval", str(bad), "--word", "a"]) == 1
        err = capsys.readouterr().err
        assert "line" in err

    def test_wrong_shape_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["a"], "dim": 2, "alpha": [1.0], "beta": [1.0, 0.0],
            "trans": {"a": [[1.0, 0.0], [0.0, 1.0]]},
        }))
        assert main(["eval", str(bad), "--word", "a"]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        assert main(["eval", "/nonexistent/x.json", "--word", "a"]) == 1

    @pytest.mark.parametrize("threads", ["0", "2", "-1", "many"])
    def test_threads_other_than_one_exit_one(self, growth_files, threads, capsys):
        _, a1 = growth_files
        assert main(["--threads", threads, "eval", a1, "--word", "a"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --threads")

    @pytest.mark.parametrize("command,flag,value", [
        ("seminorm", "--eps", "nan"),
        ("seminorm", "--gamma", "-0.5"),
        ("distance", "--gamma", "nan"),
    ])
    def test_invalid_number_exit_one(self, growth_files, tmp_path, command, flag, value, capsys):
        a, a1 = growth_files
        vec = tmp_path / "v.json"
        vec.write_text("[1.0]")
        argv = {
            "seminorm": ["seminorm", a, "--vector", str(vec), "--gamma", "0.5"],
            "distance": ["distance", a, a1, "--gamma", "0.5"],
        }[command]
        assert main(argv + [flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["minimize", "{two}", "--tol", "nan"],
        ["bisim", "{two}", "--tol", "nan"],
        ["learn", "{block}", "--rank", "1", "--tol", "-1"],
    ])
    def test_tol_not_positive_exit_one(self, tmp_path, argv, capsys):
        # a NaN tol once made minimize print "dim 0" and bisim call the whole space bisimilar
        two = Wfa(alphabet=("a", "b"), alpha=[1.0, 0.0], beta=[1.0, 0.0],
                  trans={"a": [[0.5, 0.0], [0.0, 0.25]], "b": [[0.25, 0.0], [0.0, 0.5]]})
        paths = {"two": tmp_path / "two.json", "block": tmp_path / "block.json"}
        save_wfa(two, str(paths["two"]))
        block = hankel_from_wfa(two, [(), ("a",)], [(), ("a",)])
        paths["block"].write_text(json.dumps(block_to_dict(block)))
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be positive")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["distance", "{a}"],
        ["jsr", "{a}", "--depth", "abc"],
        [],
    ])
    def test_usage_error_exit_one(self, growth_files, argv, capsys):
        # exit 2 is reserved for a discount that cannot be certified
        with pytest.raises(SystemExit) as exc:
            main([arg.format(a=growth_files[0]) for arg in argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["jsr", "--help"]])
    def test_help_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: " in capsys.readouterr().out

    def test_threads_one_accepted(self, growth_files, capsys):
        _, a1 = growth_files
        assert main(["--threads", "1", "eval", a1, "--word", "aa"]) == 0
        assert capsys.readouterr().out.strip() == "2.25"


def _valid_documents():
    a = Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[0.5]]})
    return {
        "wfa": wfa_to_dict(a),
        "umdp": umdp_to_dict(Umdp(("a",), [1.0], [1.0], {"a": [[1.0]]}, 0.5)),
        "block": block_to_dict(hankel_from_wfa(a, [(), ("a",)], [(), ("a",)])),
        "vector": [1.0],
    }


MALFORMED = {
    "wfa-top-level-number": ("wfa", lambda d: 3),
    "wfa-top-level-null": ("wfa", lambda d: None),
    "wfa-alpha-object-entry": ("wfa", lambda d: {**d, "alpha": [{}]}),
    "wfa-trans-entry-object": ("wfa", lambda d: {**d, "trans": {"a": [[{}]]}}),
    "wfa-dim-bool": ("wfa", lambda d: {**d, "dim": True}),
    "wfa-beta-nan": ("wfa", lambda d: {**d, "beta": [float("nan")]}),
    "wfa-trans-inf": ("wfa", lambda d: {**d, "trans": {"a": [[float("inf")]]}}),
    "umdp-top-level-number": ("umdp", lambda d: 3),
    "umdp-top-level-null": ("umdp", lambda d: None),
    "umdp-trans-list": ("umdp", lambda d: {**d, "trans": [[[1.0]]]}),
    "umdp-actions-number": ("umdp", lambda d: {**d, "actions": 3}),
    "umdp-gamma-list": ("umdp", lambda d: {**d, "gamma": [0.5]}),
    "umdp-states-bool": ("umdp", lambda d: {**d, "states": True}),
    "umdp-reward-nan": ("umdp", lambda d: {**d, "beta": [float("nan")]}),
    "umdp-kernel-nan": ("umdp", lambda d: {**d, "trans": {"a": [[float("nan")]]}}),
    "block-top-level-number": ("block", lambda d: 3),
    "block-top-level-null": ("block", lambda d: None),
    "block-prefix-number": ("block", lambda d: {**d, "prefixes": [[], 1]}),
    "block-hsig-list": ("block", lambda d: {**d, "Hsig": []}),
    "block-alphabet-number": ("block", lambda d: {**d, "alphabet": 3}),
    "block-h-nan": ("block", lambda d: {**d, "H": [[float("nan"), 1.0], [1.0, 1.0]]}),
    "block-hsig-inf": ("block", lambda d: {**d, "Hsig": {"a": [[1.0, float("inf")], [1.0, 1.0]]}}),
    "block-hp-nan": ("block", lambda d: {**d, "hP": [float("nan"), 1.0]}),
    "block-hs-inf": ("block", lambda d: {**d, "hS": [1.0, float("-inf")]}),
    "block-alphabet-duplicate": ("block", lambda d: {**d, "alphabet": ["a", "a"]}),
    "block-alphabet-empty": ("block", lambda d: {**d, "alphabet": [], "Hsig": {}}),
    "block-prefix-unknown-symbol": ("block", lambda d: {**d, "prefixes": [[], ["z"]]}),
    "block-suffix-unknown-symbol": ("block", lambda d: {**d, "suffixes": [[], ["z"]]}),
    "wfa-unknown-field": ("wfa", lambda d: {**d, "Trans": d["trans"]}),
    "umdp-unknown-field": ("umdp", lambda d: {**d, "discount": 0.5}),
    "block-unknown-field": ("block", lambda d: {**d, "rank": 1}),
    "vector-object": ("vector", lambda d: {"x": 1.0}),
    # a JSON integer past float range once escaped as an OverflowError traceback
    "wfa-alpha-huge-integer": ("wfa", lambda d: {**d, "alpha": [10**400]}),
    "umdp-gamma-huge-integer": ("umdp", lambda d: {**d, "gamma": 10**400}),
    "umdp-kernel-huge-integer": ("umdp", lambda d: {**d, "trans": {"a": [[10**400]]}}),
    "block-h-huge-integer": ("block", lambda d: {**d, "H": [[10**400, 1.0], [1.0, 1.0]]}),
    "vector-huge-integer": ("vector", lambda d: [-10**400]),
    # an empty symbol once hung the word tokenizer (here the word is "a", which it does parse)
    "wfa-alphabet-empty-symbol": ("wfa", lambda d: {**d, "alphabet": ["", "a"],
                                                    "trans": {"": [[0.5]], **d["trans"]}}),
    "umdp-actions-empty-symbol": ("umdp", lambda d: {**d, "actions": ["", "a"],
                                                     "trans": {"": [[1.0]], **d["trans"]}}),
    # no word's text can name the symbol "ε" (the empty word) or one holding whitespace
    "wfa-alphabet-epsilon-symbol": ("wfa", lambda d: {**d, "alphabet": ["ε", "a"],
                                                      "trans": {"ε": [[0.5]], **d["trans"]}}),
    "wfa-alphabet-spaced-symbol": ("wfa", lambda d: {**d, "alphabet": ["a b", "a"],
                                                     "trans": {"a b": [[0.5]], **d["trans"]}}),
    "umdp-actions-epsilon-symbol": ("umdp", lambda d: {**d, "actions": ["ε", "a"],
                                                       "trans": {"ε": [[1.0]], **d["trans"]}}),
    "umdp-actions-spaced-symbol": ("umdp", lambda d: {**d, "actions": ["a b", "a"],
                                                      "trans": {"a b": [[1.0]], **d["trans"]}}),
    "block-alphabet-epsilon-symbol": ("block", lambda d: {**d, "alphabet": ["ε", "a"],
                                                          "Hsig": {"ε": d["Hsig"]["a"], **d["Hsig"]}}),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_error_line_and_exit_one(self, case, tmp_path, capsys):
        kind, mutate = MALFORMED[case]
        docs = _valid_documents()
        wfa_path = tmp_path / "ok.json"
        wfa_path.write_text(json.dumps(docs["wfa"]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mutate(docs[kind])))
        argv = {
            "wfa": ["eval", str(path), "--word", "a"],
            "umdp": ["umdp", "sup", str(path)],
            "block": ["learn", str(path), "--rank", "1"],
            "vector": ["seminorm", str(wfa_path), "--vector", str(path), "--gamma", "0.5"],
        }[kind]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kind, schema", [("wfa", "wfa"), ("umdp", "umdp"), ("block", "hankel")])
    def test_schema_matches_reader_and_writer(self, kind, schema, monkeypatch):
        module, reader = {"wfa": (core, core.wfa_from_dict), "umdp": (umdp_mod, umdp_mod.umdp_from_dict),
                          "block": (learn, learn.block_from_dict)}[kind]
        passed = []
        check = module.check_document
        monkeypatch.setattr(module, "check_document",
                            lambda doc, name, fields: passed.append(tuple(fields)) or check(doc, name, fields))
        doc = _valid_documents()[kind]
        reader(doc)
        spec = json.loads((DOCS / f"{schema}.schema.json").read_text())
        assert tuple(spec["required"]) == tuple(spec["properties"]) == passed[0] == tuple(doc)
        assert spec["additionalProperties"] is False

    def test_valid_documents_are_accepted(self, tmp_path, capsys):
        docs = _valid_documents()
        paths = {}
        for kind, doc in docs.items():
            paths[kind] = tmp_path / f"{kind}.json"
            paths[kind].write_text(json.dumps(doc))
        assert main(["eval", str(paths["wfa"]), "--word", "a"]) == 0
        assert main(["umdp", "sup", str(paths["umdp"])]) == 0
        assert main(["learn", str(paths["block"]), "--rank", "1"]) == 0
        assert main(["seminorm", str(paths["wfa"]), "--vector", str(paths["vector"]),
                     "--gamma", "0.5"]) == 0
        assert capsys.readouterr().err == ""


class TestOneWriter:
    @pytest.mark.parametrize("command", ["reverse", "diff", "minimize", "hankel", "learn"])
    def test_stdout_equals_output_file(self, command, tmp_path, capsys):
        rng = np.random.default_rng(12)
        a = random_wfa(rng, n=2, norm_cap=0.7)
        paths = {name: str(tmp_path / f"{name}.json") for name in ("a", "b", "dup", "block")}
        save_wfa(a, paths["a"])
        save_wfa(random_wfa(rng, n=2, norm_cap=0.6), paths["b"])
        save_wfa(duplicated_copy(a), paths["dup"])
        words = tmp_path / "w.txt"
        words.write_text("\na\nb\nab\n")
        hankel = ["hankel", paths["a"], "--prefixes", str(words), "--suffixes", str(words)]
        assert main(hankel + ["-o", paths["block"]]) == 0
        argv = {
            "reverse": ["reverse", paths["a"]],
            "diff": ["diff", paths["a"], paths["b"]],
            "minimize": ["minimize", paths["dup"]],
            "hankel": hankel,
            "learn": ["learn", paths["block"], "--rank", "2"],
        }[command]
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        target = tmp_path / "out.json"
        assert main(argv + ["-o", str(target)]) == 0
        to_file_stdout = capsys.readouterr().out
        if command == "minimize":
            head, out = out.split("\n", 1)
            assert head == "dim 2"
            assert to_file_stdout == "dim 2\n"
        else:
            assert to_file_stdout == ""
        assert target.read_bytes() == out.encode()
        json.loads(out)


class TestHankelLearnCommands:
    def test_hankel_learn_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        a = random_wfa(rng, n=2, norm_cap=0.7)
        src = tmp_path / "a.json"
        save_wfa(a, str(src))
        pfile = tmp_path / "p.txt"
        pfile.write_text("\na\nb\naa\nab\nba\nbb\n")
        block_path = tmp_path / "block.json"
        assert main(["hankel", str(src), "--prefixes", str(pfile),
                     "--suffixes", str(pfile), "-o", str(block_path)]) == 0
        learned_path = tmp_path / "learned.json"
        assert main(["learn", str(block_path), "--rank", "2",
                     "-o", str(learned_path)]) == 0
        learned = load_wfa(str(learned_path))
        assert learned.dim == 2
        assert main(["distance", str(src), str(learned_path),
                     "--gamma", "0.3", "--eps", "1e-6"]) == 0
        fields = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert float(fields["upper"]) <= 1e-6


class TestUmdpCommands:
    def test_value_and_sup(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        u = Umdp(
            actions=("a", "b"),
            alpha=[0.5, 0.5],
            beta=[1.0, 0.25],
            trans={"a": random_stochastic(rng, 2), "b": random_stochastic(rng, 2)},
            gamma=0.5,
        )
        path = tmp_path / "u.json"
        save_umdp(u, str(path))
        assert main(["umdp", "value", str(path), "--actions", "abab", "--horizon", "4"]) == 0
        first = capsys.readouterr().out.strip()
        expected = sum(
            0.5**t * float(_dist_after(u, "abab", t) @ u.beta) for t in range(4)
        )
        assert float(first) == pytest.approx(expected, rel=1e-10)
        assert main(["umdp", "sup", str(path), "--eps", "1e-4"]) == 0
        fields = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert float(fields["upper"]) >= float(fields["lower"]) >= 0.0

    def test_sup_of_an_overflowing_value_is_an_input_error(self, tmp_path, capsys):
        u = Umdp(actions=("a", "b"), alpha=[0.5, 0.5], beta=[1e308, 0.0],
                 trans={"a": np.eye(2), "b": np.eye(2)[::-1]}, gamma=0.9)
        path = tmp_path / "u.json"
        save_umdp(u, str(path))
        assert main(["umdp", "sup", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "overflows" in captured.err

    def test_sup_witness_replays_to_the_printed_lower(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        u = Umdp(actions=("a", "b", "c"), alpha=[0.2, 0.3, 0.5], beta=rng.random(3),
                 trans={act: random_stochastic(rng, 3) for act in "abc"}, gamma=0.9)
        path = tmp_path / "u.json"
        save_umdp(u, str(path))
        assert main(["umdp", "sup", str(path), "--budget", "300"]) in (0, 3)
        fields = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        witness = fields["witness"]
        assert len(witness) > int(fields["depth_explored"])  # a lasso set the lower bound
        horizon = str(len(witness) + 1)
        assert main(["umdp", "value", str(path), "--actions", witness + "a", "--horizon", horizon]) == 0
        assert capsys.readouterr().out.strip() == fields["lower"]

    def test_sup_witness_replays_over_mixed_actions(self, tmp_path, capsys):
        # this witness uses only "a" and "b"; it was once printed run together and read back as "ab"s
        rng = np.random.default_rng(2)
        actions = ("a", "ab", "b")
        trans = {act: random_stochastic(rng, 3) for act in actions}
        alpha = rng.random(3) + 1e-3
        path = tmp_path / "u.json"
        save_umdp(Umdp(actions, alpha / alpha.sum(), rng.random(3), trans, 0.8), str(path))
        assert main(["umdp", "sup", str(path)]) == 0
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        witness = out["witness"].split()
        assert set(witness) == {"a", "b"}
        recipe = ["--actions", f"{out['witness']} a", "--horizon", str(len(witness) + 1)]
        assert main(["umdp", "value", str(path), *recipe]) == 0
        assert capsys.readouterr().out == f"{out['lower']}\n"

    def test_sup_failed_alpha_check_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(umdp_mod, "_is_supersolution", lambda *args: False)
        u = Umdp(actions=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[1.0]]}, gamma=0.5)
        path = tmp_path / "u.json"
        save_umdp(u, str(path))
        assert main(["umdp", "sup", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the alpha-vector bound fails")


def _dist_after(u, word, steps):
    dist = np.array(u.alpha)
    for sym in word[:steps]:
        dist = dist @ u.trans[sym]
    return dist


class TestExperimentsAndDeterminism:
    def test_continuity_csv_format(self, tmp_path):
        rng = np.random.default_rng(5)
        a = random_wfa(rng, n=2, norm_cap=0.7)
        src = tmp_path / "a.json"
        save_wfa(a, str(src))
        out = tmp_path / "rows.csv"
        assert main(["experiment", "continuity", str(src), "--gamma", "0.3",
                     "--scales", "0.01", "0.001", "--seed", "7",
                     "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=7"
        assert lines[1] == "scale,lower,upper,lemma_bound"
        assert len(lines) == 4

    def test_learn_csv_format_and_determinism(self, tmp_path):
        rng = np.random.default_rng(6)
        a = random_wfa(rng, n=2, norm_cap=0.7)
        src = tmp_path / "a.json"
        save_wfa(a, str(src))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = ["--threads", "1", "experiment", "learn", str(src), "--gamma", "0.3",
                "--scales", "0.01", "0.001", "--seed", "11"]
        assert main(argv + ["-o", str(out1)]) == 0
        assert main(argv + ["-o", str(out2)]) == 0
        text1, text2 = out1.read_text(), out2.read_text()
        assert text1 == text2
        lines = text1.splitlines()
        assert lines[0] == "# seed=11"
        assert lines[1] == "scale,hankel_err,d_lower,d_upper,ratio,status"

    @pytest.mark.parametrize("experiment,flag,value,message", [
        ("learn", "--trials", "0", "trials must be an integer of at least 1, got 0"),
        ("learn", "--trials", "-1", "trials must be an integer of at least 1, got -1"),
        ("learn", "--scales", "-0.1", "got -0.1"),
        ("learn", "--scales", "nan", "got nan"),
        ("continuity", "--scales", "-0.1", "got -0.1"),
        ("continuity", "--scales", "inf", "got inf"),
        ("continuity", "--scales", "nan", "got nan"),
    ])
    def test_bad_experiment_input_exit_one(self, tmp_path, experiment, flag, value, message,
                                           capsys):
        src = tmp_path / "a.json"
        save_wfa(random_wfa(np.random.default_rng(5), n=2, norm_cap=0.7), str(src))
        argv = ["experiment", experiment, str(src), "--gamma", "0.3"]
        if flag != "--scales":
            argv += ["--scales", "0.01"]
        assert main(argv + [flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    def test_json_outputs_reparse(self, tmp_path, growth_files):
        a, a1 = growth_files
        for args, path in [
            (["reverse", a1], tmp_path / "rev.json"),
            (["diff", a, a1], tmp_path / "diff.json"),
            (["minimize", a1], tmp_path / "min.json"),
        ]:
            assert main(args + ["-o", str(path)]) == 0
            wfa_from_dict(json.loads(path.read_text()))

    def test_repeat_runs_byte_identical(self, tmp_path, growth_files, capsys):
        a, a1 = growth_files
        main(["distance", a, a1, "--gamma", "0.5"])
        first = capsys.readouterr().out
        main(["distance", a, a1, "--gamma", "0.5"])
        second = capsys.readouterr().out
        assert first == second
