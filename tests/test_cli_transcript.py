"""Golden transcript of the command line: every subcommand, run in-process.

``cli_transcript.json`` holds, for each command line below, its exit code,
stdout and stderr.  The run covers all sixteen handlers, one budget exit, one
discount that cannot be certified, one malformed file and three words with a
symbol outside the alphabet.  The searches run on one-state automata and
everything else on diagonal or dyadic two-state automata, so every printed
digit comes from exact arithmetic and not from a LAPACK rounding choice.  After an intended change of output, regenerate the
transcript with

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/cli_transcript.json
"""

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from wfametrics.cli import main

TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"

FIXTURES = {
    # one state: the searches and the experiments
    "one.json": {"alphabet": ["a", "b"], "dim": 1, "alpha": [1.0], "beta": [1.0],
                 "trans": {"a": [[0.5]], "b": [[0.25]]}},
    "one_b.json": {"alphabet": ["a", "b"], "dim": 1, "alpha": [1.0], "beta": [0.5],
                   "trans": {"a": [[0.5]], "b": [[0.125]]}},
    "grow.json": {"alphabet": ["a", "b"], "dim": 1, "alpha": [1.0], "beta": [1.0],
                  "trans": {"a": [[1.5]], "b": [[0.25]]}},
    "v.json": [2.0],
    # two states, diagonal and dyadic: the second state is never observed
    "two.json": {"alphabet": ["a", "b"], "dim": 2, "alpha": [1.0, 0.0], "beta": [1.0, 0.0],
                 "trans": {"a": [[0.5, 0.0], [0.0, 0.25]], "b": [[0.25, 0.0], [0.0, 0.5]]}},
    "two_b.json": {"alphabet": ["a", "b"], "dim": 2, "alpha": [0.5, 0.5], "beta": [1.0, 0.25],
                   "trans": {"a": [[0.5, 0.0], [0.0, 0.5]], "b": [[0.0, 0.5], [0.25, 0.0]]}},
    "block.json": {"alphabet": ["a", "b"], "prefixes": [[], ["a"]], "suffixes": [[], ["b"]],
                   "H": [[1.0, 0.0], [0.0, 0.5]],
                   "Hsig": {"a": [[0.5, 0.0], [0.0, 0.25]], "b": [[0.0, 0.25], [0.0, 0.0]]},
                   "hP": [1.0, 0.0], "hS": [1.0, 0.0]},
    "u1.json": {"actions": ["a", "b"], "states": 1, "alpha": [1.0], "beta": [0.5],
                "trans": {"a": [[1.0]], "b": [[1.0]]}, "gamma": 0.5},
    "u2.json": {"actions": ["a", "b"], "states": 2, "alpha": [1.0, 0.0], "beta": [1.0, 0.5],
                "trans": {"a": [[0.5, 0.5], [0.0, 1.0]], "b": [[0.0, 1.0], [1.0, 0.0]]},
                "gamma": 0.5},
    "bad.json": {"alphabet": ["a"], "dim": 1, "alpha": [1.0], "beta": [1.0],
                 "trans": {"a": [[0.5]]}, "extra": 1},
}
TEXT_FIXTURES = {"words.txt": "\na\nab\n", "bad_words.txt": "\na z\n"}

COMMANDS = [
    "eval two_b.json --word abba",
    "eval two_b.json --word ''",
    "reverse two_b.json",
    "diff two.json two_b.json",
    "minimize two.json",
    "bisim two.json",
    "jsr two_b.json --depth 3",
    "irreducible two.json",
    "irreducible two_b.json",
    "distance one.json one_b.json --gamma 0.5",
    "seminorm one.json --vector v.json --gamma 0.9",
    "seminorm one.json --vector v.json --gamma 0.9 --eps 1e-12 --budget 5",
    "bound one.json one_b.json --gamma 0.5",
    "hankel two_b.json --prefixes words.txt --suffixes words.txt",
    "learn block.json --rank 2",
    "experiment learn one.json --gamma 0.5 --scales 0.25 0.0625 --seed 3 --basis-len 0",
    "experiment continuity one.json --gamma 0.5 --scales 0.25 0.0625 --seed 3",
    "umdp value u2.json --actions abab --horizon 4",
    "umdp sup u1.json --eps 1e-6",
    "distance grow.json one.json --gamma 0.9",
    "eval bad.json --word a",
    "eval two_b.json --word 'a z'",
    "umdp value u2.json --actions 'a z' --horizon 9",
    "hankel two_b.json --prefixes bad_words.txt --suffixes words.txt",
]


def write_fixtures(directory) -> None:
    for name, doc in FIXTURES.items():
        Path(directory, name).write_text(json.dumps(doc))
    for name, text in TEXT_FIXTURES.items():
        Path(directory, name).write_text(text)


def run(command: str) -> dict:
    """Exit code, stdout and stderr of ``wfametrics <command>``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return {"command": command, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def transcript() -> list[dict]:
    """Every command of :data:`COMMANDS`, run in the current directory."""
    return [run(command) for command in COMMANDS]


def test_transcript_is_unchanged(tmp_path, monkeypatch):
    write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = json.loads(TRANSCRIPT.read_text())
    assert [entry["command"] for entry in expected] == COMMANDS
    for got, want in zip(transcript(), expected):
        assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        write_fixtures(directory)
        os.chdir(directory)
        sys.stdout.write(json.dumps(transcript(), indent=2, ensure_ascii=False) + "\n")
