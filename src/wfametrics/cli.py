"""Command-line interface: one binary, one subcommand per capability.

Exit codes: 0 success, 1 validation/input or usage error, 2 discount
certification failure, 3 budget exhausted with the (still valid, still
printed) wide interval.  All numeric output uses 12 significant digits; CSV
output starts with a ``# seed=`` line followed by a header row.  Runs are
single-threaded and deterministic: the same command line gives byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from . import learn as learn_mod
from . import metric, umdp as umdp_mod
from .bisim import largest_bisimulation, minimize
from .core import (
    all_words, checked_array, difference, evaluate, format_word, json_text, load_json, load_wfa,
    reverse, wfa_to_dict,
)
from .jsr import DEFAULT_NODE_BUDGET, wfa_irreducible, wfa_spectral_radius
from .linalg import DEFAULT_TOL

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CANNOT_CERTIFY = 2
EXIT_BUDGET = 3


def fmt(x: float) -> str:
    return f"{x:.12g}"


def tokenize_word(text: str, alphabet: tuple[str, ...]) -> tuple[str, ...]:
    """Parse a word: whitespace-separated symbols, or greedy concatenation.

    The empty string is the empty word.  Without whitespace, symbols are
    matched greedily longest-first, which is unambiguous for the common case
    of single-character alphabets.  Whitespace-separated symbols are checked
    against the alphabet where the word is used, by ``Wfa.check_word``.
    """
    if text == "" or text == "ε":
        return ()
    if any(ch.isspace() for ch in text):
        return tuple(text.split())
    parts = []
    by_len = sorted(alphabet, key=len, reverse=True)
    pos = 0
    while pos < len(text):
        for sym in by_len:
            if text.startswith(sym, pos):
                parts.append(sym)
                pos += len(sym)
                break
        else:
            raise ValueError(f"cannot tokenize {text!r} at position {pos} over alphabet {list(alphabet)}")
    return tuple(parts)


def read_words(path: str, alphabet: tuple[str, ...]) -> list[tuple[str, ...]]:
    """One word per line; blank lines are the empty word."""
    words = []
    with open(path) as fh:
        for line in fh:
            words.append(tokenize_word(line.strip(), alphabet))
    return words


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _report(iv: metric.CertifiedInterval) -> int:
    """Print a certified interval; exit code 0 when it converged, 3 on a budget exit."""
    sys.stdout.write(
        f"lower {fmt(iv.lower)}\nupper {fmt(iv.upper)}\nwitness {format_word(iv.witness_prefix)}\n"
        f"nodes_expanded {iv.nodes_expanded}\ndepth_explored {iv.depth_explored}\n"
        f"converged {str(iv.converged).lower()}\n"
    )
    return EXIT_OK if iv.converged else EXIT_BUDGET


def _write_csv(seed: int, header: str, rows, output: str | None) -> None:
    """An experiment's CSV: the ``# seed=`` line, the header, then one line per row."""
    lines = [f"# seed={seed}", header]
    lines += [",".join(x if isinstance(x, str) else fmt(x) for x in row) for row in rows]
    _write("\n".join(lines) + "\n", output)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    a = load_wfa(args.wfa)
    word = tokenize_word(args.word, a.alphabet)
    print(fmt(evaluate(a, word)))
    return EXIT_OK


def cmd_reverse(args) -> int:
    _write(json_text(wfa_to_dict(reverse(load_wfa(args.wfa)))), args.output)
    return EXIT_OK


def cmd_diff(args) -> int:
    d = difference(load_wfa(args.wfa1), load_wfa(args.wfa2))
    _write(json_text(wfa_to_dict(d)), args.output)
    return EXIT_OK


def cmd_minimize(args) -> int:
    m = minimize(load_wfa(args.wfa), args.tol)
    print(f"dim {m.dim}")
    _write(json_text(wfa_to_dict(m)), args.output)
    return EXIT_OK


def cmd_bisim(args) -> int:
    w = largest_bisimulation(load_wfa(args.wfa), args.tol)
    print(f"dim {w.dim}")
    if w.dim:
        for row in w.basis:
            print(" ".join(fmt(x) for x in row))
    return EXIT_OK


def cmd_jsr(args) -> int:
    b = wfa_spectral_radius(load_wfa(args.wfa), args.depth, args.budget)
    print(f"lower {fmt(b.lower)}")
    print(f"upper {fmt(b.upper)}")
    print(f"witness {format_word(b.witness)}")
    if b.truncated:
        print("truncated true")
    return EXIT_OK


def cmd_irreducible(args) -> int:
    print(str(wfa_irreducible(load_wfa(args.wfa), args.tol)).lower())
    return EXIT_OK


def cmd_distance(args) -> int:
    a1, a2 = load_wfa(args.wfa1), load_wfa(args.wfa2)
    return _report(metric.distance(a1, a2, args.gamma, args.eps, args.budget))


def cmd_seminorm(args) -> int:
    a = load_wfa(args.wfa)
    vec = load_json(args.vector, lambda doc: checked_array(doc, "vector", (a.dim,)))
    return _report(metric.seminorm_interval(a, vec, args.gamma, args.eps, args.budget))


def cmd_bound(args) -> int:
    a1, a2 = load_wfa(args.wfa1), load_wfa(args.wfa2)
    print(fmt(metric.distance_upper_bound(a1, a2, args.gamma)))
    return EXIT_OK


def cmd_hankel(args) -> int:
    a = load_wfa(args.wfa)
    block = learn_mod.hankel_from_wfa(
        a, read_words(args.prefixes, a.alphabet), read_words(args.suffixes, a.alphabet)
    )
    _write(json_text(learn_mod.block_to_dict(block)), args.output)
    return EXIT_OK


def cmd_learn(args) -> int:
    block = learn_mod.load_block(args.block)
    a = learn_mod.spectral_learn(block, args.rank, args.tol)
    _write(json_text(wfa_to_dict(a)), args.output)
    return EXIT_OK


def cmd_experiment_learn(args) -> int:
    a = load_wfa(args.wfa)
    basis_len = args.basis_len if args.basis_len is not None else max(1, minimize(a).dim)
    words = all_words(a.alphabet, basis_len)
    rows = learn_mod.perturbation_experiment(
        a, words, words, args.scales, args.gamma, args.eps, args.trials, seed=args.seed, budget=args.budget
    )
    _write_csv(args.seed, "scale,hankel_err,d_lower,d_upper,ratio,status", rows, args.output)
    return EXIT_OK


def cmd_experiment_continuity(args) -> int:
    a = load_wfa(args.wfa)
    rows = metric.parameter_continuity_experiment(
        a, args.scales, args.gamma, args.eps, seed=args.seed, budget=args.budget
    )
    _write_csv(args.seed, "scale,lower,upper,lemma_bound", rows, args.output)
    return EXIT_OK


def cmd_umdp_value(args) -> int:
    u = umdp_mod.load_umdp(args.umdp)
    word = tokenize_word(args.actions, u.actions)
    print(fmt(umdp_mod.umdp_value_truncated(u, word, args.horizon)))
    return EXIT_OK


def cmd_umdp_sup(args) -> int:
    u = umdp_mod.load_umdp(args.umdp)
    return _report(umdp_mod.umdp_sup_value_interval(u, args.eps, args.budget))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _subcommand(subparsers, name: str, func, help: str, *positionals: str, parents=()):
    """Add subcommand ``name`` running ``func``, with its positionals and shared options."""
    p = subparsers.add_parser(name, help=help, parents=parents)
    for positional in positionals:
        p.add_argument(positional)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfametrics",
        description="Weighted automata: bisimulation, certified metrics, JSR, learning, UMDPs.",
    )
    parser.add_argument(
        "--threads",
        default="1",
        help="worker threads; 1 (the default and only implemented mode) is bit-reproducible; "
        "any other value is an input error",
    )
    # each option that several subcommands share is declared once, in a parent parser
    gamma, search, output, tol, sweep = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    gamma.add_argument("--gamma", type=float, required=True)
    search.add_argument("--eps", type=float, default=metric.DEFAULT_EPS)
    search.add_argument("--budget", type=int, default=metric.DEFAULT_BUDGET)
    output.add_argument("-o", "--output")
    tol.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sweep.add_argument("--scales", type=float, nargs="+", required=True)
    sweep.add_argument("--seed", type=int, default=0)

    sub = parser.add_subparsers(dest="command", required=True)
    p = _subcommand(sub, "eval", cmd_eval, "evaluate a WFA on a word", "wfa")
    p.add_argument("--word", required=True, help="word; empty string for the empty word")
    _subcommand(sub, "reverse", cmd_reverse, "reverse automaton", "wfa", parents=[output])
    _subcommand(sub, "diff", cmd_diff, "difference automaton", "wfa1", "wfa2", parents=[output])
    _subcommand(sub, "minimize", cmd_minimize, "minimal equivalent automaton", "wfa",
                parents=[output, tol])
    _subcommand(sub, "bisim", cmd_bisim, "largest linear bisimulation subspace", "wfa", parents=[tol])
    p = _subcommand(sub, "jsr", cmd_jsr, "joint spectral radius bracket", "wfa")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    _subcommand(sub, "irreducible", cmd_irreducible, "transition family irreducibility", "wfa",
                parents=[tol])
    _subcommand(sub, "distance", cmd_distance, "certified bisimulation distance interval",
                "wfa1", "wfa2", parents=[gamma, search])
    p = _subcommand(sub, "seminorm", cmd_seminorm, "certified seminorm interval for a state vector",
                    "wfa", parents=[gamma, search])
    p.add_argument("--vector", required=True, help="JSON file holding the vector")
    _subcommand(sub, "bound", cmd_bound, "closed-form distance upper bound", "wfa1", "wfa2",
                parents=[gamma])
    p = _subcommand(sub, "hankel", cmd_hankel, "exact Hankel block of a WFA", "wfa", parents=[output])
    p.add_argument("--prefixes", required=True, help="file with one word per line")
    p.add_argument("--suffixes", required=True, help="file with one word per line")
    p = _subcommand(sub, "learn", cmd_learn, "spectral learning from a Hankel block", "block",
                    parents=[tol, output])
    p.add_argument("--rank", type=int, required=True)

    esub = sub.add_parser("experiment", help="experiment runners (CSV output)").add_subparsers(
        dest="experiment", required=True)
    p = _subcommand(esub, "learn", cmd_experiment_learn, "Hankel perturbation sweep", "wfa",
                    parents=[gamma, sweep, search, output])
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--basis-len", type=int, default=None, help="max index word length")
    _subcommand(esub, "continuity", cmd_experiment_continuity, "parameter perturbation sweep", "wfa",
                parents=[gamma, sweep, search, output])

    usub = sub.add_parser("umdp", help="unobservable MDP values").add_subparsers(
        dest="umdp_command", required=True)
    p = _subcommand(usub, "value", cmd_umdp_value, "truncated value of an action string", "umdp")
    p.add_argument("--actions", required=True)
    p.add_argument("--horizon", type=int, required=True)
    _subcommand(usub, "sup", cmd_umdp_sup, "certified bracket of the sup value", "umdp",
                parents=[search])
    return parser


def _check_threads(value: str) -> None:
    """Only single-threaded runs are implemented; reject every other request."""
    try:
        ok = int(value) == 1
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"--threads {value!r} is not supported; only 1 thread is implemented")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:  # argparse's usage-error status 2 means "cannot certify" here
        raise SystemExit(EXIT_INVALID if err.code == 2 else err.code) from None
    try:
        _check_threads(args.threads)
        return args.func(args)
    except metric.CannotCertifyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CANNOT_CERTIFY
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
