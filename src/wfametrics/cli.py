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
    of single-character alphabets.
    """
    if text == "" or text == "ε":
        return ()
    if any(ch.isspace() for ch in text):
        parts = tuple(text.split())
    else:
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
        parts = tuple(parts)
    for sym in parts:
        if sym not in alphabet:
            raise ValueError(f"unknown symbol {sym!r}; alphabet is {list(alphabet)}")
    return parts


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


def _interval_report(interval: metric.CertifiedInterval) -> str:
    lines = [
        f"lower {fmt(interval.lower)}",
        f"upper {fmt(interval.upper)}",
        f"witness {format_word(interval.witness_prefix)}",
        f"nodes_expanded {interval.nodes_expanded}",
        f"depth_explored {interval.depth_explored}",
        f"converged {str(interval.converged).lower()}",
    ]
    return "\n".join(lines) + "\n"


def _interval_exit(interval: metric.CertifiedInterval) -> int:
    return EXIT_OK if interval.converged else EXIT_BUDGET


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
    iv = metric.distance(
        load_wfa(args.wfa1), load_wfa(args.wfa2), args.gamma, args.eps, args.budget
    )
    sys.stdout.write(_interval_report(iv))
    return _interval_exit(iv)


def cmd_seminorm(args) -> int:
    a = load_wfa(args.wfa)
    vec = load_json(args.vector, lambda doc: checked_array(doc, "vector", (a.dim,)))
    iv = metric.seminorm_interval(a, vec, args.gamma, args.eps, args.budget)
    sys.stdout.write(_interval_report(iv))
    return _interval_exit(iv)


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
        a,
        words,
        words,
        args.scales,
        args.gamma,
        args.eps,
        args.trials,
        seed=args.seed,
        budget=args.budget,
    )
    lines = [f"# seed={args.seed}", "scale,hankel_err,d_lower,d_upper,ratio,status"]
    for scale, herr, lo, hi, ratio, status in rows:
        lines.append(
            ",".join([fmt(scale), fmt(herr), fmt(lo), fmt(hi), fmt(ratio), status])
        )
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_experiment_continuity(args) -> int:
    a = load_wfa(args.wfa)
    rows = metric.parameter_continuity_experiment(
        a, args.scales, args.gamma, args.eps, seed=args.seed, budget=args.budget
    )
    lines = [f"# seed={args.seed}", "scale,lower,upper,lemma_bound"]
    for scale, lo, hi, bound in rows:
        lines.append(",".join([fmt(scale), fmt(lo), fmt(hi), fmt(bound)]))
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_umdp_value(args) -> int:
    u = umdp_mod.load_umdp(args.umdp)
    word = tokenize_word(args.actions, u.actions)
    print(fmt(umdp_mod.umdp_value_truncated(u, word, args.horizon)))
    return EXIT_OK


def cmd_umdp_sup(args) -> int:
    u = umdp_mod.load_umdp(args.umdp)
    iv = umdp_mod.umdp_sup_value_interval(u, args.eps, args.budget)
    sys.stdout.write(_interval_report(iv))
    return _interval_exit(iv)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a WFA on a word")
    p.add_argument("wfa")
    p.add_argument("--word", required=True, help="word; empty string for the empty word")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reverse", help="reverse automaton")
    p.add_argument("wfa")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("diff", help="difference automaton")
    p.add_argument("wfa1")
    p.add_argument("wfa2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("minimize", help="minimal equivalent automaton")
    p.add_argument("wfa")
    p.add_argument("-o", "--output")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("bisim", help="largest linear bisimulation subspace")
    p.add_argument("wfa")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("jsr", help="joint spectral radius bracket")
    p.add_argument("wfa")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_jsr)

    p = sub.add_parser("irreducible", help="transition family irreducibility")
    p.add_argument("wfa")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_irreducible)

    p = sub.add_parser("distance", help="certified bisimulation distance interval")
    p.add_argument("wfa1")
    p.add_argument("wfa2")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, default=metric.DEFAULT_EPS)
    p.add_argument("--budget", type=int, default=metric.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("seminorm", help="certified seminorm interval for a state vector")
    p.add_argument("wfa")
    p.add_argument("--vector", required=True, help="JSON file holding the vector")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, default=metric.DEFAULT_EPS)
    p.add_argument("--budget", type=int, default=metric.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_seminorm)

    p = sub.add_parser("bound", help="closed-form distance upper bound")
    p.add_argument("wfa1")
    p.add_argument("wfa2")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("hankel", help="exact Hankel block of a WFA")
    p.add_argument("wfa")
    p.add_argument("--prefixes", required=True, help="file with one word per line")
    p.add_argument("--suffixes", required=True, help="file with one word per line")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_hankel)

    p = sub.add_parser("learn", help="spectral learning from a Hankel block")
    p.add_argument("block")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("experiment", help="experiment runners (CSV output)")
    esub = p.add_subparsers(dest="experiment", required=True)

    e = esub.add_parser("learn", help="Hankel perturbation sweep")
    e.add_argument("wfa")
    e.add_argument("--gamma", type=float, required=True)
    e.add_argument("--scales", type=float, nargs="+", required=True)
    e.add_argument("--eps", type=float, default=metric.DEFAULT_EPS)
    e.add_argument("--trials", type=int, default=1)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--budget", type=int, default=metric.DEFAULT_BUDGET)
    e.add_argument("--basis-len", type=int, default=None, help="max index word length")
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_experiment_learn)

    e = esub.add_parser("continuity", help="parameter perturbation sweep")
    e.add_argument("wfa")
    e.add_argument("--gamma", type=float, required=True)
    e.add_argument("--scales", type=float, nargs="+", required=True)
    e.add_argument("--eps", type=float, default=metric.DEFAULT_EPS)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--budget", type=int, default=metric.DEFAULT_BUDGET)
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_experiment_continuity)

    p = sub.add_parser("umdp", help="unobservable MDP values")
    usub = p.add_subparsers(dest="umdp_command", required=True)

    u = usub.add_parser("value", help="truncated value of an action string")
    u.add_argument("umdp")
    u.add_argument("--actions", required=True)
    u.add_argument("--horizon", type=int, required=True)
    u.set_defaults(func=cmd_umdp_value)

    u = usub.add_parser("sup", help="certified bracket of the sup value")
    u.add_argument("umdp")
    u.add_argument("--eps", type=float, default=metric.DEFAULT_EPS)
    u.add_argument("--budget", type=int, default=metric.DEFAULT_BUDGET)
    u.set_defaults(func=cmd_umdp_sup)

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
