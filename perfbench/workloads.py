"""The three workloads: inputs made from a seed, the fixed work, and output checks.

Every workload draws its problems from ``default_rng(PROBLEM_SEED)`` and uses
the run's ``--seed`` only to place each problem in random coordinates: a
signed permutation of the states (a plain permutation for UMDPs, whose
kernels must stay stochastic).  The change of coordinates is exact in
floating point and leaves every value of the problem unchanged, while the
bits the library sees differ from seed to seed.  The library's own rounding
is reordered, so identical certificates, node counts and widths across seeds
are observed (see README.md), not guaranteed; the output checks allow for it.
Fresh problems per seed are not an option: branch-and-bound cost is heavy
tailed across random instances (147 to 27,467 nodes within the five-instance
corpus alone), so the run-to-run spread would be set by the draw and not by
the code under test.

``solve`` runs a workload's fixed work and returns one :class:`Op` per
operation; ``check`` turns an op into ``None`` (correct) or a failure message.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import wfametrics as wm
from wfametrics import cli as wm_cli

PROBLEM_SEED = 7
EPS = 1e-6
REL_TOL = 1e-9

# (n, k, gamma) of the ROADMAP hard corpus, in draw order.
CORPUS = ((3, 2, 0.7), (3, 2, 0.8), (6, 2, 0.7), (4, 3, 0.6), (20, 2, 0.6))
CORPUS_CLI_INSTANCE = 1

UMDP_ACTIONS = ("a", "b", "c")
UMDP_STATES = 8
UMDP_COUNT = 2
UMDP_GAMMA = 0.9
UMDP_BUDGET = 25_000
UMDP_CLI_BUDGET = 1_000

STRUCT_HALF_DIMS = (25, 50, 100)     # duplicated copies have 2n states
STRUCT_DISTANCE_HALF_DIMS = (25, 50)  # difference automata of 3n states
STRUCT_GAMMA = 0.5
JSR_PAIRS = 2
JSR_DEPTH = 14
LEARN_DIM = 4
LEARN_WORD_LEN = 3
LEARN_NOISE = 1e-3
PERTURB_SCALES = (1e-2, 1e-3, 1e-4)
CLI_HALF_DIM = 10
CLI_JSR_DEPTH = 10


@dataclass
class Op:
    """One operation of a repetition: what was asked, what came back, how to check it."""

    label: str
    kind: str
    value: Any = None
    context: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _coords(rng, n: int):
    return rng.permutation(n), rng.choice([-1.0, 1.0], n)


def _move_vec(x, perm, sign):
    return sign * np.asarray(x)[perm]


def _move_mat(m, perm, sign):
    return sign[:, None] * np.asarray(m)[np.ix_(perm, perm)] * sign[None, :]


def _move(a: wm.Wfa, rng) -> wm.Wfa:
    """``a`` in random signed-permutation coordinates (P A P^T, P alpha, P beta)."""
    perm, sign = _coords(rng, a.dim)
    return wm.Wfa(
        alphabet=a.alphabet,
        alpha=_move_vec(a.alpha, perm, sign),
        beta=_move_vec(a.beta, perm, sign),
        trans={s: _move_mat(m, perm, sign) for s, m in a.trans.items()},
    )


def _random_wfa(rng, n: int, alphabet=("a", "b"), norm_cap: float = 0.9) -> wm.Wfa:
    trans = {s: rng.standard_normal((n, n)) for s in alphabet}
    top = max(np.linalg.svd(m, compute_uv=False)[0] for m in trans.values())
    return wm.Wfa(
        alphabet=alphabet,
        alpha=rng.standard_normal(n),
        beta=rng.standard_normal(n),
        trans={s: m * (norm_cap / top) for s, m in trans.items()},
    )


def _duplicated(a: wm.Wfa) -> wm.Wfa:
    """Two copies of ``a`` sharing beta: the differences (v, -v) are an n-dim bisimulation."""
    z = np.zeros((a.dim, a.dim))
    return wm.Wfa(
        alphabet=a.alphabet,
        alpha=np.concatenate([a.alpha, a.alpha]),
        beta=np.concatenate([a.beta, a.beta]),
        trans={s: np.block([[m, z], [z, m]]) for s, m in a.trans.items()},
    )


def _all_words(alphabet, max_len: int):
    return [w for length in range(max_len + 1) for w in itertools.product(alphabet, repeat=length)]


def setup_bnb(seed: int, work) -> dict:
    prob, crd = np.random.default_rng(PROBLEM_SEED), np.random.default_rng(seed)
    instances = []
    for n, k, gamma in CORPUS:
        mats = [prob.standard_normal((n, n)) for _ in range(k)]
        alpha, beta, v = (prob.standard_normal(n) for _ in range(3))
        syms = tuple("abc"[:k])
        perm, sign = _coords(crd, n)
        mats = [_move_mat(m, perm, sign) for m in mats]
        scale = wm.jsr_bounds(mats, 6).lower
        a = wm.Wfa(syms, _move_vec(alpha, perm, sign), _move_vec(beta, perm, sign),
                   {s: m / scale for s, m in zip(syms, mats)})
        instances.append((a, _move_vec(v, perm, sign), gamma))
    a, v, gamma = instances[CORPUS_CLI_INSTANCE]
    wfa_path, vec_path = work / "corpus.json", work / "vector.json"
    wm.save_wfa(a, str(wfa_path))
    vec_path.write_text(json.dumps(v.tolist()) + "\n")
    cli = [(["seminorm", str(wfa_path), "--vector", str(vec_path), "--gamma", repr(gamma)], 0)]
    return {"instances": instances, "cli": cli}


def setup_umdp(seed: int, work) -> dict:
    prob, crd = np.random.default_rng(PROBLEM_SEED), np.random.default_rng(seed)
    n = UMDP_STATES
    umdps = []
    for _ in range(UMDP_COUNT):
        kernels = {}
        for act in UMDP_ACTIONS:
            mat = prob.random((n, n)) + 1e-3
            kernels[act] = mat / mat.sum(axis=1, keepdims=True)
        rewards = prob.random(n)
        perm = crd.permutation(n)
        idx = np.ix_(perm, perm)
        umdps.append(wm.Umdp(UMDP_ACTIONS, np.full(n, 1.0 / n), rewards[perm],
                             {act: m[idx] for act, m in kernels.items()}, UMDP_GAMMA))
    path = work / "umdp.json"
    wm.save_umdp(umdps[0], str(path))
    cli = [(["umdp", "sup", str(path), "--budget", str(UMDP_CLI_BUDGET)], wm_cli.EXIT_BUDGET)]
    return {"umdps": umdps, "cli": cli}


def setup_structure(seed: int, work) -> dict:
    prob, crd = np.random.default_rng(PROBLEM_SEED), np.random.default_rng(seed)
    bigs = [_move(_duplicated(_random_wfa(prob, n)), crd) for n in STRUCT_HALF_DIMS]
    jsr_pairs = []
    for _ in range(JSR_PAIRS):
        perm, sign = _coords(crd, 3)
        jsr_pairs.append([_move_mat(prob.standard_normal((3, 3)), perm, sign) for _ in range(2)])
    gamma_wfa = _move(_random_wfa(prob, STRUCT_HALF_DIMS[0]), crd)
    target = _move(_random_wfa(prob, LEARN_DIM), crd)
    words = _all_words(target.alphabet, LEARN_WORD_LEN)
    side = (len(words), len(words))
    noise = {
        "h": LEARN_NOISE * prob.standard_normal(side),
        "hsig": {s: LEARN_NOISE * prob.standard_normal(side) for s in target.alphabet},
        "hp": LEARN_NOISE * prob.standard_normal(len(words)),
        "hs": LEARN_NOISE * prob.standard_normal(len(words)),
    }

    cli_big = _move(_duplicated(_random_wfa(prob, CLI_HALF_DIM)), crd)
    paths = {name: work / f"{name}.json" for name in ("big", "min", "pair")}
    wm.save_wfa(cli_big, str(paths["big"]))
    wm.save_wfa(wm.minimize(cli_big), str(paths["min"]))
    ones = np.ones(3)
    wm.save_wfa(wm.Wfa(("0", "1"), ones, ones, dict(zip(("0", "1"), jsr_pairs[0]))), str(paths["pair"]))
    big, small, pair = (str(paths[k]) for k in ("big", "min", "pair"))
    cli = [
        (["minimize", big], 0),
        (["bisim", big], 0),
        (["jsr", pair, "--depth", str(CLI_JSR_DEPTH)], 0),
        (["distance", big, small, "--gamma", repr(STRUCT_GAMMA)], 0),
    ]
    return {"bigs": bigs, "jsr_pairs": jsr_pairs, "gamma_wfa": gamma_wfa, "target": target,
            "words": words, "noise": noise, "cli": cli}


# ---------------------------------------------------------------------------
# the fixed work of one repetition
# ---------------------------------------------------------------------------

def _attempt(ops: list, label: str, fn: Callable):
    try:
        return fn()
    except Exception as err:  # any raise is a failed operation, not an aborted run
        ops.append(Op(label, "error", f"{type(err).__name__}: {err}"))
        return None


def _seminorm_partial(a: wm.Wfa, v, gamma: float) -> Callable:
    def partial(word):
        start = wm.with_initial(a, v)
        return math.fsum(gamma**t * abs(wm.evaluate(start, word[:t])) for t in range(len(word) + 1))

    return partial


def _distance_partial(a1: wm.Wfa, a2: wm.Wfa, gamma: float) -> Callable:
    def partial(word):
        return math.fsum(gamma**t * abs(wm.evaluate(a1, word[:t]) - wm.evaluate(a2, word[:t]))
                         for t in range(len(word) + 1))

    return partial


def _umdp_partial(u: wm.Umdp) -> Callable:
    def partial(word):
        return wm.umdp_value_truncated(u, tuple(word) + (u.actions[0],), len(word) + 1)

    return partial


def solve_bnb(inp: dict) -> list[Op]:
    ops = []
    for i, (a, v, gamma) in enumerate(inp["instances"]):
        label = "corpus{}:n{}k{}g{}".format(i, a.dim, len(a.alphabet), gamma)

        def run(a=a, v=v, gamma=gamma):
            params = wm.compute_tail_params(a, gamma)
            return wm.seminorm_interval(a, v, gamma, EPS, params=params)

        iv = _attempt(ops, label, run)
        if iv is not None:
            ops.append(Op(label, "interval", iv, {"partial": _seminorm_partial(a, v, gamma)}))
    return ops


def solve_umdp(inp: dict) -> list[Op]:
    ops = []
    for i, u in enumerate(inp["umdps"]):
        label = f"umdp{i}"
        iv = _attempt(ops, label, lambda u=u: wm.umdp_sup_value_interval(u, EPS, UMDP_BUDGET))
        if iv is not None:
            ops.append(Op(label, "interval", iv, {"partial": _umdp_partial(u)}))
    return ops


def solve_structure(inp: dict) -> list[Op]:
    ops = []
    for big in inp["bigs"]:
        half = big.dim // 2
        w = _attempt(ops, f"bisim{big.dim}", lambda big=big: wm.largest_bisimulation(big))
        if w is not None:
            ops.append(Op(f"bisim{big.dim}", "dim", w.dim, {"expected": half}))
        m = _attempt(ops, f"minimize{big.dim}", lambda big=big: wm.minimize(big))
        if m is None:
            continue
        ops.append(Op(f"minimize{big.dim}", "dim", m.dim, {"expected": half}))
        if half in STRUCT_DISTANCE_HALF_DIMS:
            label = f"distance{big.dim + m.dim}"
            iv = _attempt(ops, label, lambda big=big, m=m: wm.distance(big, m, STRUCT_GAMMA))
            if iv is not None:
                ops.append(Op(label, "interval", iv,
                              {"partial": _distance_partial(big, m, STRUCT_GAMMA), "equivalent": True}))

    for i, mats in enumerate(inp["jsr_pairs"]):
        b = _attempt(ops, f"jsr{i}", lambda mats=mats: wm.jsr_bounds(mats, JSR_DEPTH))
        if b is not None:
            ops.append(Op(f"jsr{i}", "jsr", b, {"mats": mats}))

    g = _attempt(ops, "admissible_gamma", lambda: wm.admissible_gamma_bound(inp["gamma_wfa"]))
    if g is not None:
        ops.append(Op("admissible_gamma", "gamma_bound", g, {"wfa": inp["gamma_wfa"]}))

    target, words, noise = inp["target"], inp["words"], inp["noise"]
    block = _attempt(ops, "hankel", lambda: wm.hankel_from_wfa(target, words, words))
    if block is not None:
        ops.append(Op("hankel", "hankel", block, {"target": target}))
        learned = _attempt(ops, "learn", lambda: wm.spectral_learn(block, target.dim))
        if learned is not None:
            ops.append(Op("learn", "learned", learned, {"target": target, "words": words}))

        def learn_noisy():
            noisy = wm.HankelBlock(
                alphabet=block.alphabet, prefixes=block.prefixes, suffixes=block.suffixes,
                h=block.h + noise["h"],
                hsig={s: m + noise["hsig"][s] for s, m in block.hsig.items()},
                hp=block.hp + noise["hp"], hs=block.hs + noise["hs"],
            )
            return wm.spectral_learn(noisy, target.dim)

        noisy_learned = _attempt(ops, "distance.learned", learn_noisy)
        if noisy_learned is not None:
            iv = _attempt(ops, "distance.learned",
                          lambda: wm.distance(target, noisy_learned, STRUCT_GAMMA))
            if iv is not None:
                ops.append(Op("distance.learned", "interval", iv,
                              {"partial": _distance_partial(target, noisy_learned, STRUCT_GAMMA)}))

    rows = _attempt(ops, "perturb", lambda: wm.perturbation_experiment(
        target, words, words, PERTURB_SCALES, STRUCT_GAMMA, EPS, seed=0))
    for scale, _, lower, upper, _, status in rows or ():
        ops.append(Op(f"perturb{scale:g}", "row", (lower, upper), {"status": status}))
    return ops


SETUP = {"bnb-corpus": setup_bnb, "umdp-budget": setup_umdp, "structure": setup_structure}
SOLVE = {"bnb-corpus": solve_bnb, "umdp-budget": solve_umdp, "structure": solve_structure}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


def _overlaps(lower: float, upper: float, ref) -> bool:
    slack = 1e-12 + REL_TOL * max(abs(ref[0]), abs(ref[1]))
    return lower <= ref[1] + slack and ref[0] <= upper + slack


def bracket(op: Op):
    """The ``[lower, upper]`` an op certifies, or None for ops that are not brackets."""
    if op.kind in ("interval", "jsr"):
        return [op.value.lower, op.value.upper]
    if op.kind == "row":
        return list(op.value)
    return None


def check(op: Op, reference: dict | None) -> str | None:
    """None when the op's output is correct, else what is wrong with it."""
    if op.kind == "error":
        return op.value
    ref = None if reference is None else reference.get(op.label)
    br = bracket(op)
    if br is not None:
        lower, upper = br
        if not (math.isfinite(lower) and math.isfinite(upper) and lower <= upper):
            return f"invalid interval [{lower!r}, {upper!r}]"
        if reference is not None and ref is None:
            return "no reference interval stored for this label"
        if ref is not None and not _overlaps(lower, upper, ref):
            return f"[{lower!r}, {upper!r}] is disjoint from the reference {ref!r}"
    if op.kind == "interval":
        iv = op.value
        got = op.context["partial"](iv.witness_prefix)
        if not _close(got, iv.lower):
            return f"witness {iv.witness_prefix!r} re-propagates to {got!r}, not lower {iv.lower!r}"
        if op.context.get("equivalent") and iv.upper > EPS:
            return f"equivalent pair has upper {iv.upper!r} > eps {EPS}"
    elif op.kind == "row":
        if op.context["status"] != "ok":
            return f"row status {op.context['status']!r}"
    elif op.kind == "dim":
        if op.value != op.context["expected"]:
            return f"dimension {op.value}, expected {op.context['expected']}"
    elif op.kind == "jsr":
        b = op.value
        if not b.witness:
            return None if b.lower == 0.0 else f"lower {b.lower!r} has no witness product"
        prod = np.eye(op.context["mats"][0].shape[0])
        for sym in b.witness:
            prod = op.context["mats"][int(sym)] @ prod
        rate = float(np.max(np.abs(np.linalg.eigvals(prod)))) ** (1.0 / len(b.witness))
        if not (_close(rate, b.lower) or (b.lower == b.upper and rate >= b.lower)):
            return f"witness {b.witness!r} gives rho^(1/t) = {rate!r}, not lower {b.lower!r}"
    elif op.kind == "gamma_bound":
        a = op.context["wfa"]
        rho = max(float(np.max(np.abs(np.linalg.eigvals(m)))) for m in a.trans.values())
        if not (op.value > 0 and op.value * rho <= 1.0 + REL_TOL):
            return f"admissible gamma {op.value!r} exceeds 1/rho(T_s) = {1.0 / rho!r}"
    elif op.kind == "hankel":
        block, target = op.value, op.context["target"]
        want = np.array([[wm.evaluate(target, p + s) for s in block.suffixes] for p in block.prefixes])
        if not np.allclose(block.h, want, rtol=REL_TOL, atol=REL_TOL * np.max(np.abs(want))):
            return "Hankel block differs from direct evaluations"
    elif op.kind == "learned":
        target, words = op.context["target"], op.context["words"]
        got = np.array([wm.evaluate(op.value, w) for w in words])
        want = np.array([wm.evaluate(target, w) for w in words])
        if not np.allclose(got, want, rtol=1e-7, atol=1e-7 * np.max(np.abs(want))):
            return "learned automaton does not reproduce the target on the basis words"
    return None


def counters(ops: list[Op]) -> dict:
    """Deterministic outcome of one repetition: must repeat bit for bit."""
    certified = [op for op in ops if op.kind in ("interval", "row")]
    widths = [bracket(op)[1] - bracket(op)[0] for op in certified]
    return {
        "bnb_nodes": sum(op.value.nodes_expanded for op in ops if op.kind == "interval"),
        "width_sum": math.fsum(widths),
        "certified": len(certified),
        "converged": sum(1 for w in widths if w <= EPS),
        "brackets": {op.label: bracket(op) for op in ops if bracket(op) is not None},
    }
