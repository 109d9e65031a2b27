"""Spans around the public functions of each wfametrics layer.

A :class:`Tracer` wraps every public function of the layer modules at every
name it is reachable under: the defining module, the package namespace and
each consuming module that imported it (``wfametrics.metric`` calls
``largest_bisimulation`` through its own module global, so that is where the
wrap has to sit).  Wrappers are installed only for the duration of a traced
repetition and removed afterwards, so untraced repetitions run the library
exactly as shipped.

Each call records its duration into a per-function aggregate; a stack of
open spans gives the child time, and a layer's self time is its duration
minus the time covered by its child spans.  Hooks read layer-specific counts
(nodes, certificates, products formed) from arguments and results at the
same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("core", "linalg", "bisim", "jsr", "metric", "learn", "umdp")
CONSUMERS = ("wfametrics", "wfametrics.cli") + tuple(f"wfametrics.{m}" for m in LAYERS)


class _Stat:
    __slots__ = ("calls", "errors", "self_s")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0


def chain_sum(gamma: float, params) -> float:
    """Closed form G = sum_{r<m} (gamma K)^r / (1 - (gamma theta)^m) from the metric docstring."""
    m, theta, big_k = params.block_len, params.theta, params.step_norm
    head = sum((gamma * big_k) ** r for r in range(m))
    return head / (1.0 - (gamma * theta) ** m)


def products_formed(k: int, depth: int, node_budget: int) -> int:
    """Products ``jsr_bounds`` forms: k per kept word per level, levels pruned to the budget."""
    width, total = 1, 0
    for t in range(1, depth + 1):
        width *= k
        total += width
        if width > node_budget and t < depth:
            width = node_budget
    return total


class Tracer:
    """Installable wrappers plus the aggregates of one traced repetition."""

    def __init__(self):
        owners = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"wfametrics.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    owners[obj] = f"{layer}.{name}"
        wrappers = {func: self._wrap(key, func) for func, key in owners.items()}
        self._patches = []
        for mod_name in CONSUMERS:
            mod = importlib.import_module(mod_name)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj, wrappers[obj]))
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.certs: list[tuple[int, float, float]] = []
        self._open: list[list[float]] = []

    def __enter__(self):
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, orig, _ in self._patches:
            setattr(mod, name, orig)
        return False

    def _wrap(self, key, func):
        hook = _HOOKS.get(key)
        sig = inspect.signature(func) if hook else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            child = [0.0]
            self._open.append(child)
            stat = self.stats[key]
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                dt = perf_counter() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dt
                stat.calls += 1
                stat.self_s += dt - child[0]
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def self_s(self, key: str) -> float:
        return self.stats[key].self_s if key in self.stats else 0.0

    def layer_metrics(self, solve_s: float) -> dict:
        """Per-layer figures of the repetition just traced (values only; units live in run.py)."""
        st = self.self_s
        c = self.counts
        nodes = c["metric.nodes"]
        bnb_self = st("metric.seminorm_interval")
        ctp = self.stats.get("metric.compute_tail_params", _Stat())
        certs = self.certs
        kernels = sum(st(k) for k in self.stats if k.startswith(("bisim.", "linalg.")))
        out = {
            "metric.seminorm_interval.self_s": bnb_self,
            "metric.seminorm_interval.share": bnb_self / solve_s if solve_s > 0 else 0.0,
            "metric.seminorm_interval.nodes": nodes,
            "metric.nodes_per_s": nodes / bnb_self if bnb_self > 0 else 0.0,
            "metric.depth_explored": c["metric.depth_max"],
            "metric.compute_tail_params.self_s": ctp.self_s,
            "metric.compute_tail_params.calls": ctp.calls,
            "metric.cert.block_len": _mean([b for b, _, _ in certs]),
            "metric.cert.theta": _mean([t for _, t, _ in certs]),
            "metric.cert.chain_sum_G": _mean([g for _, _, g in certs]),
            "metric.cert_ok_ratio": (ctp.calls - ctp.errors) / ctp.calls if ctp.calls else 0.0,
            "cert_bisim_linalg.share": (ctp.self_s + kernels) / solve_s if solve_s > 0 else 0.0,
            "bisim.largest_bisimulation.self_s": st("bisim.largest_bisimulation"),
            "bisim.minimize.self_s": st("bisim.minimize"),
            "bisim.reachable_subspace.self_s": st("bisim.reachable_subspace"),
            "bisim.kernel_dim": c["bisim.kernel_dim"],
            "bisim.minimize.dim_out": c["bisim.minimize.dim_out"],
            "linalg.spectral_norms.self_s": st("linalg.spectral_norms"),
            "linalg.spectral_norms.matrices": c["linalg.spectral_norms.matrices"],
            "linalg.spectral_norms.bytes_in": c["linalg.spectral_norms.bytes_in"],
            "linalg.spectral_radii.self_s": st("linalg.spectral_radii"),
            "linalg.spectral_radii.matrices": c["linalg.spectral_radii.matrices"],
            "linalg.null_basis.self_s": st("linalg.null_basis"),
            "linalg.orth_basis.self_s": st("linalg.orth_basis"),
            "jsr.jsr_bounds.self_s": st("jsr.jsr_bounds"),
            "jsr.products_formed": c["jsr.products_formed"],
            "jsr.bracket_width": c["jsr.bracket_width"],
            "jsr.truncated": c["jsr.truncated"],
            "learn.hankel_from_wfa.self_s": st("learn.hankel_from_wfa"),
            "learn.spectral_learn.self_s": st("learn.spectral_learn"),
            "learn.perturbation_experiment.self_s": st("learn.perturbation_experiment"),
            "learn.rows_ok_ratio": c["learn.rows_ok"] / c["learn.rows"] if c["learn.rows"] else 0.0,
            "umdp.umdp_to_wfa.self_s": st("umdp.umdp_to_wfa"),
            "umdp.umdp_sup_value_interval.self_s": st("umdp.umdp_sup_value_interval"),
            "core.difference.self_s": st("core.difference"),
        }
        return out

    def counters(self) -> dict:
        """The deterministic part of the trace: counts that must repeat bit for bit."""
        keys = ("metric.nodes", "metric.depth_max", "bisim.kernel_dim", "bisim.minimize.dim_out",
                "linalg.spectral_norms.matrices", "linalg.spectral_radii.matrices",
                "jsr.products_formed", "jsr.bracket_width", "jsr.truncated", "learn.rows", "learn.rows_ok")
        out = {k: self.counts[k] for k in keys}
        out["metric.certs"] = list(self.certs)
        out["calls"] = {k: (s.calls, s.errors) for k, s in sorted(self.stats.items())}
        return out


def _mean(values) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def _stack_size(mats) -> tuple[int, int]:
    shape = np.shape(mats)
    return math.prod(shape[:-2]), shape[-1]


def _on_tail_params(tr, args, params):
    tr.certs.append((params.block_len, params.theta, chain_sum(args["gamma"], params)))


def _on_seminorm(tr, args, iv):
    c = tr.counts
    c["metric.nodes"] += iv.nodes_expanded
    c["metric.nodes_max_call"] = max(c["metric.nodes_max_call"], iv.nodes_expanded)
    c["metric.depth_max"] = max(c["metric.depth_max"], iv.depth_explored)


def _on_bisim(tr, args, sub):
    tr.counts["bisim.kernel_dim"] += sub.dim


def _on_minimize(tr, args, wfa):
    tr.counts["bisim.minimize.dim_out"] += wfa.dim


def _on_norms(tr, args, result):
    count, n = _stack_size(args["mats"])
    tr.counts["linalg.spectral_norms.matrices"] += count
    tr.counts["linalg.spectral_norms.bytes_in"] += count * n * n * 8


def _on_radii(tr, args, result):
    tr.counts["linalg.spectral_radii.matrices"] += _stack_size(args["mats"])[0]


def _on_jsr(tr, args, bounds):
    c = tr.counts
    c["jsr.products_formed"] += products_formed(len(args["mats"]), args["depth"], args["node_budget"])
    c["jsr.bracket_width"] += bounds.upper - bounds.lower
    c["jsr.truncated"] += int(bounds.truncated)


def _on_perturbation(tr, args, rows):
    tr.counts["learn.rows"] += len(rows)
    tr.counts["learn.rows_ok"] += sum(1 for row in rows if row[-1] == "ok")


_HOOKS = {
    "metric.compute_tail_params": _on_tail_params,
    "metric.seminorm_interval": _on_seminorm,
    "bisim.largest_bisimulation": _on_bisim,
    "bisim.minimize": _on_minimize,
    "linalg.spectral_norms": _on_norms,
    "linalg.spectral_radii": _on_radii,
    "jsr.jsr_bounds": _on_jsr,
    "learn.perturbation_experiment": _on_perturbation,
}
