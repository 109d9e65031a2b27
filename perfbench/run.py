#!/usr/bin/env python3
"""wfametrics benchmark: time and cost to a certified interval.

Run from the repository root::

    python3 perfbench/run.py                       # every workload, tracing off
    python3 perfbench/run.py --workload bnb-corpus --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --trace 1             # per-layer figures instead

One workload runs in one process, so its ``ru_maxrss`` is its own peak.  With
no ``--workload`` (or ``--workload all``) each workload runs in a fresh child
process and a table of every metric is printed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics declared in ``BENCHMARK.json`` (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``).  ``--out FILE`` also writes the full
record, machine description included.  See ``perfbench/README.md``.
"""

import os

# Pinned before numpy is imported here or in any child process.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("bnb-corpus", "umdp-budget", "structure")
AFFINITY = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
DEFAULT_SEED = 7

SETUP_REPS = 5          # setup_s is the median of this many set-ups
CLI_SHARE = 0.45        # share of the measured time spent on CLI subprocess calls
CLI_CALLS = 48          # CLI calls in a run of run_seconds: p75 then has 12 samples beyond it
MIN_CLI_CALLS = 4
CHILD_TIMEOUT_S = 180   # a single workload run ends well within this

IMPORT_PROBE = "import time; t = time.perf_counter(); import wfametrics; print(time.perf_counter() - t)"

UNITS = {
    "setup_s": "s", "solve_s": "s", "cli_ms.p50": "ms", "cli_ms.p75": "ms", "peak_rss_mb": "MB",
    "bnb_nodes": "count", "width_sum": "value", "converged_frac": "ratio", "failed_frac": "ratio",
    "cli_ms.samples": "count", "solve.reps": "count", "solve.wall_s": "s", "cli.wall_ms.p50": "ms",
    "calibration_s": "s",
    "metric.seminorm_interval.share": "ratio", "metric.seminorm_interval.nodes": "count",
    "metric.nodes_per_s": "1/s", "metric.depth_explored": "count",
    "metric.compute_tail_params.calls": "count", "metric.cert.block_len": "count",
    "metric.cert.theta": "ratio", "metric.cert.chain_sum_G": "ratio", "metric.cert_ok_ratio": "ratio",
    "metric.rss_kb_per_node": "KB", "cert_bisim_linalg.share": "ratio",
    "bisim.kernel_dim": "count", "bisim.minimize.dim_out": "count",
    "linalg.spectral_norms.matrices": "count", "linalg.spectral_norms.bytes_in": "B-computed",
    "linalg.spectral_radii.matrices": "count", "jsr.products_formed": "count",
    "jsr.bracket_width": "value", "jsr.truncated": "count", "learn.rows_ok_ratio": "ratio",
    "cli.import_ms": "ms", "cli.main_ms": "ms", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}


def unit(name: str) -> str:
    return "s" if name.endswith(".self_s") else UNITS[name]


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def maxrss_kb() -> float:
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def normalised_median(timings) -> float:
    """Median of ``wall * factor`` over (wall, factor) pairs from :class:`clock.Clock`."""
    return statistics.median(wall * factor for wall, factor in timings)


def scaled_layers(layers: dict, factor: float) -> dict:
    """Per-layer figures of one traced repetition in the same normalised seconds as solve_s."""
    out = {key: value * factor if key.endswith(".self_s") else value for key, value in layers.items()}
    out["metric.nodes_per_s"] = layers["metric.nodes_per_s"] / factor
    return out


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": AFFINITY,
        "pinned_cpu": max(AFFINITY) if AFFINITY else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": THREAD_ENV,
        "platform": platform.platform(),
    }


class Ledger:
    """Counts attempted and failed operations; keeps the first failure messages."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {problem}")

    def check_ops(self, ops, workloads) -> None:
        for op in ops:
            try:
                problem = workloads.check(op, self.reference)
            except Exception as err:  # a check that cannot run counts as a failed output
                problem = f"check raised {type(err).__name__}: {err}"
            self.record(op.label, problem)


def probe_import() -> float:
    """Seconds a fresh interpreter spends in ``import wfametrics``."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def run_main_inprocess(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return buf.getvalue().encode("utf-8"), code


def run_cli(argv):
    out = subprocess.run([sys.executable, "-m", "wfametrics.cli", *argv], env=child_env(), cwd=ROOT,
                         capture_output=True, timeout=60)
    return out.stdout, out.returncode


def solve_once(clock, workloads, name, inputs, ledger, first):
    """One checked repetition of the workload's fixed work; returns (wall, factor)."""
    gc.collect()
    ops, wall, factor = clock.run(workloads.SOLVE[name], inputs)
    ledger.check_ops(ops, workloads)
    counters = workloads.counters(ops)
    if not first:
        first.append(counters)
    elif counters != first[0]:
        ledger.record("determinism", "deterministic counters differ between repetitions")
    return wall, factor


def cli_call(clock, expected, ledger):
    argv, want, code = expected
    (out, got), wall, factor = clock.run(run_cli, argv)
    problem = None
    if got != code:
        problem = f"exit {got}, expected {code}"
    elif out != want:
        problem = "stdout differs from in-process cli.main"
    ledger.record("cli " + argv[0], problem)
    return wall, factor


def run_one(args, declared) -> int:
    # One core for this process and every child, so the calibration in clock.py
    # runs on the core that ran the work it rescales.
    if AFFINITY:
        os.sched_setaffinity(0, {max(AFFINITY)})
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported first so the RSS baseline covers it)
    import wfametrics

    if Path(wfametrics.__file__).resolve().parent != (SRC / "wfametrics").resolve():
        print(f"error: imported wfametrics from {wfametrics.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from wfametrics import cli

    import spans
    import workloads
    from clock import Clock

    base_rss_kb = maxrss_kb()
    name, seed = args.workload, args.seed
    reference = None
    if not args.write_reference:
        reference = json.loads((HERE / "reference.json").read_text())[name]
    ledger = Ledger(reference)
    clock = Clock()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup, imports = [], []
        for _ in range(SETUP_REPS):
            imp = probe_import()
            inputs, wall, factor = clock.run(workloads.SETUP[name], seed, work)
            setup.append((imp + wall, factor))
            imports.append((imp, factor))

        expected, mains = [], []
        for argv, code in inputs["cli"]:
            (out, got), wall, factor = clock.run(run_main_inprocess, cli, argv)
            mains.append((wall, factor))
            ledger.record("cli.main " + argv[0], None if got == code else f"exit {got}, expected {code}")
            expected.append((argv, out, got))

        # One untimed repetition first, so the timed ones see filled caches and finished lazy set-up.
        first: list = []
        solve_once(clock, workloads, name, inputs, ledger, first)
        reps, clis, traced, layer_reps = [], [], [], []
        tracer = spans.Tracer() if args.trace else None
        trace_first: list = []
        # Without tracing, CLI_SHARE of the time goes to CLI calls, interleaved with the repetitions.
        lib_seconds = args.seconds if tracer else args.seconds * (1.0 - CLI_SHARE)
        cli_target = 0 if tracer else max(MIN_CLI_CALLS, round(CLI_CALLS * args.seconds / declared["run_seconds"]))
        elapsed = 0.0
        while elapsed < lib_seconds or not reps or (tracer and not traced) or len(clis) < cli_target:
            if tracer and len(traced) < len(reps):
                tracer.reset()
                with tracer:
                    wall, factor = solve_once(clock, workloads, name, inputs, ledger, first)
                traced.append((wall, factor))
                layer_reps.append(scaled_layers(tracer.layer_metrics(wall), factor))
                trace_counts = tracer.counters()
                if not trace_first:
                    trace_first.append(trace_counts)
                elif trace_counts != trace_first[0]:
                    ledger.record("determinism", "traced counters differ between repetitions")
            elif not tracer and reps and len(clis) < cli_target * min(1.0, elapsed / lib_seconds):
                clis.append(cli_call(clock, expected[len(clis) % len(expected)], ledger))
            else:
                reps.append(solve_once(clock, workloads, name, inputs, ledger, first))
            elapsed = sum(w for w, _ in reps + traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    counters = first[0]
    if args.write_reference:
        path = HERE / "reference.json"
        ref = json.loads(path.read_text()) if path.exists() else {}
        ref[name] = counters["brackets"]
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    peak_kb = maxrss_kb()
    metrics = {
        "setup_s": normalised_median(setup),
        "solve_s": normalised_median(reps),
        "peak_rss_mb": peak_kb / 1024.0,
        "bnb_nodes": counters["bnb_nodes"],
        "width_sum": counters["width_sum"],
        "converged_frac": counters["converged"] / counters["certified"] if counters["certified"] else 0.0,
        "failed_frac": ledger.failed / max(1, ledger.attempted),
        "solve.reps": len(reps),
        "solve.wall_s": statistics.median(w for w, _ in reps),
        "calibration_s": statistics.median(clock.calibrations),
    }
    if clis:
        ms = [1000.0 * w * f for w, f in clis]
        wall_ms = [1000.0 * w for w, _ in clis]
        metrics.update({"cli_ms.p50": percentile(ms, 50), "cli_ms.p75": percentile(ms, 75),
                        "cli_ms.samples": len(ms), "cli.wall_ms.p50": percentile(wall_ms, 50)})
    if tracer:
        layers = {k: statistics.median(rep[k] for rep in layer_reps) for k in layer_reps[0]}
        nodes_max = tracer.counts["metric.nodes_max_call"]
        layers["metric.rss_kb_per_node"] = (peak_kb - base_rss_kb) / nodes_max if nodes_max else 0.0
        layers["cli.import_ms"] = 1000.0 * normalised_median(imports)
        layers["cli.main_ms"] = 1000.0 * normalised_median(mains)
        untraced = normalised_median(reps)
        layers["trace.overhead_s"] = normalised_median(traced) - untraced
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / untraced
        metrics.update(layers)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in declared[section]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        print(f"error: declared metrics not produced: {missing}", file=sys.stderr)
        return 2

    record = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "failures": ledger.messages,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    for k, v in metrics.items():
        print(f"{name:12s} {k:40s} {v:>16.6g} {unit(k)}")
    for msg in ledger.messages:
        print(f"{name:12s} FAILED {msg}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": record["correct"], "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {k: record["metrics"][k] for k in wanted}}))
    return 0


def run_all(args) -> int:
    records, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("record ")]
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        records[name] = json.loads(lines[-1][len("record "):])
    if not records:
        return status or 1

    names = list(next(iter(records.values()))["metrics"])
    print(f"{'metric':40s} {'unit':>10s}" + "".join(f" {w:>14s}" for w in records))
    for k in names:
        cells = "".join(f" {records[w]['metrics'].get(k, {}).get('value', float('nan')):>14.6g}" for w in records)
        print(f"{k:40s} {unit(k):>10s}{cells}")
    for w, rec in records.items():
        for msg in rec["failures"]:
            print(f"FAILED {w}: {msg}")
    print("machine " + json.dumps(next(iter(records.values()))["machine"]))
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()) and status == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {f"{w}.{k}": v for w, r in records.items() for k, v in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON to this file")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's brackets as the reference intervals (use the default seed)")
    args = parser.parse_args(argv)

    if not (SRC / "wfametrics" / "__init__.py").is_file():
        print(f"error: no wfametrics sources under {SRC}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        print(f"error: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
