#!/usr/bin/env python3
"""qarrow benchmark: one closed-loop client, two workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload cli-scaling --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
operations with the layer tracer installed on every other round and prints
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the environment and a readable summary.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# One client, and BLAS limited to the cores this process may use; set before
# numpy is imported here and passed on to every qarrow subprocess.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import ctypes
import importlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import selftest
import tracer
import workloads

SETUP_REPS = 5
TIERS = ("small", "mid", "large")
TIER_INPUTS = {
    "cli-scaling": {"small": "GHZ-1..3, ladder-2..3, toffoli.qc, teleport.qc",
                    "mid": "GHZ-4, ladder-4", "large": "GHZ-5"},
    "laws": {"small": "teleport catalog check of 64 qubits", "mid": "law suite runs",
             "large": "toffoli catalog check"},
}
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "latency_s.small": "s",
              "latency_s.mid": "s", "latency_s.large": "s", "peak_rss_mb": "MB"}
SIZED_METRICS = {
    f"superop.{prim}_s.n{n}": f"superop.{prim}_n{n}"
    for prim, sizes in tracer.SIZED.items() for n in sizes
}
TIMED_METRICS = {
    "textcircuit.parse_s": "textcircuit.parse",
    "textcircuit.initial_density_s": "textcircuit.initial_density",
    "density.to_json_dict_s": "density.to_json_dict",
    "textcircuit.route_s": "textcircuit.route",
    "superop.compose_s": "superop.compose",
    "superop.apply_s": "superop.apply",
    "basis.product_s": "basis.product",
    "vector.bind_s": "vector.bind",
    "linear.controlled_s": "linear.controlled",
    "laws.monad_s": "laws.monad",
    "laws.arrow_s": "laws.arrow",
    **SIZED_METRICS,
}
COUNT_METRICS = ("superop.compose_calls", "textcircuit.stages", "textcircuit.identity_stages")


def environment(cli_argv: list[str]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            lib = next(line.split()[-1] for line in maps if "openblas" in line.lower())
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        get.restype = ctypes.c_int
        threads = get()
    except (OSError, StopIteration, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC,
        "cli": cli_argv,
    }


def p90(samples: list[float]) -> float:
    """90th percentile, within the range of the samples."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def tail(samples: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it (from 40 on), and n."""
    n = len(samples)
    if not n:
        return "n=0"
    text = f"median {statistics.median(samples):.6g} s"
    if n >= 40:
        ordered = sorted(samples)
        q = max(q for q in range(50, 100) if n - math.ceil(q * n / 100) >= 10)
        text += f"  p{q} {ordered[math.ceil(q * n / 100) - 1]:.6g} s"
    return text + f"  n={n}"


class Loop:
    """Closed loop: each operation starts when the previous one has finished."""

    def __init__(self, ops: list) -> None:
        self.ops = ops
        self.latency = {tier: [] for tier in TIERS}
        self.by_op: dict[str, list[float]] = {}  # latencies of each operation
        self.items: dict[str, float] = {}  # work units in each operation's checked result
        self.rates: list[float] = []  # checked items per busy second, one per untraced round
        self.busy = {False: 0.0, True: 0.0}
        self.rounds = {False: 0, True: 0}
        self.attempted = self.failed = 0
        self.failures: dict[str, str] = {}
        self.problems: list[str] = []

    def round(self, traced: bool) -> None:
        busy = items = 0.0
        for op in self.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            dt = time.perf_counter() - t0
            busy += dt
            self.by_op.setdefault(op.name, []).append(dt)
            if isinstance(result, Exception):
                self.failed += 1
                self.failures[op.name] = f"{type(result).__name__}: {result}"[:200]
                continue
            if op.tier:
                self.latency[op.tier].append(dt)
            problems = op.check(result)
            if problems:
                self.problems += [f"{op.name}: {p}" for p in problems[:3]]
            else:
                self.items[op.name] = op.items(result)
                items += self.items[op.name]
        self.busy[traced] += busy
        self.rounds[traced] += 1
        if not traced:
            self.rates.append(items / busy)

    def tier_latency(self, tier: str) -> float:
        """Mean over the tier's operations of each one's 90th-percentile latency.

        A statistic over the pooled samples would jump between operations of
        different cost when a tier holds several; this does not.  The 90th
        percentile rather than the median: the shared host's speed switches
        between levels up to 1.8 times apart, for seconds to minutes at a
        time, and how much of a run falls at each level moves the median.
        The slow level turns up in every run, so a high percentile holds.
        """
        names = [op.name for op in self.ops if op.tier == tier and op.name in self.by_op]
        return statistics.fmean(p90(self.by_op[name]) for name in names)

    def items_per_s(self) -> float:
        """Checked items of one round over the round's time, with every
        operation, failed ones too, taking its 90th-percentile latency."""
        return sum(self.items.values()) / sum(p90(t) for t in self.by_op.values())


def run_workload(args, root: Path) -> dict:
    cls = workloads.WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cli_argv = [sys.executable, "-c", workloads.CLI_SNIPPET, "run", "<file>", "--format", "json"]
    print("env " + json.dumps(environment(cli_argv)))
    sys.path.insert(0, str(root / "src"))
    trace = tracer.Tracer() if args.trace else None
    try:
        import_s = 0.0
        if cls.uses_qarrow_in_process:
            t0 = time.perf_counter()
            importlib.import_module("qarrow")
            import_s = time.perf_counter() - t0
        setups = []
        for _ in range(1 if trace else SETUP_REPS):
            t0 = time.perf_counter()
            w = cls(root, work, args.seed, env, in_process=bool(trace))
            problems = w.prepare()
            if trace:
                trace.install()
            try:
                w.build()
            finally:
                if trace:
                    trace.uninstall()
            w.warm()
            setups.append(time.perf_counter() - t0)
        setup_counts = trace.counts() if trace else {}
        if trace and w.name == "cli-scaling":
            import_times = []
            for _ in range(5):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", "import qarrow.cli"], cwd=root, env=env,
                               check=True, timeout=workloads.CLI_TIMEOUT_S)
                import_times.append(time.perf_counter() - t0)
            trace.record("cli.import", statistics.median(import_times))

        loop = Loop(w.ops())
        start = time.perf_counter()
        while True:
            traced = bool(trace) and loop.rounds[False] > loop.rounds[True]
            if traced:
                trace.install()
            try:
                loop.round(traced)
            finally:
                if traced:
                    trace.uninstall()
            # Stop at the round boundary nearest to --seconds, so that a run
            # with long rounds does not overrun by up to a whole round.
            elapsed = time.perf_counter() - start
            per_round = elapsed / (loop.rounds[False] + loop.rounds[True])
            if elapsed + per_round / 2 >= args.seconds and (
                    not trace or loop.rounds[False] == loop.rounds[True]):
                break
        peak_rss = w.peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it, or it was never made
            pass

    problems += loop.problems
    rounds = loop.rounds[False] + loop.rounds[True]
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"ops/round {len(loop.ops)}  attempted {loop.attempted}  failed {loop.failed}")
    for name, why in sorted(loop.failures.items()):
        print(f"  failed {name}: {why}")
    for p in problems[:20]:
        print(f"  INCORRECT {p}")

    if trace:
        metrics = layer_metrics(trace, setup_counts, loop)
    else:
        for tier in TIERS:
            print(f"  latency {tier:5s} ({TIER_INPUTS[w.name][tier]}): {tail(loop.latency[tier])}")
        print(f"  setup runs: {', '.join(f'{s:.4f}' for s in setups)} s; import {import_s:.4f} s")
        print(f"  items per second by round: {', '.join(f'{r:.5g}' for r in loop.rates[:12])}")
        values = {
            "setup_s": import_s + statistics.median(setups),
            "items_per_s": loop.items_per_s(),
            **{f"latency_s.{tier}": loop.tier_latency(tier) for tier in TIERS},
            "peak_rss_mb": peak_rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": metrics}


def layer_metrics(trace: tracer.Tracer, setup_counts: dict, loop: Loop) -> dict:
    """Per-layer metrics: mean seconds per call, and counts per set-up plus one round."""
    metrics = {name: {"value": trace.mean_seconds(key), "unit": "s"}
               for name, key in TIMED_METRICS.items()}
    metrics["cli.import_s"] = {"value": trace.mean_seconds("cli.import"), "unit": "s"}
    end = trace.counts()
    per_round = {k: setup_counts[k] + (end[k] - setup_counts[k]) / loop.rounds[True] for k in end}
    for name in COUNT_METRICS:
        metrics[name] = {"value": per_round[name], "unit": "count"}
    stages = per_round["textcircuit.stages"]
    useful = (stages - per_round["textcircuit.identity_stages"]) / stages if stages else 0.0
    metrics["textcircuit.useful_stage_ratio"] = {"value": useful, "unit": "ratio"}
    metrics["superop.matrix_bytes_max"] = {"value": trace.matrix_bytes_max, "unit": "bytes"}
    untraced = loop.busy[False] / loop.rounds[False]
    traced = loop.busy[True] / loop.rounds[True]
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1.0), "unit": "%"}
    print(f"  stages {stages:g} (base of useful_stage_ratio); round {untraced:.4f} s untraced, "
          f"{traced:.4f} s traced; matrix_bytes_max is computed from matrix shapes")
    return metrics


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "qarrow" / "__init__.py").is_file():
        print("error: run from the qarrow repository root (src/qarrow not found)", file=sys.stderr)
        return 2
    found = selftest.problems(root)
    if found:
        print("error: benchmark self-test failed: " + "; ".join(found), file=sys.stderr)
        return 1
    result = run_all(args) if args.workload == "all" else run_workload(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
