"""The two workloads: cli-scaling and laws.

A workload is built in three set-up steps, all inside the timed set-up:
``prepare`` makes the inputs and the reference answers without qarrow,
``build`` does the one-time qarrow work (traced in a traced run), and
``warm`` runs each kind of operation once, untimed.  ``ops`` then gives the
list of operations that make one round; every round runs the same list.

Each :class:`Op` has a tier, used for the latency metrics: ``small``,
``mid`` or ``large`` input, or ``None`` for an operation outside the tiers
(the seeded random circuits and the 10-wire circuit of cli-scaling).
Operations call qarrow through module attributes looked up at call time, so
an installed tracer sees every call.
"""

from __future__ import annotations

import importlib
import io
import json
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import inputs
import refsim

# How the CLI is invoked: the package has no __main__ and need not be installed.
CLI_SNIPPET = "import sys; from qarrow.cli import main; raise SystemExit(main(sys.argv[1:]))"
CLI_TIMEOUT_S = 170


class Failed(Exception):
    """The program did not produce a result for this operation."""


@dataclass
class Op:
    name: str
    tier: str | None
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    items: Callable[[Any], int] = lambda result: 1  # work units in a checked result


def qarrow_module(name: str):
    return importlib.import_module(f"qarrow.{name}")


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _tier(k: int) -> str | None:
    if k <= 3:
        return "small"
    return {4: "mid", 5: "large"}.get(k)


class CliScaling:
    """``qarrow run --format json`` on a circuit family of 1 to 5 wires, plus 10."""

    name = "cli-scaling"
    uses_qarrow_in_process = False

    def __init__(self, root: Path, work: Path, seed: int, env: dict, in_process: bool):
        self.root, self.work, self.seed, self.env = root, work, seed, env
        self.in_process = in_process
        self.cases: list[tuple[str, str, str | None]] = []  # (name, path, tier)
        self.expected: dict[str, tuple[list[str], np.ndarray]] = {}

    def prepare(self) -> list[str]:
        rng = np.random.default_rng([self.seed, 1])
        # (name, text, tier).  The random circuits' size depends on the seed,
        # so they are checked and counted but kept out of the latency tiers.
        texts = [(f"ghz{k}", inputs.ghz(k), _tier(k)) for k in range(1, 6)]
        texts += [(f"ladder{k}", inputs.ladder(k), _tier(k)) for k in range(2, 5)]
        texts += [(f"random{k}-{i}", inputs.random_circuit(rng, k, int(rng.integers(8, 13))), None)
                  for k in range(1, 5) for i in range(2)]
        texts += [(name[:-3], inputs.shipped(self.root, name), "small") for name in inputs.SHIPPED]
        texts.append(("ghz10", inputs.ghz(10), None))
        self.work.mkdir(parents=True, exist_ok=True)
        self.cases = []
        for name, text, tier in texts:
            path = self.work / f"{name}.qc"
            path.write_text(text, encoding="utf-8")
            self.cases.append((name, str(path.relative_to(self.root)), tier))
            live, rho = refsim.run(refsim.parse(text))
            self.expected[name] = (refsim.labels(len(live)), rho)
        return _hand_checks(self.expected)

    def build(self) -> None:
        if self.in_process:
            qarrow_module("cli")

    def warm(self) -> None:
        name, path, _ = self.cases[0]
        self._run(path)

    def _run(self, path: str) -> dict:
        argv = ["run", path, "--format", "json"]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            code = qarrow_module("cli").main(argv, out=out, err=err)
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-c", CLI_SNIPPET, *argv], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if code != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            raise Failed(f"exit {code}: {last[0][:160]}")
        return json.loads(stdout)

    def ops(self) -> list[Op]:
        def op(name: str, path: str, tier: str | None) -> Op:
            labels, want = self.expected[name]
            return Op(name, tier, lambda: self._run(path),
                      lambda payload: checks.cli_json_problems(payload, labels, want))

        return [op(*case) for case in self.cases]

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN)


def _hand_checks(expected: dict) -> list[str]:
    """The shipped circuits' hand-derived answers, checked on the reference."""
    problems = []
    ttt = np.zeros((8, 8))
    ttt[7, 7] = 1.0  # |T,T,T><T,T,T|
    if not np.allclose(expected["toffoli"][1], ttt, atol=checks.TOL):
        problems.append("reference toffoli.qc does not map |T,T,F> to |T,T,T>")
    plus = np.full((2, 2), 0.5)
    if not np.allclose(expected["teleport"][1], plus, atol=checks.TOL):
        problems.append("reference teleport.qc does not leave qFT on eprR")
    return problems


class Laws:
    """The twelve law suites over several seeds, the mutation fixtures, and the
    catalog circuits checked against independently built matrices."""

    name = "laws"
    uses_qarrow_in_process = True
    SEEDS = 6
    # Qubits teleported by one teleport check.  One teleport takes about
    # 3 ms, short enough that a stray pause of a few ms on the shared host
    # doubles it.  A batch of 64 lasts about as long as one law-suite run,
    # whose timings hold steady, and keeps such pauses a small part of it.
    TELEPORTS = 64

    def __init__(self, root: Path, work: Path, seed: int, env: dict, in_process: bool = True):
        rng = np.random.default_rng([seed, 3])
        self.seeds = [int(s) for s in rng.integers(0, 2 ** 63, size=self.SEEDS)]
        self.qubits = rng.normal(size=(self.TELEPORTS, 2)) + 1j * rng.normal(size=(self.TELEPORTS, 2))
        self.qubits /= np.linalg.norm(self.qubits, axis=1, keepdims=True)
        self.toffoli_channel: np.ndarray | None = None

    def prepare(self) -> list[str]:
        # Row convention (row a is the image of a): the Toffoli permutation
        # lifted to densities is kron(P, P).
        p = np.zeros((8, 8))
        for a in range(8):
            p[a, a ^ 1 if a >= 6 else a] = 1.0
        self.toffoli_channel = np.kron(p, p)
        return []

    def build(self) -> None:
        qarrow_module("laws")

    def warm(self) -> None:
        for op in self.ops()[self.SEEDS - 1:]:
            op.run()

    def ops(self) -> list[Op]:
        laws = qarrow_module("laws")

        def suite(seed: int) -> Op:
            return Op(f"run_all[{seed}]", "mid", lambda: laws.run_all(seed=seed),
                      checks.law_problems, law_cases)

        def fixture(name: str, run: Callable[[], list]) -> Op:
            return Op(name, "mid", run, lambda reports: checks.fixture_problems(name, reports),
                      law_cases)

        seed0 = self.seeds[0]
        ops = [suite(s) for s in self.seeds]
        ops.append(fixture("skipping_bind", lambda: laws.check_monad_laws(
            laws.SeededGenerator(seed0), bind_fn=laws.skipping_bind)))
        ops.append(fixture("first_without_dual", lambda: laws.check_arrow_laws(
            laws.SeededGenerator(seed0), first_fn=laws.first_without_dual)))
        ops.append(Op("toffoli", "large", self._toffoli, self._toffoli_problems))
        ops.append(Op("teleport", "small", self._teleport, self._teleport_problems))
        return ops

    def _toffoli(self):
        circuits, superop = qarrow_module("circuits"), qarrow_module("superop")
        built = circuits.toffoli_super()
        return built, superop.extensional_equal(built, superop.lin2super(circuits.toffoli_lin()),
                                                checks.TOL)

    def _toffoli_problems(self, result) -> list[str]:
        built, report = result
        problems = [] if report.equal else [f"toffoli_super != lin2super(toffoli_lin()): {report}"]
        diff = float(np.max(np.abs(built.matrix - self.toffoli_channel)))
        if diff > checks.TOL:
            problems.append(f"toffoli_super differs from the Toffoli permutation by {diff:.3e}")
        return problems

    def _teleport(self) -> list:
        circuits, vector, basis = (qarrow_module(m) for m in ("circuits", "vector", "basis"))
        return [circuits.teleport().apply(circuits.prepare_teleport_input(
                    vector.StateVector(basis.bool_basis(), qubit)))
                for qubit in self.qubits]

    def _teleport_problems(self, outs: list) -> list[str]:
        return [f"qubit {i}: {p}" for i, (out, qubit) in enumerate(zip(outs, self.qubits))
                for p in checks.density_problems(out.matrix, np.outer(qubit, qubit.conj()))]

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)


def law_cases(reports) -> int:
    return sum(r.cases for r in reports)


WORKLOADS = {w.name: w for w in (CliScaling, Laws)}
