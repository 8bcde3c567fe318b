"""Self-test of the benchmark at tiny sizes; run before every measurement.

It checks the reference simulator against hand-derived answers (GHZ-k, the
Toffoli truth table, teleportation delivering its input qubit) and shows
that each output check can fail: a density with one off-diagonal entry
flipped, an unphysical density, a failing law report and a mutation fixture
that passes are all rejected.

    python3 bench/selftest.py      # from the repository root; exit 0 when sound
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import inputs
import refsim


def _reference_problems(root: Path) -> list[str]:
    problems = []
    for k in range(1, 6):
        n = 2 ** k
        want = np.zeros((n, n))
        want[np.ix_([0, n - 1], [0, n - 1])] = 0.5
        live, got = refsim.run(refsim.parse(inputs.ghz(k)))
        if len(live) != k or not np.allclose(got, want, atol=1e-12):
            problems.append(f"reference GHZ-{k} is not (|0..0> + |1..1>)/sqrt(2)")

    toffoli = refsim.parse(inputs.shipped(root, "toffoli.qc"))
    for a, b, c in itertools.product((0, 1), repeat=3):
        ket = np.zeros((2, 2, 2), dtype=complex)
        ket[a, b, c] = 1.0
        _, got = refsim.run(toffoli, refsim.density_of_ket(ket))
        out = 4 * a + 2 * b + (c ^ (a & b))
        want = np.zeros((8, 8))
        want[out, out] = 1.0
        if not np.allclose(got, want, atol=1e-12):
            problems.append(f"reference Toffoli maps |{a}{b}{c}> wrongly")

    teleport = refsim.parse(inputs.shipped(root, "teleport.qc"))
    rng = np.random.default_rng(0)
    qubits = [refsim.STATES[s] for s in refsim.STATES]
    qubits.append(rng.normal(size=2) + 1j * rng.normal(size=2))
    for q in qubits:
        q = q / np.linalg.norm(q)
        ket = np.multiply.outer(refsim.EPR, q)  # wires (eprL, eprR, q)
        live, got = refsim.run(teleport, refsim.density_of_ket(ket))
        if live != ("eprR",) or not np.allclose(got, np.outer(q, q.conj()), atol=1e-12):
            problems.append(f"reference teleport does not deliver {np.round(q, 3)}")
    return problems


def _checker_problems() -> list[str]:
    """Each check must accept the right answer and reject a corrupted one."""
    problems = []
    _, ghz = refsim.run(refsim.parse(inputs.ghz(3)))
    labels = refsim.labels(3)

    def payload(m: np.ndarray, basis=labels) -> dict:
        return {"basis": basis, "re": m.real.tolist(), "im": m.imag.tolist()}

    flipped = ghz.copy()
    flipped[0, 7] = -flipped[0, 7]
    if checks.cli_json_problems(payload(ghz), labels, ghz):
        problems.append("checker rejects the reference GHZ-3 density")
    if not checks.cli_json_problems(payload(flipped), labels, ghz):
        problems.append("checker accepts GHZ-3 with one off-diagonal entry flipped")
    if not checks.cli_json_problems(payload(ghz, labels[::-1]), labels, ghz):
        problems.append("checker accepts a wrong basis labelling")
    for bad in (np.diag([1.5, -0.5]), np.diag([0.5, 0.25]), np.array([[0.5, 0.5], [0.0, 0.5]])):
        if not checks.physical_problems(bad):
            problems.append(f"physicality check accepts {bad.tolist()}")

    def report(name: str, passed: bool = True):
        return SimpleNamespace(name=name, passed=passed, cases=10,
                               max_residual=0.0 if passed else 1.0, tolerance=1e-9)

    good = [report(name) for name in checks.LAW_NAMES]
    bad = good[:5] + [report(checks.LAW_NAMES[5], passed=False)] + good[6:]
    if checks.law_problems(good):
        problems.append("law check rejects twelve passing reports")
    if not checks.law_problems(bad):
        problems.append("law check accepts a failing report")
    if not checks.law_problems(good[:-1]):
        problems.append("law check accepts a missing report")
    if not checks.fixture_problems("skipping_bind", good[:3]):
        problems.append("fixture check accepts a mutation fixture that passes")
    if checks.fixture_problems("skipping_bind", bad[3:6]):
        problems.append("fixture check rejects a mutation fixture that fails")
    return problems


def problems(root: Path) -> list[str]:
    return _reference_problems(root) + _checker_problems()


if __name__ == "__main__":
    found = problems(Path.cwd())
    for p in found:
        print(f"selftest: {p}")
    print("selftest: ok" if not found else f"selftest: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
