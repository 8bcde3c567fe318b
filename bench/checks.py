"""Output checks.  Each returns a list of problems; an empty list means correct.

The checks compare against values computed by the benchmark itself (the
reference simulator, hand-derived states) and against properties every
output must have, using numpy only.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9

LAW_NAMES = (
    "monad/left-identity", "monad/right-identity", "monad/associativity",
    "arrow/left-identity", "arrow/right-identity", "arrow/associativity",
    "arrow/arr-composes", "arrow/first-arr", "arrow/first-composes",
    "arrow/first-exchange", "arrow/first-drop", "arrow/first-assoc",
)


def physical_problems(m: np.ndarray, tol: float = TOL) -> list[str]:
    """Hermitian, positive semidefinite and unit trace, each to ``tol``."""
    problems = []
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > tol:
        problems.append(f"not Hermitian (deviation {herm:.3e})")
    low = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
    if low < -tol:
        problems.append(f"not PSD (eigenvalue {low:.3e})")
    tr = abs(complex(np.trace(m)) - 1.0)
    if tr > tol:
        problems.append(f"trace off by {tr:.3e}")
    return problems


def density_problems(got: np.ndarray, want: np.ndarray, tol: float = TOL) -> list[str]:
    """``got`` equals the reference ``want`` to ``tol`` and is physical."""
    if got.shape != want.shape:
        return [f"shape {got.shape} != reference {want.shape}"]
    problems = []
    diff = float(np.max(np.abs(got - want)))
    if diff > tol:
        problems.append(f"differs from reference by {diff:.3e}")
    return problems + physical_problems(got, tol)


def cli_json_problems(payload: dict, labels: list[str], want: np.ndarray) -> list[str]:
    """A ``qarrow run --format json`` payload against the reference density."""
    if payload.get("basis") != labels:
        return [f"basis {payload.get('basis')} != reference {labels}"]
    got = np.array(payload["re"], dtype=float) + 1j * np.array(payload["im"], dtype=float)
    return density_problems(got, want)


def law_problems(reports) -> list[str]:
    """One ``run_all`` result: the twelve expected reports, all passing."""
    problems = []
    names = tuple(r.name for r in reports)
    if names != LAW_NAMES:
        problems.append(f"law reports {names} != expected {LAW_NAMES}")
    for r in reports:
        if not r.passed or r.cases < 1 or not r.max_residual <= r.tolerance:
            problems.append(f"{r.name} failed: {r.cases} cases, residual {r.max_residual:.3e}")
    return problems


def fixture_problems(fixture: str, reports) -> list[str]:
    """A suite run with a mutation fixture must fail at least one law."""
    if reports and all(r.passed for r in reports):
        return [f"mutation fixture {fixture} passed its suite"]
    return [] if reports else [f"mutation fixture {fixture} produced no reports"]
