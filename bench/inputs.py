"""Generated inputs: the circuit family of cli-scaling.

Everything here is a function of a numpy Generator seeded from ``--seed``,
so the same seed gives the same inputs.  The program under test receives
only the generated circuit text.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GATE_NAMES = ("H", "X", "PHASE", "Z", "APHASE")
STATE_NAMES = ("F", "T", "FT", "FmT")
SHIPPED = ("toffoli.qc", "teleport.qc")


def wire_names(k: int) -> list[str]:
    return [f"w{i}" for i in range(k)]


def ghz(k: int) -> str:
    """H on the first wire, then a CX chain: (|0..0> + |1..1>)/sqrt(2)."""
    w = wire_names(k)
    lines = ["wires " + " ".join(w), f"gate H {w[0]}"]
    lines += [f"cgate X {w[i]} {w[i + 1]}" for i in range(k - 1)]
    return "\n".join(lines) + "\n"


def ladder(k: int) -> str:
    """H on every wire, each followed by a CX onto the next wire."""
    w = wire_names(k)
    lines = ["wires " + " ".join(w)]
    for i in range(k):
        lines.append(f"gate H {w[i]}")
        if i + 1 < k:
            lines.append(f"cgate X {w[i]} {w[i + 1]}")
    return "\n".join(lines) + "\n"


def random_circuit(rng: np.random.Generator, k: int, n_steps: int) -> str:
    """Random inits, then random gate/cgate/measure/discard steps."""
    w = wire_names(k)
    lines = ["wires " + " ".join(w)]
    free = list(w)
    while free:
        if len(free) >= 2 and rng.random() < 0.25:
            a, b = free[0], free[1]
            lines.append(f"init {a} {b} epr")
            free = free[2:]
        else:
            lines.append(f"init {free[0]} {STATE_NAMES[int(rng.integers(4))]}")
            free = free[1:]
    live = list(w)
    kinds = ["gate", "cgate", "measure", "discard"]
    weights = np.array([4.0, 4.0, 1.0, 1.0])
    for _ in range(n_steps):
        kind = kinds[int(rng.choice(len(kinds), p=weights / weights.sum()))]
        if kind in ("cgate", "discard") and len(live) < 2:
            kind = "gate"
        g = GATE_NAMES[int(rng.integers(len(GATE_NAMES)))]
        if kind == "gate":
            lines.append(f"gate {g} {live[int(rng.integers(len(live)))]}")
        elif kind == "cgate":
            i, j = rng.choice(len(live), size=2, replace=False)
            lines.append(f"cgate {g} {live[int(i)]} {live[int(j)]}")
        elif kind == "measure":
            lines.append(f"measure {live[int(rng.integers(len(live)))]}")
        else:
            lines.append(f"discard {live.pop(int(rng.integers(len(live))))}")
    return "\n".join(lines) + "\n"


def shipped(root: Path, name: str) -> str:
    return (root / "src" / "qarrow" / "data" / name).read_text(encoding="utf-8")

