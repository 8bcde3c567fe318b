"""Reference simulator for the qarrow circuit format, written apart from qarrow.

It uses numpy only and imports nothing from ``qarrow``: its own gate and
state tables, its own parser, and a density over k wires held as a rank-2k
tensor.  Axes 0..k-1 are the row (ket) wires and axes k..2k-1 the column
(bra) wires, each of size 2 with index 0 = F and 1 = T.  Reshaping that
tensor in C order gives the same row-major basis order qarrow uses (leftmost
wire varies slowest), so the two can be compared entry by entry.

A gate is U.rho.U^dagger contracted on its wires, ``measure`` zeroes the
off-diagonal entries of one wire, and ``discard`` traces one index pair away.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_R = 1.0 / np.sqrt(2.0)

# Column convention: GATES[g][out, in].
GATES = {
    "H": np.array([[_R, _R], [_R, -_R]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "PHASE": np.diag([1, 1j]),
    "Z": np.diag([1, -1]).astype(complex),
    "APHASE": np.diag([1, -1j]),
}
STATES = {
    "F": np.array([1, 0], dtype=complex),
    "T": np.array([0, 1], dtype=complex),
    "FT": np.array([_R, _R], dtype=complex),
    "FmT": np.array([_R, -_R], dtype=complex),
}
EPR = np.array([[_R, 0], [0, _R]], dtype=complex)  # amplitudes over (w1, w2)


@dataclass(frozen=True)
class Circuit:
    wires: tuple[str, ...]
    inits: tuple[tuple[tuple[str, ...], str], ...]  # (wires, state name or "epr")
    steps: tuple[tuple[str, str, tuple[str, ...]], ...]  # (kind, gate or "", wires)


def parse(text: str) -> Circuit:
    """Parse the directive subset the benchmark feeds to qarrow (valid files only)."""
    wires: tuple[str, ...] = ()
    inits: list = []
    steps: list = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, args = tokens[0], tokens[1:]
        if head == "wires":
            wires = tuple(args)
        elif head == "init" and len(args) == 3:
            inits.append(((args[0], args[1]), "epr"))
        elif head == "init":
            inits.append(((args[0],), args[1]))
        elif head == "gate":
            steps.append(("gate", args[0], (args[1],)))
        elif head == "cgate":
            steps.append(("cgate", args[0], (args[1], args[2])))
        elif head in ("measure", "discard"):
            steps.append((head, "", (args[0],)))
        else:
            raise ValueError(f"unknown directive {head!r}")
    if not wires:
        raise ValueError("missing 'wires' directive")
    return Circuit(wires, tuple(inits), tuple(steps))


def initial_ket(c: Circuit) -> np.ndarray:
    """Amplitude tensor of shape (2,)*k built from the init directives."""
    k = len(c.wires)
    slot = {w: i for i, w in enumerate(c.wires)}
    factors = []
    seen = set()
    for ws, state in c.inits:
        factors.append(([slot[w] for w in ws], EPR if state == "epr" else STATES[state]))
        seen.update(ws)
    for w in c.wires:
        if w not in seen:
            factors.append(([slot[w]], STATES["F"]))
    psi = np.zeros((2,) * k, dtype=complex)
    for idx in itertools.product((0, 1), repeat=k):
        amp = 1.0 + 0j
        for axes, table in factors:
            amp *= table[tuple(idx[a] for a in axes)]
        psi[idx] = amp
    return psi


def density_of_ket(psi: np.ndarray) -> np.ndarray:
    """Rank-2k density tensor |psi><psi| from a rank-k amplitude tensor."""
    return np.multiply.outer(psi, psi.conj())


def _controlled(u: np.ndarray) -> np.ndarray:
    cu = np.eye(4, dtype=complex)
    cu[2:, 2:] = u
    return cu


def apply_unitary(rho: np.ndarray, u: np.ndarray, axes: list[int]) -> np.ndarray:
    """U.rho.U^dagger with U (2^m x 2^m, column convention) on the given wires."""
    k = rho.ndim // 2
    m = len(axes)
    ut = u.reshape((2,) * (2 * m))
    in_axes = list(range(m, 2 * m))
    rho = np.moveaxis(np.tensordot(ut, rho, axes=(in_axes, axes)), list(range(m)), axes)
    col = [k + a for a in axes]
    rho = np.moveaxis(np.tensordot(ut.conj(), rho, axes=(in_axes, col)), list(range(m)), col)
    return rho


def measure(rho: np.ndarray, axis: int) -> np.ndarray:
    k = rho.ndim // 2
    shape = [1] * rho.ndim
    shape[axis] = 2
    shape[k + axis] = 2
    return rho * np.eye(2).reshape(shape)


def discard(rho: np.ndarray, axis: int) -> np.ndarray:
    k = rho.ndim // 2
    return np.trace(rho, axis1=axis, axis2=k + axis)


def run(c: Circuit, rho: np.ndarray | None = None) -> tuple[tuple[str, ...], np.ndarray]:
    """Final (live wires, density matrix); ``rho`` defaults to the init state."""
    if rho is None:
        rho = density_of_ket(initial_ket(c))
    live = list(c.wires)
    for kind, g, ws in c.steps:
        axes = [live.index(w) for w in ws]
        if kind == "gate":
            rho = apply_unitary(rho, GATES[g], axes)
        elif kind == "cgate":
            rho = apply_unitary(rho, _controlled(GATES[g]), axes)
        elif kind == "measure":
            rho = measure(rho, axes[0])
        else:
            rho = discard(rho, axes[0])
            live.remove(ws[0])
    n = 2 ** len(live)
    return tuple(live), rho.reshape(n, n)


def labels(k: int) -> list[str]:
    """Basis label texts in row-major order, as qarrow prints them."""
    if k == 1:
        return ["F", "T"]
    return ["(" + ",".join("FT"[b] for b in idx) + ")" for idx in itertools.product((0, 1), repeat=k)]
