"""Worked circuits as library artifacts.

The three-wire doubly-controlled-not is built twice, as seven lines that
each place one gate ``on`` its own wires and carry the rest: once in the
vector monad, each basis element threaded through the steps with one
``bind`` per gate, and once as the paper's arrow block.  The two
constructions must agree, which the test suite checks against an
independently multiplied gate-matrix oracle.

Teleportation is split into the sender (entangle, measure, keep the two
classical bits) and the receiver (classically controlled corrections, then
discard the control bits); composing them is an identity channel on the
transported qubit.  ``copy`` and ``weaken`` are the two classical-function
lifts whose contrast shows which discards are physical: sharing is fine,
silently forgetting is not.

A circuit is wiring over shared parts: each catalog gate is lifted once
(:data:`LIFTED`, which the circuit-file router uses too), and the
measurement and partial-trace leaves of teleportation are built once.
Channels are immutable, so sharing a leaf is safe; every call still wires a
fresh top-level term, named by its last ``compose``; names are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

from .basis import bool_basis, product
from .density import DensityMatrix, pure_density
from . import linear
from .linear import LinearOp, adjoint, controlled, from_rows, gate
from .superop import Superoperator, arr, compose, first, lin2super, measure, on, trace_left
from .vector import StateVector, bind, named_state, unit


_B = bool_basis()
_B2 = product([_B, _B])
_B3 = product([_B, _B, _B])

# the circuit-file gates by name, each lifted once, plain and (prefixed C) controlled
GATES = {"H": gate("hadamard"), "X": gate("qnot"), "PHASE": gate("phase"), "Z": gate("z"),
         "APHASE": adjoint(gate("phase"))}
LIFTED = {**{n: lin2super(op) for n, op in GATES.items()},
          **{"C" + n: lin2super(controlled(op)) for n, op in GATES.items()}}
_MEASURE2 = measure(_B2)
_DROP_B2 = trace_left(product([_B2, _B2]))  # keep the two classical bits
_DROP_B2_B = trace_left(product([_B2, _B]))  # keep the corrected qubit


def toffoli_lin() -> LinearOp:
    """The 8x8 operator for wire order (top, middle, bottom): the vector-monad twin of
    :func:`toffoli_super`, each gate a step operator placed ``on`` its wires.

    A row binds the seven steps left to right, which by monad associativity,
    ``(v >>= f) >>= g = v >>= (λa. f a >>= g)``, equals the do-block that
    nests every gate in the previous one's continuation.
    """
    h = GATES["H"]
    cnot, cphase, caphase = (controlled(GATES[n]) for n in ("X", "PHASE", "APHASE"))
    steps = [
        linear.on(h, _B3, (2,)),
        linear.on(cphase, _B3, (1, 2)),
        linear.on(cnot, _B3, (0, 1)),
        linear.on(caphase, _B3, (1, 2)),
        linear.on(cnot, _B3, (0, 1)),
        linear.on(cphase, _B3, (0, 2)),
        linear.on(h, _B3, (2,)),
    ]
    return from_rows(lambda label: reduce(bind, steps, unit(_B3, label)), _B3, name="toffoli")


def toffoli_super() -> Superoperator:
    """The paper's arrow block for the circuit: one ``outs <- gate -< ins`` line per gate,
    acting ``on`` its wires of (top, middle, bottom) and carrying the other one."""
    had, cnot, cphase, caphase = (LIFTED[n] for n in ("H", "CX", "CPHASE", "CAPHASE"))
    s = on(had, _B3, (2,))
    s = s >> on(cphase, _B3, (1, 2))
    s = s >> on(cnot, _B3, (0, 1))
    s = s >> on(caphase, _B3, (1, 2))
    s = s >> on(cnot, _B3, (0, 1))
    s = s >> on(cphase, _B3, (0, 2))
    return compose(s, on(had, _B3, (2,)), "toffoli")


def alice() -> Superoperator:
    """Sender half of teleportation; wire order (eprL, q) in, (m1, m2) out.

    cnot with q as control, hadamard on q, measure the pair, discard the
    collapsed half.  The output is fully decohered: a diagonal density of
    the two classical bits.
    """
    b, bb = _B, _B2
    s = arr(lambda t: (t[1], t[0]), bb, bb, name="arr(swap)")
    s = s >> LIFTED["CX"]
    s = s >> first(LIFTED["H"], b)
    s = s >> _MEASURE2
    return compose(s, _DROP_B2, "alice")


def bob() -> Superoperator:
    """Receiver half; wire order (eprR, m1, m2) in, the corrected qubit out.

    cnot controlled by m2, controlled-z by m1, then discard both bits.
    """
    b, bb, b3 = _B, _B2, _B3
    s = arr(lambda t: ((t[2], t[0]), t[1]), b3, product([bb, b]))
    s = s >> first(LIFTED["CX"], b)
    s = s >> arr(lambda t: ((t[1], t[0][1]), t[0][0]), product([bb, b]), product([bb, b]))
    s = s >> first(LIFTED["CZ"], b)
    s = s >> arr(lambda t: ((t[0][0], t[1]), t[0][1]), product([bb, b]), product([bb, b]))
    return compose(s, _DROP_B2_B, "bob")


def teleport() -> Superoperator:
    """Identity channel on the third wire; wire order (eprL, eprR, q)."""
    b, bb, b3 = _B, _B2, _B3
    s = arr(lambda t: ((t[0], t[2]), t[1]), b3, product([bb, b]))
    s = s >> first(alice(), b)
    s = s >> arr(lambda t: (t[1], t[0][0], t[0][1]), product([bb, b]), b3)
    return compose(s, bob(), "teleport")


def prepare_teleport_input(q: StateVector) -> DensityMatrix:
    """Density of (entangled pair on wires 1,2) tensored with q on wire 3."""
    if q.basis != bool_basis():
        raise ValueError("teleport transports a single qubit")
    amps = (named_state("epr").amplitudes[:, None] * q.amplitudes).reshape(-1)
    return pure_density(StateVector._owning(_B3, amps))


def copy() -> Superoperator:
    """Share one wire onto two.  Copies classical data; entangles quantum data."""
    return arr(lambda x: (x, x), _B, _B2, name="copy")


def weaken() -> Superoperator:
    """Silently forget the left wire.  Not physically realizable; kept as the
    counterexample showing why discards must go through the partial trace."""
    return arr(lambda t: t[1], _B2, _B, name="weaken")


@dataclass(frozen=True)
class DemoCircuit:
    build: Callable[[], Superoperator]
    default_input: Callable[[], DensityMatrix]
    expected_output: Callable[[], DensityMatrix]


CATALOG: dict[str, DemoCircuit] = {
    # doubly-controlled not on (top, middle, bottom), input |T,T,F>
    "toffoli": DemoCircuit(
        build=toffoli_super,
        default_input=lambda: pure_density(unit(_B3, (True, True, False))),
        expected_output=lambda: pure_density(unit(_B3, (True, True, True))),
    ),
    # teleport the superposed qubit qFT over a shared entangled pair
    "teleport": DemoCircuit(
        build=teleport,
        default_input=lambda: prepare_teleport_input(named_state("qFT")),
        expected_output=lambda: pure_density(named_state("qFT")),
    ),
}
