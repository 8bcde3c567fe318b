"""Worked circuits as library artifacts, each a :func:`proc` block.

:func:`proc` is the paper's ``proc`` notation over named qubit wires: a list
of ``outs <- op -< ins`` lines, each ``op`` a channel or a key of
:data:`LIFTED`, the one step table, which the circuit-file router reads too
(every gate, plain and controlled, lifted once, plus the one-wire
``measure`` and ``discard``).

The doubly-controlled-not is one table of (gate, wires) lines read twice: in
the vector monad, one ``bind`` per gate, and as the paper's arrow block.  The
two must agree, which the test suite checks against an independently
multiplied gate-matrix oracle.

Teleportation is the sender's lines (entangle, measure, keep the two
classical bits), then the receiver's (classically controlled corrections,
then discard the control bits): an identity channel on the transported
qubit.  ``copy`` and ``weaken`` show which discards are physical: sharing is
fine, silently forgetting is not, so :func:`proc` refuses outputs that
forget a live wire.  Channels are immutable, so sharing a step is safe;
every call wires a fresh top-level term, whose name is read-only.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter

from .basis import Basis, bool_basis, product
from .density import DensityMatrix, pure_density
from . import linear
from .linear import LinearOp, adjoint, controlled, from_rows, gate
from .superop import Superoperator, arr, compose, identity_arr, lin2super, measure, on, trace_left
from .vector import StateVector, bind, named_state, unit


_B = bool_basis()
_B2 = product([_B, _B])
_B3 = product([_B, _B, _B])
_UNIT = Basis([()])

# the circuit-file gates by name, plain and (prefixed C) controlled
GATES = {"H": gate("hadamard"), "X": gate("qnot"), "PHASE": gate("phase"), "Z": gate("z"),
         "APHASE": adjoint(gate("phase"))}
_LINEAR = {**GATES, **{"C" + n: controlled(op) for n, op in GATES.items()}}
# the step table: each gate lifted once, and the two one-wire steps, folded once
LIFTED = {**{n: lin2super(op) for n, op in _LINEAR.items()},
          "measure": Superoperator(_B, _B, (measure(_B) >> trace_left(_B2)).matrix),
          "discard": Superoperator(_B, _UNIT, trace_left(product([_B, _UNIT])).matrix)}


def proc(wires, lines, outputs, name: str | None = None) -> Superoperator:
    """``proc wires -> do { outs <- op -< ins; ...; returnA -< outputs }``: each line
    ``(op, ins)`` is ``on(op, basis, positions of ins)``.  A discarded wire stays a one-label
    factor until the closing ``arr`` keeps ``outputs``, which must name each live wire once:
    dropping one silently would be ``weaken``.  ``name`` names the last ``compose``."""
    wires, outputs = tuple(wires), tuple(outputs)
    index = {w: i for i, w in enumerate(wires)}
    if len(index) < len(wires):  # a repeated wire would shadow, and so forget, the earlier one
        raise ValueError(f"repeated wire {next(w for w in wires if wires.count(w) > 1)!r}")
    for w in [w for _, ins in lines for w in ins] + list(outputs):
        if w not in index:
            raise ValueError(f"unknown wire {w!r}")
    basis, terms = product([_B] * len(wires)), []
    for op, ins in lines:
        terms.append(on(LIFTED[op] if isinstance(op, str) else op, basis, [index[w] for w in ins]))
        basis = terms[-1].output_basis
    live = [w for w, f in zip(wires, basis.factors or (basis,)) if f.size > 1]
    for w in wires:
        if outputs.count(w) != (w in live):
            raise ValueError(f"the outputs name the {'live' if w in live else 'discarded'} "
                             f"wire {w!r} {outputs.count(w)} times, not {int(w in live)}")
    if outputs != wires:  # else every wire is live, in place
        pick = itemgetter(*(index[w] for w in outputs))
        terms.append(arr(pick, basis, product([_B] * len(outputs)), "arr(outputs)"))
    *init, last = terms or [identity_arr(basis)]
    return compose(reduce(compose, init), last, name) if init else last


# the doubly-controlled not, one gate per line
_TOFFOLI = (("H", ("bottom",)), ("CPHASE", ("middle", "bottom")), ("CX", ("top", "middle")),
            ("CAPHASE", ("middle", "bottom")), ("CX", ("top", "middle")),
            ("CPHASE", ("top", "bottom")), ("H", ("bottom",)))
_TOFFOLI_WIRES = ("top", "middle", "bottom")
_TOFFOLI_STEPS = [linear.on(_LINEAR[g], _B3, map(_TOFFOLI_WIRES.index, ins)) for g, ins in _TOFFOLI]


def toffoli_lin() -> LinearOp:
    """The 8x8 operator for wire order (top, middle, bottom): the vector-monad twin of
    :func:`toffoli_super`, each gate a step operator placed ``on`` its wires once, at import.

    A row binds the seven steps left to right, which by monad associativity,
    ``(v >>= f) >>= g = v >>= (λa. f a >>= g)``, equals the do-block that
    nests every gate in the previous one's continuation.
    """
    return from_rows(lambda label: reduce(bind, _TOFFOLI_STEPS, unit(_B3, label)), _B3, name="toffoli")


def toffoli_super() -> Superoperator:
    """The paper's arrow block for the circuit: one ``outs <- gate -< ins`` line per gate,
    acting ``on`` its wires of (top, middle, bottom) and carrying the other one."""
    return proc(_TOFFOLI_WIRES, _TOFFOLI, _TOFFOLI_WIRES, "toffoli")


# the sender's lines: cnot with q as control, hadamard on q, then measure both wires
_ALICE = (("CX", ("q", "eprL")), ("H", ("q",)), ("measure", ("q",)), ("measure", ("eprL",)))


def _bob_lines(m1, m2):  # on eprR: cnot controlled by m2, controlled-z by m1, then discard both
    return (("CX", (m2, "eprR")), ("CZ", (m1, "eprR")), ("discard", (m1,)), ("discard", (m2,)))


def alice() -> Superoperator:
    """Sender half of teleportation; wire order (eprL, q) in, (m1, m2) = (q, eprL) out.

    The output is fully decohered: a diagonal density of the two classical bits.
    """
    return proc(("eprL", "q"), _ALICE, ("q", "eprL"), "alice")


def bob() -> Superoperator:
    """Receiver half; wire order (eprR, m1, m2) in, the corrected qubit out."""
    return proc(("eprR", "m1", "m2"), _bob_lines("m1", "m2"), ("eprR",), "bob")


def teleport() -> Superoperator:
    """Identity channel on the third wire; wire order (eprL, eprR, q).  Alice's lines, then
    bob's, whose classical bits are the measured q and eprL wires."""
    return proc(("eprL", "eprR", "q"), _ALICE + _bob_lines("q", "eprL"), ("eprR",), "teleport")


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
