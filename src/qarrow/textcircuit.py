"""Line-oriented circuit files compiled to channel pipelines.

The file format is one directive per line, case-sensitive, with ``#``
comments:

    wires <name>+                 exactly once, first directive
    init <wire> <state>           state in {F, T, FT, FmT}; default is F
    init <wire> <wire> epr        entangle two wires
    gate <G> <wire>               G in {H, X, PHASE, Z, APHASE}
    cgate <G> <ctrl> <tgt>        control listed first
    measure <wire>                leaves the classical outcome on the wire
    discard <wire>                partial-traces the wire away

Parsing yields a :class:`CircuitIR` in the paper's ``proc`` form: one
:class:`Init` per ``init`` line, one :class:`Step` per ``gate``, ``cgate``,
``measure`` or ``discard`` line (the command ``outs <- op -< ins``: its
directive, operand wires in order, line number, and ``op``, its channel from
:data:`~qarrow.circuits.LIFTED`, the one step table), and the wires live at
the end (``returnA -< outputs``).  The parsed circuit runs itself: its
``pipeline`` is the :func:`~qarrow.circuits.proc` block of its stages, each
acting ``on`` its own wires, and its ``apply`` runs that block on the density
with :func:`~qarrow.superop.apply`, so no permutation of the other wires is
built, and the dense channel is folded only when ``.pipeline.matrix`` is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .basis import BasisMismatchError, bool_basis, product
from .circuits import GATES, LIFTED, proc
from .density import DensityMatrix, pure_density
from .superop import Superoperator, apply
from .vector import StateVector, named_state


class CircuitError(ValueError):
    """Parse diagnostic carrying the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


GATE_NAMES = tuple(GATES)
STATE_NAMES = {"F": "qFalse", "T": "qTrue", "FT": "qFT", "FmT": "qFmT"}
_STEP_FORMS = {"gate": "gate <G> <wire>", "cgate": "cgate <G> <ctrl> <tgt>",
               "measure": "measure <wire>", "discard": "discard <wire>"}


@dataclass(frozen=True)
class Step:
    """One ``gate``, ``cgate``, ``measure`` or ``discard`` line, and the stage it runs as:
    ``op`` acts on ``wires``, in operand order, and on nothing else."""

    directive: str
    wires: tuple[str, ...]
    line: int
    gate: str | None = None

    @property
    def op(self) -> Superoperator:
        """The step's channel: the gate controlled once per extra wire, or ``measure`` or ``discard``."""
        return LIFTED[self.directive if self.gate is None else "C" * (len(self.wires) - 1) + self.gate]


@dataclass(frozen=True)
class Init:
    """One ``init`` line; ``state`` is a key of :data:`STATE_NAMES`, or ``"epr"`` for a pair."""

    wires: tuple[str, ...]
    state: str
    line: int


@dataclass(frozen=True)
class CircuitIR:
    """A parsed circuit file as one ``proc`` block: ``wires`` in, the ``stages`` in
    file order, ``outputs`` out; ``inits`` prepare its input density."""

    wires: tuple[str, ...]
    inits: tuple
    stages: tuple
    outputs: tuple[str, ...]  # the wires still live after the stages, in wire order

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Run the circuit on one density over its input wires."""
        if rho.basis != self.pipeline.input_basis:
            raise BasisMismatchError(f"circuit expects a density over wires {self.wires}")
        return apply(self.pipeline, rho)

    @cached_property
    def pipeline(self) -> Superoperator:
        """The circuit as one ``proc`` block: each stage ``on`` its own wires, joined by ``>>``."""
        return proc(self.wires, [(s.op, s.wires) for s in self.stages], self.outputs)


def parse_circuit(text: str) -> CircuitIR:
    """Parse and validate a circuit description; raises :class:`CircuitError`."""
    wires: tuple[str, ...] | None = None
    inits: list = []
    steps: list = []
    initialized: set[str] = set()
    live: set[str] = set()

    def check_operands(lineno: int, operands: list[str], repeated: str) -> None:
        """Each operand must be a known, live wire, and none may repeat (``repeated`` says so)."""
        for w in operands:
            if wires is None or w not in wires:
                raise CircuitError(lineno, f"unknown wire {w!r}")
            if w not in live:
                raise CircuitError(lineno, f"wire {w!r} used after discard")
        if len(set(operands)) < len(operands):
            raise CircuitError(lineno, repeated)

    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, args = tokens[0], tokens[1:]

        if wires is None:
            if head != "wires":
                raise CircuitError(lineno, "first directive must be 'wires'")
            if not args:
                raise CircuitError(lineno, "'wires' needs at least one wire name")
            seen: set[str] = set()
            for w in args:
                if w in seen:
                    raise CircuitError(lineno, f"duplicate wire {w!r}")
                seen.add(w)
            wires = tuple(args)
            live = set(wires)
            continue

        if head == "wires":
            raise CircuitError(lineno, "duplicate 'wires' directive")

        if head == "init":
            if steps:
                raise CircuitError(lineno, "init must come before the first gate, measure or discard")
            if not (len(args) == 2 or len(args) == 3 and args[2] == "epr"):
                raise CircuitError(
                    lineno, "malformed init; expected 'init <wire> <state>' or 'init <wire> <wire> epr'"
                )
            *operands, state = args
            check_operands(lineno, operands, "epr init needs two distinct wires")
            if len(operands) == 1 and state not in STATE_NAMES:
                valid = ", ".join(STATE_NAMES)
                raise CircuitError(lineno, f"unknown init state {state!r}; expected one of {valid}")
            for w in operands:
                if w in initialized:
                    raise CircuitError(lineno, f"wire {w!r} already initialized")
            initialized.update(operands)
            inits.append(Init(tuple(operands), state, lineno))
        elif head in _STEP_FORMS:
            form = _STEP_FORMS[head]
            if len(args) != form.count("<"):  # one argument per placeholder
                raise CircuitError(lineno, f"malformed {head}; expected '{form}'")
            g, *operands = args if "<G>" in form else [None, *args]
            if g is not None and g not in GATE_NAMES:
                raise CircuitError(lineno, f"unknown gate {g!r}; expected one of {', '.join(GATE_NAMES)}")
            check_operands(lineno, operands, "control and target must be distinct wires")
            if head == "discard":
                if len(live) == 1:
                    raise CircuitError(lineno, f"cannot discard {operands[0]!r}: it is the last live wire")
                live.remove(operands[0])
            steps.append(Step(head, tuple(operands), lineno, g))
        else:
            raise CircuitError(lineno, f"unknown directive {head!r}")

    if wires is None:
        raise CircuitError(1, "missing 'wires' directive")
    return CircuitIR(wires, tuple(inits), tuple(steps), tuple(w for w in wires if w in live))


def route(ir: CircuitIR) -> CircuitIR:
    """``ir`` itself, which already runs as its ``proc`` block.  Kept only as the name
    the benchmark tracer times and counts stages at; it can go once the benchmark
    (ROADMAP item 1) stops calling it."""
    return ir


def initial_density(ir: CircuitIR) -> DensityMatrix:
    """Pure input density from the init directives; unmentioned wires are F."""
    chunks = [(init.wires, named_state(STATE_NAMES.get(init.state, init.state)).amplitudes)
              for init in ir.inits]
    initialized = {w for chunk in chunks for w in chunk[0]}
    chunks += [((w,), named_state("qFalse").amplitudes) for w in ir.wires if w not in initialized]

    concat_order = [w for chunk in chunks for w in chunk[0]]
    # one axis per wire, in concat order: the tensor product of the chunks
    amps = reduce(np.multiply.outer, [a.reshape((2,) * len(ws)) for ws, a in chunks])
    axes = [concat_order.index(w) for w in ir.wires]
    amps = amps.transpose(axes).reshape(-1)
    return pure_density(StateVector._owning(product([bool_basis()] * len(ir.wires)), amps))
