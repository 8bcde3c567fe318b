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

Routing compiles each step to one stage: the step's wires, in operand
order, and a small channel on just those wires (the lifted gate or its
controlled form, a one-wire decoherence for ``measure``, a partial trace
for ``discard``).  This is the paper's ``first f`` = f (x) id read locally:
the routed pipeline holds densities as tensors with a row and a column
axis per live wire and contracts each stage with its own wires' axes, so
no permutation or regrouping of the other wires is ever built.  The dense
channel of the whole circuit is the same contraction run on every basis
block, and is built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .basis import Basis, BasisMismatchError, bool_basis, product
from .density import DensityMatrix, pure_density
from .linear import LinearOp, adjoint, controlled, gate
from .superop import Superoperator, lin2super, measure, trace_left
from .vector import StateVector, named_state


class CircuitError(ValueError):
    """Parse or routing diagnostic carrying the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


GATE_NAMES = ("H", "X", "PHASE", "Z", "APHASE")
STATE_NAMES = {"F": "qFalse", "T": "qTrue", "FT": "qFT", "FmT": "qFmT"}
_GATE_FORMS = {"gate": "gate <G> <wire>", "cgate": "cgate <G> <ctrl> <tgt>"}


def gate_op(name: str) -> LinearOp:
    if name == "APHASE":
        return adjoint(gate("phase"))
    table = {"H": "hadamard", "X": "qnot", "PHASE": "phase", "Z": "z"}
    return gate(table[name])


@dataclass(frozen=True)
class GateStep:
    gate: str
    wires: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class MeasureStep:
    wire: str
    line: int


@dataclass(frozen=True)
class DiscardStep:
    wire: str
    line: int


@dataclass(frozen=True)
class StateInit:
    wire: str
    state: str
    line: int


@dataclass(frozen=True)
class EprInit:
    wires: tuple[str, str]
    line: int


@dataclass(frozen=True)
class CircuitIR:
    wires: tuple[str, ...]
    inits: tuple
    steps: tuple


def parse_circuit(text: str) -> CircuitIR:
    """Parse and validate a circuit description; raises :class:`CircuitError`."""
    wires: tuple[str, ...] | None = None
    inits: list = []
    steps: list = []
    initialized: set[str] = set()
    live: set[str] = set()

    def known_live_wire(lineno: int, w: str) -> str:
        if wires is None or w not in wires:
            raise CircuitError(lineno, f"unknown wire {w!r}")
        if w not in live:
            raise CircuitError(lineno, f"wire {w!r} used after discard")
        return w

    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            if len(args) == 2:
                w, state = args
                known_live_wire(lineno, w)
                if state not in STATE_NAMES:
                    valid = ", ".join(STATE_NAMES)
                    raise CircuitError(lineno, f"unknown init state {state!r}; expected one of {valid}")
                if w in initialized:
                    raise CircuitError(lineno, f"wire {w!r} already initialized")
                initialized.add(w)
                inits.append(StateInit(w, state, lineno))
            elif len(args) == 3 and args[2] == "epr":
                w1, w2 = args[0], args[1]
                known_live_wire(lineno, w1)
                known_live_wire(lineno, w2)
                if w1 == w2:
                    raise CircuitError(lineno, "epr init needs two distinct wires")
                if w1 in initialized or w2 in initialized:
                    which = w1 if w1 in initialized else w2
                    raise CircuitError(lineno, f"wire {which!r} already initialized")
                initialized.update((w1, w2))
                inits.append(EprInit((w1, w2), lineno))
            else:
                raise CircuitError(
                    lineno, "malformed init; expected 'init <wire> <state>' or 'init <wire> <wire> epr'"
                )
        elif head in _GATE_FORMS:
            if len(args) != _GATE_FORMS[head].count("<"):  # one argument per placeholder
                raise CircuitError(lineno, f"malformed {head}; expected '{_GATE_FORMS[head]}'")
            g, *operands = args
            if g not in GATE_NAMES:
                raise CircuitError(lineno, f"unknown gate {g!r}; expected one of {', '.join(GATE_NAMES)}")
            for w in operands:
                known_live_wire(lineno, w)
            if len(set(operands)) < len(operands):
                raise CircuitError(lineno, "control and target must be distinct wires")
            steps.append(GateStep(g, tuple(operands), lineno))
        elif head == "measure":
            if len(args) != 1:
                raise CircuitError(lineno, "malformed measure; expected 'measure <wire>'")
            w = known_live_wire(lineno, args[0])
            steps.append(MeasureStep(w, lineno))
        elif head == "discard":
            if len(args) != 1:
                raise CircuitError(lineno, "malformed discard; expected 'discard <wire>'")
            w = known_live_wire(lineno, args[0])
            if len(live) == 1:
                raise CircuitError(lineno, f"cannot discard {w!r}: it is the last live wire")
            live.remove(w)
            steps.append(DiscardStep(w, lineno))
        else:
            raise CircuitError(lineno, f"unknown directive {head!r}")

    if wires is None:
        raise CircuitError(1, "missing 'wires' directive")
    return CircuitIR(wires, tuple(inits), tuple(steps))


@dataclass(frozen=True)
class RoutedStage:
    """One circuit step: ``op`` acts on ``wires``, in operand order, and on nothing else."""

    description: str
    wires: tuple[str, ...]
    op: Superoperator


@dataclass(frozen=True)
class RoutedPipeline:
    input_wires: tuple[str, ...]
    output_wires: tuple[str, ...]
    stages: tuple[RoutedStage, ...]

    def _run(self, batch: np.ndarray) -> np.ndarray:
        """Push a batch of matrices over the input wires through every stage.

        Each matrix is held with one row axis and one column axis per live
        wire.  A stage contracts its ``op`` with its own wires' axes only,
        which is ``first op`` read locally: every other axis passes through,
        and the op's new row and column axes move back to its wires' places.
        An ``op`` whose output basis has one label removes its wires.
        """
        n = batch.shape[0]
        live = list(self.input_wires)
        t = batch.reshape((n,) + (2,) * (2 * len(live)))
        for stage in self.stages:
            rows = [1 + live.index(w) for w in stage.wires]  # axis 0 is the batch
            axes = rows + [len(live) + r for r in rows]
            keeps = stage.op.output_basis.size > 1
            op = stage.op.matrix.reshape((2,) * (len(axes) * (2 if keeps else 1)))
            t = np.tensordot(t, op, (axes, range(len(axes))))
            if keeps:
                t = np.moveaxis(t, range(t.ndim - len(axes), t.ndim), axes)
            else:
                live = [w for w in live if w not in stage.wires]
        m = 2 ** len(live)
        return t.reshape(n, m, m)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Run the circuit on one density over the input wires."""
        if rho.basis != _wire_basis(self.input_wires):
            raise BasisMismatchError(f"routed circuit expects a density over wires {self.input_wires}")
        return DensityMatrix(_wire_basis(self.output_wires), self._run(rho.matrix[None])[0])

    @cached_property
    def pipeline(self) -> Superoperator:
        """The dense channel: the stages run on every basis block (a1, a2)."""
        n = 2 ** len(self.input_wires)
        m = 2 ** len(self.output_wires)
        blocks = self._run(np.eye(n * n).reshape(n * n, n, n))
        return Superoperator(_wire_basis(self.input_wires), _wire_basis(self.output_wires),
                             blocks.reshape(n * n, m * m))


def _wire_basis(names) -> Basis:
    return product([bool_basis() for _ in names])


_BOOL = bool_basis()
# measure, then trace away the collapsed copy: decoherence of one wire
_DECOHERE = measure(_BOOL) >> trace_left(product([_BOOL, _BOOL]))
# trace one wire away, leaving the one-label unit basis
_DISCARD = trace_left(product([_BOOL, Basis([()])]))


def route(ir: CircuitIR) -> RoutedPipeline:
    """Compile validated IR to one stage per step, addressed by wire name."""
    live = list(ir.wires)
    stages: list[RoutedStage] = []
    for step in ir.steps:
        if isinstance(step, GateStep):
            base = gate_op(step.gate)
            op = lin2super(controlled(base) if len(step.wires) == 2 else base)
            stages.append(RoutedStage(f"apply {step.gate} on {','.join(step.wires)}", step.wires, op))
        elif isinstance(step, MeasureStep):
            stages.append(RoutedStage(f"measure {step.wire}", (step.wire,), _DECOHERE))
        elif isinstance(step, DiscardStep):
            stages.append(RoutedStage(f"discard {step.wire}", (step.wire,), _DISCARD))
            live.remove(step.wire)
        else:  # pragma: no cover - parse produces only the three step kinds
            raise TypeError(f"unknown step {step!r}")
    return RoutedPipeline(ir.wires, tuple(live), tuple(stages))


def initial_density(ir: CircuitIR) -> DensityMatrix:
    """Pure input density from the init directives; unmentioned wires are F."""
    chunks: list[tuple[tuple[str, ...], np.ndarray]] = []
    for init in ir.inits:
        if isinstance(init, StateInit):
            chunks.append(((init.wire,), named_state(STATE_NAMES[init.state]).amplitudes))
        else:
            chunks.append((init.wires, named_state("epr").amplitudes))
    initialized = {w for chunk in chunks for w in chunk[0]}
    chunks += [((w,), named_state("qFalse").amplitudes) for w in ir.wires if w not in initialized]

    concat_order = [w for chunk in chunks for w in chunk[0]]
    amps = reduce(np.kron, [chunk[1] for chunk in chunks])
    axes = [concat_order.index(w) for w in ir.wires]
    amps = amps.reshape((2,) * len(axes)).transpose(axes).reshape(-1)
    return pure_density(StateVector(_wire_basis(ir.wires), amps))
