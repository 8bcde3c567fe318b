"""Linear operators between bases: gates and their combinator algebra.

A :class:`LinearOp` stores one output row per input label (an
``input x output`` complex matrix), so applying it to a vector is a plain
row-vector/matrix product and composition is matrix multiplication in
diagrammatic order (first argument acts first).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Callable

import numpy as np

from .basis import Basis, BasisMismatchError, Label, bool_basis, product
from .vector import StateVector, bind, frozen_array, require_composable, require_same_basis, tabulate

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class LinearOp:
    """Linear map stored densely, one StateVector row per input label."""

    __slots__ = ("input_basis", "output_basis", "_matrix", "_name")

    def __init__(self, input_basis: Basis, output_basis: Basis, matrix, name: str | None = None):
        self.input_basis = input_basis
        self.output_basis = output_basis
        self._matrix = frozen_array(matrix, (input_basis.size, output_basis.size))
        self._name = name

    @classmethod
    def _owning(cls, input_basis: Basis, output_basis: Basis, matrix: np.ndarray,
                name: str | None = None) -> "LinearOp":
        """An operator around ``matrix``, an array the library has just made: frozen, not copied."""
        f = cls.__new__(cls)
        f.input_basis, f.output_basis, f._name = input_basis, output_basis, name
        f._matrix = frozen_array(matrix, (input_basis.size, output_basis.size), copy=False)
        return f

    @property
    def name(self) -> str | None:
        """Read-only: gates are shared (see :func:`gate`), so renaming one would rename all."""
        return self._name

    @property
    def matrix(self) -> np.ndarray:
        """Read-only matrix; entry [a, b] is the amplitude of b in row a."""
        return self._matrix

    def row(self, label: Label) -> StateVector:
        return StateVector._owning(self.output_basis, self._matrix[self.input_basis.index_of(label)])

    def apply(self, v: StateVector) -> StateVector:
        return bind(v, self)

    def __repr__(self) -> str:
        tag = self.name or f"{self.input_basis.size}->{self.output_basis.size}"
        return f"LinearOp({tag})"


def from_rows(fn: Callable[[Label], StateVector], input_basis: Basis, name: str | None = None) -> LinearOp:
    """Materialize a label-to-vector function; all rows must share one basis."""
    return LinearOp._owning(input_basis, *tabulate(fn, input_basis, "rows"), name=name)


def fun2lin(fn: Callable[[Label], Label], input_basis: Basis, output_basis: Basis,
            name: str | None = None) -> LinearOp:
    """Lift a classical total function to the permutation-like linear map."""
    m = np.zeros((input_basis.size, output_basis.size), dtype=complex)
    for i, label in enumerate(input_basis):
        m[i, output_basis.index_of(fn(label))] = 1.0
    return LinearOp._owning(input_basis, output_basis, m, name=name or "fun2lin")


def placement(input_basis: Basis, output_basis: Basis, basis: Basis, positions) -> tuple:
    """Check that a map from ``input_basis`` to ``output_basis`` can act ``on`` the factors of
    ``basis`` at ``positions``; gives the positions, the factor sizes in and out, and the output
    basis.  Cached by the identities of the two bases whose factors it reads, so each basis
    is placed by its own factors, whatever equal basis was placed before."""
    return _placement(input_basis, output_basis, basis, tuple(positions), id(output_basis), id(basis))


@lru_cache(maxsize=256)
def _placement(input_basis: Basis, output_basis: Basis, basis: Basis, positions: tuple, *_ids):
    factors = basis.factors or (basis,)
    if not positions or len(set(positions) & set(range(len(factors)))) < len(positions):
        raise ValueError(f"positions {positions!r} must be distinct factors of {len(factors)}")
    if input_basis != product([factors[p] for p in positions]):
        raise BasisMismatchError(f"a map over {input_basis!r} cannot act on factors {positions!r}")
    placed = output_basis.factors or () if len(positions) > 1 else (output_basis,)
    if len(placed) != len(positions):
        raise ValueError(f"a map on {len(positions)} factors must output as many, not {len(placed)}")
    outs = [placed[positions.index(i)] if i in positions else g for i, g in enumerate(factors)]
    return positions, tuple(g.size for g in factors), tuple(g.size for g in outs), product(outs)


def place(m: np.ndarray, ins: tuple, outs: tuple, positions) -> np.ndarray:
    """``m``, from the factors ``ins`` at ``positions`` to those of ``outs``, written into zeros
    through one einsum view, in which each carried factor's output index repeats its input index."""
    k, carried = len(ins), [i for i in range(len(ins)) if i not in positions]
    axes = [i if i < k or i - k in positions else i - k for i in range(2 * k)]  # over (ins, outs)
    placed = np.zeros((prod(ins), prod(outs)), dtype=complex)
    view = np.einsum(placed.reshape(ins + outs), axes, carried + list(positions) + [k + p for p in positions])
    view[...] = m.reshape([ins[p] for p in positions] + [outs[p] for p in positions])
    return placed


def on(f: LinearOp, basis: Basis, positions, name: str | None = None) -> LinearOp:
    """``f`` on the factors of the product ``basis`` at ``positions``, in that order, carrying
    the others: the vector side of the paper's ``outs <- f -< ins``."""
    positions, ins, outs, out_basis = placement(f.input_basis, f.output_basis, basis, positions)
    return LinearOp._owning(basis, out_basis, place(f.matrix, ins, outs, positions), name=name)


def identity(basis: Basis) -> LinearOp:
    return LinearOp._owning(basis, basis, np.eye(basis.size, dtype=complex), name="id")


_BOOL = bool_basis()
_GATES: dict[str, LinearOp] = {
    "qnot": LinearOp(_BOOL, _BOOL, [[0, 1], [1, 0]], name="qnot"),
    "phase": LinearOp(_BOOL, _BOOL, [[1, 0], [0, 1j]], name="phase"),
    "hadamard": LinearOp(_BOOL, _BOOL, [[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]],
                         name="hadamard"),
    "z": LinearOp(_BOOL, _BOOL, [[1, 0], [0, -1]], name="z"),
}


def gate(name: str) -> LinearOp:
    """Single-qubit gates: qnot, phase, hadamard, z."""
    try:
        return _GATES[name]
    except KeyError:
        valid = ", ".join(sorted(_GATES))
        raise ValueError(f"unknown gate {name!r}; valid gates: {valid}") from None


def controlled(f: LinearOp) -> LinearOp:
    """Apply ``f`` only in the branch where the leading control qubit is True."""
    if f.input_basis != f.output_basis:
        raise ValueError("controlled() needs a square operator")
    n = f.input_basis.size
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[:n, :n] = np.eye(n)
    m[n:, n:] = f.matrix
    ab = product([bool_basis(), f.input_basis])
    return LinearOp._owning(ab, ab, m, name=f"controlled({f.name or 'op'})")


def adjoint(f: LinearOp) -> LinearOp:
    """Conjugate transpose; swaps input and output bases."""
    return LinearOp._owning(f.output_basis, f.input_basis, f.matrix.conj().T,
                            name=f"adjoint({f.name})" if f.name else None)


def outer(v: StateVector, w: StateVector) -> LinearOp:
    """Outer product: entry (a1, a2) is v(a1) * conj(w(a2))."""
    require_same_basis(v, w)
    return LinearOp._owning(v.basis, v.basis, np.outer(v.amplitudes, w.amplitudes.conj()))


def lin_plus(f: LinearOp, g: LinearOp) -> LinearOp:
    if f.input_basis != g.input_basis or f.output_basis != g.output_basis:
        raise BasisMismatchError("operator sum needs identical input and output bases")
    return LinearOp._owning(f.input_basis, f.output_basis, f.matrix + g.matrix)


def lin_tensor(f: LinearOp, g: LinearOp) -> LinearOp:
    """Tensor of operators over the product bases; row (a,c) = f(a) (x) g(c)."""
    m = f.matrix[:, None, :, None] * g.matrix[None, :, None, :]
    return LinearOp._owning(
        product([f.input_basis, g.input_basis]),
        product([f.output_basis, g.output_basis]),
        m.reshape(m.shape[0] * m.shape[1], -1),
        name=f"{f.name}(x){g.name}" if f.name and g.name else None,
    )


def compose(f: LinearOp, g: LinearOp) -> LinearOp:
    """Diagrammatic composition: ``f`` acts first, then ``g``; a matrix product."""
    require_composable(f, g)
    return LinearOp._owning(f.input_basis, g.output_basis, f.matrix @ g.matrix)
