"""Superoperators: linear maps on density matrices, with arrow combinators.

A :class:`Superoperator` from basis A to basis B stores one output density
block per ordered input pair (a1, a2), i.e. a dense |A|^2 x |B|^2 matrix.
The combinator set is ``arr`` (lift a classical function), ``compose`` (also
spelled ``>>``), and ``first`` (act on the left component of a pair while
carrying the right component unchanged); ``second`` (``first`` between two
swaps, done as one transpose of its axes) and ``parallel`` derive from them.
Measurement and the left partial trace complete it.  Linearity means two
superoperators that agree on every basis block agree on every density, so
:func:`extensional_equal` compares blocks entrywise.

All construction is deterministic, so identical inputs give bit-identical
matrices: ``arr``, ``first``, ``trace_left`` and ``measure`` write their
nonzeros into zeros with one numpy index assignment, ``lin2super`` is one
broadcast product and ``second`` one transpose of ``first``'s axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import Basis, BasisMismatchError, Label, label_text, product
from .density import DensityMatrix
from .linear import LinearOp, compose
from .vector import frozen_array, require_tolerance


class Superoperator:
    """Channel-like map between density matrices; immutable."""

    __slots__ = ("input_basis", "output_basis", "_matrix", "name")

    def __init__(self, input_basis: Basis, output_basis: Basis, matrix, name: str | None = None):
        self.input_basis = input_basis
        self.output_basis = output_basis
        self._matrix = frozen_array(matrix, (input_basis.size ** 2, output_basis.size ** 2))
        self.name = name

    @property
    def matrix(self) -> np.ndarray:
        """Row (a1, a2) holds the flattened output block for that input pair."""
        return self._matrix

    def block(self, a1: Label, a2: Label) -> DensityMatrix:
        n_in = self.input_basis.size
        n_out = self.output_basis.size
        row = self.input_basis.index_of(a1) * n_in + self.input_basis.index_of(a2)
        return DensityMatrix(self.output_basis, self._matrix[row].reshape(n_out, n_out))

    def apply(self, d: DensityMatrix) -> DensityMatrix:
        return apply(self, d)

    def __rshift__(self, other: "Superoperator") -> "Superoperator":
        return compose(self, other)

    def __repr__(self) -> str:
        tag = self.name or f"{self.input_basis.size}->{self.output_basis.size}"
        return f"Superoperator({tag})"


def apply(s: Superoperator, d: DensityMatrix) -> DensityMatrix:
    """Weighted sum of basis blocks: sum over (a1,a2) of d(a1,a2) * block."""
    if d.basis != s.input_basis:
        raise BasisMismatchError(
            f"cannot apply channel over {s.input_basis!r} to density over {d.basis!r}"
        )
    n_out = s.output_basis.size
    flat = d.matrix.reshape(-1) @ s.matrix
    return DensityMatrix(s.output_basis, flat.reshape(n_out, n_out))


def lin2super(f: LinearOp, name: str | None = None) -> Superoperator:
    """Lift a linear operator: it acts on the vector and, conjugated, on the dual.

    Block (a1, a2) at (b1, b2) is f(a1)(b1) * conj(f(a2)(b2)).
    """
    if name is None:
        name = f"lift({f.name})" if f.name else "lift"
    n_a, n_b = f.matrix.shape
    m = f.matrix[:, None, :, None] * f.matrix.conj()[None, :, None, :]
    return Superoperator(f.input_basis, f.output_basis, m.reshape(n_a * n_a, n_b * n_b), name=name)


def arr(fn: Callable[[Label], Label], input_basis: Basis, output_basis: Basis,
        name: str | None = None) -> Superoperator:
    """Lift a classical total function by applying it to both pair components."""
    n_in = input_basis.size
    n_out = output_basis.size
    t = np.array([output_basis.index_of(fn(label)) for label in input_basis])
    i = np.arange(n_in)
    m = np.zeros((n_in, n_in, n_out, n_out), dtype=complex)
    m[i[:, None], i, t[:, None], t] = 1.0
    return Superoperator(input_basis, output_basis, m.reshape(n_in * n_in, n_out * n_out),
                         name=name or "arr")


def identity_arr(basis: Basis) -> Superoperator:
    return arr(lambda x: x, basis, basis, name="arr(id)")


def first(s: Superoperator, carried: Basis) -> Superoperator:
    """Act on the left pair component, carrying the right one unchanged.

    Indexed as (a1,d1,a2,d2) -> (b1,e1,b2,e2), the matrix holds s's block
    (a1,a2) -> (b1,b2) wherever d1 == e1 and d2 == e2: the carried indices
    pass through as an exact identity on both the vector and dual sides.
    """
    n_a = s.input_basis.size
    n_b = s.output_basis.size
    n_d = carried.size
    m = np.zeros(((n_a * n_d) ** 2, (n_b * n_d) ** 2), dtype=complex)
    d1, d2 = np.arange(n_d)[:, None], np.arange(n_d)
    m.reshape(n_a, n_d, n_a, n_d, n_b, n_d, n_b, n_d)[:, d1, :, d2, :, d1, :, d2] = (
        s.matrix.reshape(n_a, n_a, n_b, n_b))
    return Superoperator(product([s.input_basis, carried]), product([s.output_basis, carried]),
                         m, name=f"first({s.name})" if s.name else "first")


def second(s: Superoperator, carried: Basis) -> Superoperator:
    """Act on the right pair component, carrying the left one unchanged.

    As in Hughes's arrows, ``arr swap >>> first s >>> arr swap``: the two
    swaps only relabel, so they are done as one transpose of ``first``'s
    axes, (a1,d1,a2,d2) -> (d1,a1,d2,a2) and likewise on the output side.
    """
    lifted = first(s, carried).matrix
    sizes = (s.input_basis.size, carried.size) * 2 + (s.output_basis.size, carried.size) * 2
    m = lifted.reshape(sizes).transpose(1, 0, 3, 2, 5, 4, 7, 6).reshape(lifted.shape)
    return Superoperator(product([carried, s.input_basis]), product([carried, s.output_basis]),
                         m, name=f"second({s.name})" if s.name else "second")


def parallel(s: Superoperator, t: Superoperator) -> Superoperator:
    """Independent action on both pair components: first(s) then second(t)."""
    return first(s, t.input_basis) >> second(t, s.output_basis)


def permute_arr(perm, basis: Basis) -> Superoperator:
    """Positional shuffle of a product basis; output slot i takes factor perm[i]."""
    factors = basis.factors
    if factors is None:
        raise ValueError("permute_arr needs a product basis")
    perm = tuple(perm)
    if sorted(perm) != list(range(len(factors))):
        raise ValueError(f"permutation {perm!r} is not a bijection on {len(factors)} positions")
    out_basis = product([factors[p] for p in perm])
    return arr(lambda t: tuple(t[p] for p in perm), basis, out_basis,
               name=f"arr(permute{perm})")


def trace_left(pair_basis: Basis) -> Superoperator:
    """Discard the left component of a binary product basis.

    Block ((a1,b1),(a2,b2)) is the unit density at (b1,b2) when a1 == a2 and
    zero otherwise, i.e. matched left indices are summed away.
    """
    factors = pair_basis.factors
    if factors is None or len(factors) != 2:
        raise ValueError("trace_left needs a binary product basis")
    left, right = factors
    n_a, n_b = left.size, right.size
    n_in = n_a * n_b
    a, b1, b2 = np.arange(n_a)[:, None, None], np.arange(n_b)[:, None], np.arange(n_b)
    m = np.zeros((n_in * n_in, n_b * n_b), dtype=complex)
    m.reshape(n_a, n_b, n_a, n_b, n_b, n_b)[a, b1, a, b2, b1, b2] = 1.0
    return Superoperator(pair_basis, right, m, name=f"trace_left({n_a}x{n_b})")


def measure(basis: Basis) -> Superoperator:
    """Measure a state in its basis, keeping both halves of the outcome.

    The output pair is (collapsed state, observed classical value); only
    diagonal input pairs contribute, which is exactly decoherence.
    """
    n = basis.size
    out_basis = product([basis, basis])
    n_out = out_basis.size
    a = np.arange(n)
    m = np.zeros((n * n, n_out * n_out), dtype=complex)
    m.reshape(n, n, n, n, n, n)[a, a, a, a, a, a] = 1.0
    return Superoperator(basis, out_basis, m, name=f"measure({n})")


@dataclass(frozen=True)
class EqualityReport:
    equal: bool
    max_diff: float
    worst_input: tuple[Label, Label] | None
    worst_output: tuple[Label, Label] | None

    def __str__(self) -> str:
        if self.worst_input is None:
            return f"equal={self.equal} max_diff={self.max_diff:.3e}"
        pin = ",".join(label_text(l) for l in self.worst_input)
        pout = ",".join(label_text(l) for l in self.worst_output)
        return (f"equal={self.equal} max_diff={self.max_diff:.3e} "
                f"at block ({pin}) entry ({pout})")


def max_difference(s: Superoperator, t: Superoperator) -> float:
    if s.input_basis != t.input_basis or s.output_basis != t.output_basis:
        raise BasisMismatchError("cannot compare channels with differing bases")
    return float(np.max(np.abs(s.matrix - t.matrix)))


def extensional_equal(s: Superoperator, t: Superoperator, tol: float) -> EqualityReport:
    """Blockwise comparison; by linearity this decides equality on all densities."""
    require_tolerance(tol)
    if s.input_basis != t.input_basis or s.output_basis != t.output_basis:
        raise BasisMismatchError("cannot compare channels with differing bases")
    diff = np.abs(s.matrix - t.matrix)
    max_diff = float(np.max(diff))
    row, col = np.unravel_index(int(np.argmax(diff)), diff.shape)
    n_in = s.input_basis.size
    n_out = s.output_basis.size
    worst_in = (s.input_basis.element_at(row // n_in), s.input_basis.element_at(row % n_in))
    worst_out = (s.output_basis.element_at(col // n_out), s.output_basis.element_at(col % n_out))
    return EqualityReport(max_diff <= tol, max_diff, worst_in, worst_out)
