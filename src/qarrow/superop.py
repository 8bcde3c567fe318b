"""Superoperators: linear maps on density matrices, with arrow combinators.

A :class:`Superoperator` from basis A to basis B keeps how it was built, as
an arrow term (Hughes, "Generalising monads to arrows"): a leaf matrix,
``arr`` (a classical function, kept as its index map on labels), ``compose``
(also spelled ``>>``) or ``first`` (act on the left pair component, carrying
the right one unchanged).  ``second`` is ``arr swap >>> first s >>> arr
swap``; ``parallel``, ``measure`` and ``trace_left`` complete the set.

A term has two interpreters.  ``.matrix`` is the dense one, folded on first
read: one output density block per ordered input pair (a1, a2), an
|A|^2 x |B|^2 matrix.  By linearity it decides equality on all densities,
so the laws and :func:`extensional_equal` compare it.  :func:`apply` runs
the term on the density and never builds the channel's matrix.

Folds are deterministic, so identical inputs give bit-identical matrices:
``arr``, ``first``, ``trace_left`` and ``measure`` write their nonzeros into
zeros with one index assignment, ``lin2super`` is one broadcast product and
``second`` one transpose of ``first``'s axes.  ``>>`` is never a product of
two channel matrices: the fold builds a chain's first channel and runs each
later term on that matrix's blocks, as :func:`apply` runs it on a density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import Basis, BasisMismatchError, Label, label_text, product
from .density import DensityMatrix
from .linear import LinearOp
from .vector import frozen_array, require_tolerance


class Superoperator:
    """Channel-like map between density matrices; immutable.

    ``Superoperator(A, B, matrix)`` is a leaf; the combinators below build
    the other terms.
    """

    __slots__ = ("input_basis", "output_basis", "name", "_term", "_matrix")

    def __init__(self, input_basis: Basis, output_basis: Basis, matrix, name: str | None = None):
        self.input_basis = input_basis
        self.output_basis = output_basis
        self._matrix = frozen_array(matrix, (input_basis.size ** 2, output_basis.size ** 2))
        self._term = ("leaf",)
        self.name = name

    @property
    def matrix(self) -> np.ndarray:
        """Row (a1, a2) holds the flattened output block for that input pair."""
        if self._matrix is None:  # cached on this channel alone; the terms folded inside keep none
            self._matrix = frozen_array(_fold(self), (self.input_basis.size ** 2,
                                                      self.output_basis.size ** 2), copy=False)
        return self._matrix

    def block(self, a1: Label, a2: Label) -> DensityMatrix:
        """The output for the input pair (a1, a2), row (a1, a2) of ``.matrix``.

        The paper's ``Super a b = (a,a) -> Dens b`` read at one pair: the
        term runs on |a1><a2|, as :func:`apply` runs it, so no matrix is folded.
        """
        n = self.input_basis.size
        t = np.zeros((n, n), dtype=complex)
        t[self.input_basis.index_of(a1), self.input_basis.index_of(a2)] = 1.0
        return DensityMatrix._owning(self.output_basis, _run(self, t, 0, 1))

    def apply(self, d: DensityMatrix) -> DensityMatrix:
        return apply(self, d)

    def __rshift__(self, other: "Superoperator") -> "Superoperator":
        return compose(self, other)

    def __repr__(self) -> str:
        tag = self.name or f"{self.input_basis.size}->{self.output_basis.size}"
        return f"Superoperator({tag})"


def _node(input_basis: Basis, output_basis: Basis, term: tuple, name: str | None = None,
          leaf: np.ndarray | None = None) -> Superoperator:
    """A channel holding ``term``; a ``leaf`` matrix, just made here, is frozen, not copied."""
    s = Superoperator.__new__(Superoperator)
    s.input_basis, s.output_basis, s._term, s.name = input_basis, output_basis, term, name
    s._matrix = None if leaf is None else frozen_array(
        leaf, (input_basis.size ** 2, output_basis.size ** 2), copy=False)
    return s


def apply(s: Superoperator, d: DensityMatrix) -> DensityMatrix:
    """Run ``s``'s term on ``d``; a matrix is read only for a leaf."""
    if d.basis != s.input_basis:
        raise BasisMismatchError(
            f"cannot apply channel over {s.input_basis!r} to density over {d.basis!r}"
        )
    return DensityMatrix._owning(s.output_basis, _run(s, d.matrix, 0, 1))


def contract(t: np.ndarray, matrix: np.ndarray, axes, out_shape: tuple[int, ...]) -> np.ndarray:
    """Contract the input side of ``matrix`` with the ``axes`` of ``t``, in order.

    Its output side, shaped ``out_shape``, takes their places, and every other
    axis passes through: ``first`` read locally, for a leaf or a routed stage.
    """
    order = [a for a in range(t.ndim) if a not in axes] + list(axes)
    kept = [t.shape[a] for a in order[:-len(axes)]]
    out = t.transpose(order).reshape(-1, matrix.shape[0]) @ matrix
    return out.reshape(kept + list(out_shape)).transpose([order.index(a) for a in range(t.ndim)])


def _run(s: Superoperator, t: np.ndarray, r: int, c: int) -> np.ndarray:
    """Run ``s`` on the density tensor ``t``, whose axes ``r`` < ``c`` index
    ``s``'s input basis as row and column; they come back indexing its output."""
    todo = [s]
    while todo:  # a >> chain runs left to right, without recursion
        s = todo.pop()
        match s._term:
            case ("compose", f, g):
                todo += (g, f)
            case ("leaf",):
                n = s.output_basis.size
                t = contract(t, s._matrix, (r, c), (n, n))
            case ("arr", target, inverse):
                for axis in (r, c):
                    t = _relabel(t, axis, target, inverse, s.output_basis.size)
            case ("first", inner, carried, left):
                # split each axis into inner's factor and the carried one, run inner on its own
                shape, n_a, n_d = t.shape, inner.input_basis.size, carried.size
                pair, k = ((n_a, n_d), 0) if left else ((n_d, n_a), 1)
                t = t.reshape(shape[:r] + pair + shape[r + 1:c] + pair + shape[c + 1:])
                t = _run(inner, t, r + k, c + 1 + k)
                n = inner.output_basis.size * n_d
                t = t.reshape(shape[:r] + (n,) + shape[r + 1:c] + (n,) + shape[c + 1:])
    return t


def _relabel(t: np.ndarray, axis: int, target: np.ndarray, inverse, n_out: int) -> np.ndarray:
    """Entry i along ``axis`` moves to index ``target[i]``: a gather through
    ``inverse`` when that map is a bijection, else a scatter-add into zeros."""
    if inverse is not None:
        return t.take(inverse, axis=axis)
    out = np.zeros(t.shape[:axis] + (n_out,) + t.shape[axis + 1:], dtype=complex)
    np.add.at(out, (slice(None),) * axis + (target,), t)
    return out


def _fold(s: Superoperator) -> np.ndarray:
    """The dense matrix of ``s``: a chain's first channel is built (or its
    matrix reused), and every later term runs on that matrix's blocks."""
    rights = []
    while s._matrix is None and s._term[0] == "compose":  # a left-nested chain, without recursion
        s, right = s._term[1:]
        rights.append(right)
    if s._matrix is not None:
        m = s._matrix
    elif s._term[0] == "arr":
        target = s._term[1]
        n_in, n_out = s.input_basis.size, s.output_basis.size
        i = np.arange(n_in)
        m = np.zeros((n_in, n_in, n_out, n_out), dtype=complex)
        m[i[:, None], i, target[:, None], target] = 1.0
        m = m.reshape(n_in * n_in, n_out * n_out)
    else:
        # first: indexed as (a1,d1,a2,d2) -> (b1,e1,b2,e2), the matrix holds
        # inner's block (a1,a2) -> (b1,b2) wherever d1 == e1 and d2 == e2
        _, inner, carried, left = s._term
        n_a, n_b, n_d = inner.input_basis.size, inner.output_basis.size, carried.size
        m = np.zeros(((n_a * n_d) ** 2, (n_b * n_d) ** 2), dtype=complex)
        d1, d2 = np.arange(n_d)[:, None], np.arange(n_d)
        m.reshape(n_a, n_d, n_a, n_d, n_b, n_d, n_b, n_d)[:, d1, :, d2, :, d1, :, d2] = (
            _fold(inner).reshape(n_a, n_a, n_b, n_b))
        if not left:  # second: the swaps relabel (a1,d1,a2,d2) as (d1,a1,d2,a2), likewise out
            sizes = (n_a, n_d) * 2 + (n_b, n_d) * 2
            m = m.reshape(sizes).transpose(1, 0, 3, 2, 5, 4, 7, 6).reshape(m.shape)
    n = s.output_basis.size
    t = m.reshape(len(m), n, n)
    for right in reversed(rights):
        t = _run(right, t, 1, 2)
    return t.reshape(len(m), -1)


def compose(f: Superoperator, g: Superoperator) -> Superoperator:
    """Diagrammatic composition: ``f`` acts first, then ``g``."""
    if f.output_basis != g.input_basis:
        raise BasisMismatchError(
            f"cannot compose: {f.output_basis!r} feeds into {g.input_basis!r}"
        )
    return _node(f.input_basis, g.output_basis, ("compose", f, g))


def lin2super(f: LinearOp, name: str | None = None) -> Superoperator:
    """Lift a linear operator: it acts on the vector and, conjugated, on the dual.

    Block (a1, a2) at (b1, b2) is f(a1)(b1) * conj(f(a2)(b2)).
    """
    if name is None:
        name = f"lift({f.name})" if f.name else "lift"
    n_a, n_b = f.matrix.shape
    m = f.matrix[:, None, :, None] * f.matrix.conj()[None, :, None, :]
    return _node(f.input_basis, f.output_basis, ("leaf",), name, m.reshape(n_a * n_a, n_b * n_b))


def arr(fn: Callable[[Label], Label], input_basis: Basis, output_basis: Basis,
        name: str | None = None) -> Superoperator:
    """Lift a classical total function by applying it to both pair components."""
    targets = [output_basis.index_of(fn(label)) for label in input_basis]
    bijective = len(set(targets)) == len(targets) == output_basis.size
    target = np.array(targets)
    return _node(input_basis, output_basis,
                 ("arr", target, np.argsort(target) if bijective else None), name or "arr")


def identity_arr(basis: Basis) -> Superoperator:
    return arr(lambda x: x, basis, basis, name="arr(id)")


def first(s: Superoperator, carried: Basis) -> Superoperator:
    """Act on the left pair component, carrying the right one unchanged.

    The carried indices pass through as an exact identity on both the
    vector and dual sides.
    """
    return _node(product([s.input_basis, carried]), product([s.output_basis, carried]),
                 ("first", s, carried, True), f"first({s.name})" if s.name else "first")


def second(s: Superoperator, carried: Basis) -> Superoperator:
    """Act on the right pair component, carrying the left one unchanged.

    As in Hughes's arrows, ``arr swap >>> first s >>> arr swap``.  The swaps
    only relabel, so ``s`` runs on the right factor in place, and the dense
    fold is one transpose of ``first``'s axes.
    """
    return _node(product([carried, s.input_basis]), product([carried, s.output_basis]),
                 ("first", s, carried, False), f"second({s.name})" if s.name else "second")


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
    return _node(pair_basis, right, ("leaf",), f"trace_left({n_a}x{n_b})", m)


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
    return _node(basis, out_basis, ("leaf",), f"measure({n})", m)


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
