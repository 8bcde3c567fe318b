"""Superoperators: linear maps on density matrices, with arrow combinators.

A :class:`Superoperator` from basis A to basis B keeps how it was built, as
an arrow term (Hughes, "Generalising monads to arrows"): a leaf matrix,
``arr`` (a classical function, kept as its index map on labels), ``compose``
(also spelled ``>>``) or ``on`` (act on some factors of a product basis and
carry the rest: the paper's ``outs <- f -< ins``).  ``first`` and ``second``
are ``on`` at position 0 and 1 of a pair; ``parallel``, ``measure`` and
``trace_left`` complete the set.

A term has two interpreters.  ``.matrix`` is the dense one, folded on first
read: one output density block per ordered input pair (a1, a2), an
|A|^2 x |B|^2 matrix.  By linearity it decides equality on all densities,
so the laws and :func:`extensional_equal` compare it.  :func:`apply` runs
the term on the density, split into one row and one column axis per factor
along a run of ``on`` nodes, and never builds the channel's matrix.

Folds are deterministic, so identical inputs give bit-identical matrices:
``arr``, ``on``, ``trace_left`` and ``measure`` write their nonzeros into
zeros with one assignment, ``lin2super`` is one broadcast product, and
``>>`` is never a product of two channel matrices: the fold builds a
chain's first channel and runs the later terms on its blocks in one pass,
as :func:`apply` runs a chain on a density.  ``on`` places a step through a
bounded cache, and :func:`contract` reuses a bounded cache of its transposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable

import numpy as np

from .basis import Basis, BasisMismatchError, Label, label_text, product
from .density import DensityMatrix
from .linear import LinearOp, place, placement
from .vector import frozen_array, require_composable, require_tolerance


class Superoperator:
    """Channel-like map between density matrices; immutable.

    ``Superoperator(A, B, matrix)`` is a leaf; the combinators below build
    the other terms.
    """

    __slots__ = ("input_basis", "output_basis", "_name", "_term", "_matrix")

    def __init__(self, input_basis: Basis, output_basis: Basis, matrix, name: str | None = None):
        self.input_basis = input_basis
        self.output_basis = output_basis
        self._matrix = frozen_array(matrix, (input_basis.size ** 2, output_basis.size ** 2))
        self._term = ("leaf",)
        self._name = name

    @property
    def name(self) -> str | None:
        """Read-only: leaves are shared between circuits, so renaming one would rename all."""
        return self._name

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
        return DensityMatrix._owning(self.output_basis, _run([self], t, 0, 1))

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
    s.input_basis, s.output_basis, s._term, s._name = input_basis, output_basis, term, name
    s._matrix = None if leaf is None else frozen_array(
        leaf, (input_basis.size ** 2, output_basis.size ** 2), copy=False)
    return s


def apply(s: Superoperator, d: DensityMatrix) -> DensityMatrix:
    """Run ``s``'s term on ``d``; a matrix is read only for a leaf or an ``on`` several factors wide."""
    if d.basis != s.input_basis:
        raise BasisMismatchError(
            f"cannot apply channel over {s.input_basis!r} to density over {d.basis!r}"
        )
    return DensityMatrix._owning(s.output_basis, _run([s], d.matrix, 0, 1))


def contract(t: np.ndarray, matrix: np.ndarray, axes, out_shape: tuple[int, ...]) -> np.ndarray:
    """Contract the input side of ``matrix`` with the ``axes`` of ``t``, in order.

    Its output side, shaped ``out_shape``, takes their places, and every other
    axis passes through: ``on`` read locally, for a leaf or several factors.
    """
    order, inverse = _axis_plan(t.ndim, tuple(axes))
    kept = [t.shape[a] for a in order[:-len(axes)]]
    out = t.transpose(order).reshape(-1, matrix.shape[0]) @ matrix
    return out.reshape(kept + list(out_shape)).transpose(inverse)


@lru_cache(maxsize=64)
def _axis_plan(ndim: int, axes: tuple) -> tuple[tuple, tuple]:  # axes last, in order, and back
    order = tuple(a for a in range(ndim) if a not in axes) + axes
    return order, tuple(map(order.index, range(ndim)))


def _run(todo: list, t: np.ndarray, r: int, c: int) -> np.ndarray:
    """Run the stack ``todo`` of terms, top first, on the density tensor ``t``, whose axes
    ``r`` < ``c`` index the top term's input basis as row and column; they come back indexing
    the bottom term's output basis.  The stack is used up."""
    sizes = (t.shape[r],)  # r and c whole, or split into one axis per factor
    while todo:  # a >> chain runs left to right, without recursion
        s = todo.pop()
        term = s._term
        if term[0] == "compose":
            todo += (term[2], term[1])
        elif term[0] == "on":
            _, inner, positions, ins, outs = term
            if sizes != ins:  # split r and c into factor axes; a run of ons keeps them split
                t = _refactor(t, r, c, sizes, ins)
            cols = c + len(ins) - 1
            if len(positions) == 1:
                t = _run([inner], t, r + positions[0], cols + positions[0])
            else:
                axes = [r + p for p in positions] + [cols + p for p in positions]
                t = contract(t, inner.matrix, axes, tuple(outs[p] for p in positions) * 2)
            sizes = outs
        else:
            if len(sizes) > 1:  # a leaf or an arr reads r and c whole
                t = _refactor(t, r, c, sizes, (prod(sizes),))
            n = s.output_basis.size
            if term[0] == "leaf":
                t = contract(t, s._matrix, (r, c), (n, n))
            elif not term[3]:  # an arr whose index map is the identity moves nothing
                for axis in (r, c):
                    t = _relabel(t, axis, term[1], term[2], n)
            sizes = (n,)
    return t if len(sizes) == 1 else _refactor(t, r, c, sizes, (prod(sizes),))


def _refactor(t: np.ndarray, r: int, c: int, old: tuple, new: tuple) -> np.ndarray:
    """Regroup the axes at ``r`` and ``c``, split as factors of sizes ``old``, as ``new``."""
    shape, k = t.shape, len(old)
    return t.reshape(shape[:r] + new + shape[r + k:c + k - 1] + new + shape[c + 2 * k - 1:])


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
    matrix reused), and the later terms run on its blocks in one pass.  A
    leading ``arr f`` only picks rows, since row (a1, a2) of ``arr f >> g``
    is row (f a1, f a2) of ``g``'s: the next channel ``g`` is built instead,
    and a lone ``arr f``, which is ``arr f >> arr id``, is ones at those columns."""
    rights = []
    while s._matrix is None and s._term[0] == "compose":  # a left-nested chain, without recursion
        s, right = s._term[1:]
        rights.append(right)
    if s._matrix is not None:
        m = s._matrix
    elif s._term[0] == "arr":
        target, n_mid = s._term[1], s.output_basis.size
        pairs = (target[:, None] * n_mid + target).reshape(-1)
        if rights:
            while rights[-1]._matrix is None and rights[-1]._term[0] == "compose":  # g >> h: g is next
                rights += rights.pop()._term[:0:-1]
            s = rights.pop()
            m = _fold(s)[pairs]
        else:
            m = np.zeros((len(pairs), n_mid * n_mid), dtype=complex)
            m[np.arange(len(pairs)), pairs] = 1.0
    else:
        # on: the pair space's factors are (rows, cols), so inner sits at positions P and k + P
        _, inner, positions, ins, outs = s._term
        m = place(_fold(inner), ins + ins, outs + outs, positions + tuple(len(ins) + p for p in positions))
    n = s.output_basis.size
    return _run(rights, m.reshape(len(m), n, n), 1, 2).reshape(len(m), -1)


def compose(f: Superoperator, g: Superoperator, name: str | None = None) -> Superoperator:
    """Diagrammatic composition: ``f`` acts first, then ``g``; ``name`` names the result."""
    require_composable(f, g)
    return _node(f.input_basis, g.output_basis, ("compose", f, g), name)


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
    return _node(input_basis, output_basis, ("arr", target, np.argsort(target) if bijective else None,
                                             targets == list(range(output_basis.size))), name or "arr")


def identity_arr(basis: Basis) -> Superoperator:
    return arr(lambda x: x, basis, basis, name="arr(id)")


def on(s: Superoperator, basis: Basis, positions, name: str | None = None) -> Superoperator:
    """``s`` on the factors of the product ``basis`` at ``positions``, in that order, carrying
    the others: the paper's ``outs <- s -< ins`` (Paterson's notation, which desugars to
    ``arr``, ``first`` and ``>>>``).  On several factors, ``s`` outputs as many, in their places."""
    positions, ins, outs, out_basis = placement(s.input_basis, s.output_basis, basis, positions)
    return _node(basis, out_basis, ("on", s, positions, ins, outs), name)


def first(s: Superoperator, carried: Basis) -> Superoperator:
    """Act on the left pair component, carrying the right one unchanged:
    ``on`` at position 0 of the pair."""
    return on(s, product([s.input_basis, carried]), (0,), f"first({s.name})" if s.name else "first")


def second(s: Superoperator, carried: Basis) -> Superoperator:
    """Act on the right pair component, carrying the left one unchanged: Hughes's
    ``arr swap >>> first s >>> arr swap``, whose swaps only relabel, is ``on`` at position 1."""
    return on(s, product([carried, s.input_basis]), (1,), f"second({s.name})" if s.name else "second")


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
    n_a, n_b = factors[0].size, factors[1].size
    # the (a1, a2) -> (1, 1) trace placed on the density's pair axes, b1 and b2 carried
    m = place(np.eye(n_a).reshape(-1, 1), (n_a, n_b) * 2, (1, n_b) * 2, (0, 2))
    return _node(pair_basis, factors[1], ("leaf",), f"trace_left({n_a}x{n_b})", m)


def measure(basis: Basis) -> Superoperator:
    """Measure a state in its basis, keeping both halves of the outcome.

    The output pair is (collapsed state, observed classical value); only
    diagonal input pairs contribute, which is exactly decoherence.
    """
    n = basis.size
    m = np.zeros((n * n, n ** 4), dtype=complex)
    np.einsum(m.reshape((n,) * 6), [0] * 6, [0])[...] = 1.0  # the all-equal diagonal
    return _node(basis, product([basis, basis]), ("leaf",), f"measure({n})", m)


@dataclass(frozen=True)
class EqualityReport:
    equal: bool
    max_diff: float
    worst_input: tuple[Label, Label]
    worst_output: tuple[Label, Label]

    def __str__(self) -> str:
        pin = ",".join(label_text(l) for l in self.worst_input)
        pout = ",".join(label_text(l) for l in self.worst_output)
        return (f"equal={self.equal} max_diff={self.max_diff:.3e} "
                f"at block ({pin}) entry ({pout})")


_BLOCK = 1 << 12  # |S - T| entries per row block: 64 KiB of scratch, sized on a 2-core Xeon host


def _difference(s: Superoperator, t: Superoperator) -> tuple[float, int, int]:
    """The max of |S - T| and its first (row, column) in row-major order, as ``np.argmax``
    finds them (a NaN first of all), in row blocks so that no full-size temporary is made."""
    if s.input_basis != t.input_basis or s.output_basis != t.output_basis:
        raise BasisMismatchError("cannot compare channels with differing bases")
    a, b, best, at = s.matrix, t.matrix, -1.0, (0, 0)
    step = max(1, _BLOCK // a.shape[1])
    for i in range(0, len(a), step):
        diff = np.abs(a[i:i + step] - b[i:i + step])
        row, col = divmod(int(np.argmax(diff)), diff.shape[1])
        if not diff[row, col] <= best:  # a larger entry or a NaN; a tie keeps the earlier one
            best, at = float(diff[row, col]), (i + row, col)
            if best != best:  # no later entry can be picked over the first NaN
                break
    return best, *at


def max_difference(s: Superoperator, t: Superoperator) -> float:
    return _difference(s, t)[0]


def extensional_equal(s: Superoperator, t: Superoperator, tol: float) -> EqualityReport:
    """Blockwise comparison; by linearity this decides equality on all densities."""
    require_tolerance(tol)
    max_diff, row, col = _difference(s, t)
    # row r of the matrix is the input pair divmod(r, |A|), and likewise for columns
    worst_in = tuple(map(s.input_basis.element_at, divmod(row, s.input_basis.size)))
    worst_out = tuple(map(s.output_basis.element_at, divmod(col, s.output_basis.size)))
    return EqualityReport(max_diff <= tol, max_diff, worst_in, worst_out)
