"""Amplitude vectors over a basis.

A :class:`StateVector` assigns a complex amplitude to every element of its
basis.  Vectors form a plain complex vector space: nothing here normalizes,
and the algebra is defined for arbitrary (even unphysical) amplitudes.
Sequencing is :func:`bind`, which sums over the input basis exactly as the
sum-over-paths picture suggests.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import Basis, BasisMismatchError, Label, bool_basis, product


class StateVector:
    """Dense complex amplitudes indexed by a basis.  Immutable."""

    __slots__ = ("basis", "_amps")

    def __init__(self, basis: Basis, amplitudes):
        self.basis = basis
        self._amps = frozen_array(amplitudes, (basis.size,))

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only amplitude array in basis enumeration order."""
        return self._amps

    def amplitude(self, label: Label) -> complex:
        return complex(self._amps[self.basis.index_of(label)])

    def scale(self, k: complex) -> "StateVector":
        return StateVector(self.basis, k * self._amps)

    def bind(self, f) -> "StateVector":
        return bind(self, f)

    def tensor(self, other: "StateVector") -> "StateVector":
        return tensor(self, other)

    def dot(self, other: "StateVector") -> complex:
        return dot(self, other)

    def __add__(self, other: "StateVector") -> "StateVector":
        require_same_basis(self, other)
        return StateVector(self.basis, self._amps + other._amps)

    def __sub__(self, other: "StateVector") -> "StateVector":
        require_same_basis(self, other)
        return StateVector(self.basis, self._amps - other._amps)

    def __mul__(self, k) -> "StateVector":
        return self.scale(k)

    __rmul__ = __mul__

    def __neg__(self) -> "StateVector":
        return self.scale(-1)

    def __repr__(self) -> str:
        return f"StateVector({self.basis!r}, {np.array2string(self._amps, precision=4)})"


def frozen_array(data, shape: tuple[int, ...], copy: bool = True) -> np.ndarray:
    """Read-only complex array of ``data``, which must have ``shape``; all value types use it.

    The public constructors copy, so a caller's array stays the caller's.
    ``copy=False`` is for an array the library has just made and hands over:
    it is frozen in place.
    """
    a = np.array(data, dtype=complex) if copy else np.asarray(data, dtype=complex)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


def tabulate(fn, basis: Basis, what: str) -> tuple[Basis, np.ndarray]:
    """``fn``'s vectors over ``basis`` as their one common basis and a matrix, one row per label."""
    rows = [fn(label) for label in basis]
    out = rows[0].basis
    if any(row.basis != out for row in rows):
        raise BasisMismatchError(f"{what} returned vectors over differing bases")
    return out, np.stack([row._amps for row in rows])


def require_same_basis(x, y) -> None:
    """Raise unless vectors or densities ``x`` and ``y`` share one basis."""
    if x.basis != y.basis:
        raise BasisMismatchError(f"bases differ: {x.basis!r} vs {y.basis!r}")


def require_tolerance(tol: float) -> None:
    """The one tolerance rule: ``tol`` must be positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive")


def unit(basis: Basis, label: Label) -> StateVector:
    """The computation terminating at ``label``: amplitude 1 there, 0 elsewhere."""
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.index_of(label)] = 1.0
    return StateVector(basis, amps)


def zero(basis: Basis) -> StateVector:
    return StateVector(basis, np.zeros(basis.size, dtype=complex))


def scale(k: complex, v: StateVector) -> StateVector:
    return v.scale(k)


def bind(v: StateVector, f) -> StateVector:
    """Sequence ``v`` through ``f``: result(b) = sum over a of v(a) * f(a)(b).

    ``f`` may be a :class:`~qarrow.linear.LinearOp` whose input basis matches
    ``v.basis``, or any callable mapping each basis label to a StateVector
    over one common output basis (the continuation form used when the output
    of one step feeds the next).  A continuation is first tabulated into a
    matrix, as :func:`~qarrow.linear.from_rows` does, so both forms bind by
    one row-vector/matrix product.
    """
    if getattr(f, "matrix", None) is None:
        out_basis, matrix = tabulate(f, v.basis, "continuation")
    elif v.basis != f.input_basis:
        raise BasisMismatchError(
            f"cannot bind vector over {v.basis!r} through operator expecting {f.input_basis!r}"
        )
    else:
        out_basis, matrix = f.output_basis, f.matrix
    return StateVector(out_basis, v.amplitudes @ matrix)


def tensor(v: StateVector, w: StateVector) -> StateVector:
    """Tensor product over the product basis; (a,b) entry is v(a) * w(b)."""
    return StateVector(product([v.basis, w.basis]), (v.amplitudes[:, None] * w.amplitudes).reshape(-1))


def dot(v: StateVector, w: StateVector) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    require_same_basis(v, w)
    return complex(np.vdot(v.amplitudes, w.amplitudes))


_BOOL = bool_basis()
_PAIR = product([_BOOL, _BOOL])
_R = 1.0 / math.sqrt(2.0)
_Q_FT = scale(_R, unit(_BOOL, False) + unit(_BOOL, True))
_NAMED: dict[str, StateVector] = {
    "qFalse": unit(_BOOL, False),
    "qTrue": unit(_BOOL, True),
    "qFT": _Q_FT,
    "qFmT": scale(_R, unit(_BOOL, False) - unit(_BOOL, True)),
    "epr": scale(_R, unit(_PAIR, (False, False)) + unit(_PAIR, (True, True))),
    "p1": tensor(_Q_FT, unit(_BOOL, False)),
    "p2": tensor(unit(_BOOL, False), _Q_FT),
    "p3": tensor(_Q_FT, _Q_FT),
}


def named_state(name: str) -> StateVector:
    """Well-known states: qFalse, qTrue, qFT, qFmT, epr, p1, p2, p3.

    ``qFT``/``qFmT`` are the equal-weight superpositions with plus/minus
    sign; ``epr`` is the maximally entangled pair with amplitude 1/sqrt(2)
    on (F,F) and (T,T); p1..p3 are the standard tensor-product examples.
    """
    try:
        return _NAMED[name]
    except KeyError:
        valid = ", ".join(sorted(_NAMED))
        raise ValueError(f"unknown state name {name!r}; valid names: {valid}") from None
