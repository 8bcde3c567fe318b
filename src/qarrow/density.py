"""Density matrices: statistical states over a basis.

A :class:`DensityMatrix` over basis A is a complex matrix indexed by
ordered pairs (a1, a2), with (row, column) = (a1, a2).  Construction is
purely structural: intermediate algebra values may be unphysical, so the
Hermitian / positive-semidefinite / unit-trace checks live in
:func:`diagnostics` rather than in constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, Label, label_text, parse_label
from .vector import StateVector, frozen_array, require_same_basis, require_tolerance


class DensityMatrix:
    """Complex matrix over basis pairs; immutable."""

    __slots__ = ("basis", "_matrix")

    def __init__(self, basis: Basis, matrix):
        self.basis = basis
        self._matrix = frozen_array(matrix, (basis.size, basis.size))

    @classmethod
    def _owning(cls, basis: Basis, matrix: np.ndarray) -> "DensityMatrix":
        """A density around ``matrix``, an array the library has just made: frozen, not copied."""
        d = cls.__new__(cls)
        d.basis, d._matrix = basis, frozen_array(matrix, (basis.size, basis.size), copy=False)
        return d

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def entry(self, a1: Label, a2: Label) -> complex:
        return complex(self._matrix[self.basis.index_of(a1), self.basis.index_of(a2)])

    def trace(self) -> complex:
        return complex(np.trace(self._matrix))

    def __add__(self, other: "DensityMatrix") -> "DensityMatrix":
        require_same_basis(self, other)
        return DensityMatrix._owning(self.basis, self._matrix + other._matrix)

    def __sub__(self, other: "DensityMatrix") -> "DensityMatrix":
        require_same_basis(self, other)
        return DensityMatrix._owning(self.basis, self._matrix - other._matrix)

    def __mul__(self, k) -> "DensityMatrix":
        return DensityMatrix._owning(self.basis, k * self._matrix)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DensityMatrix({self.basis!r})"


def pure_density(v: StateVector) -> DensityMatrix:
    """Embed a state vector: entry (a1, a2) = v(a1) * conj(v(a2)).

    Global phase drops out, so vectors differing by a phase embed to the
    same density matrix.
    """
    return DensityMatrix._owning(v.basis, np.outer(v.amplitudes, v.amplitudes.conj()))


def zero_density(basis: Basis) -> DensityMatrix:
    return DensityMatrix._owning(basis, np.zeros((basis.size, basis.size), dtype=complex))


def trace(d: DensityMatrix) -> complex:
    return d.trace()


def max_abs_diff(d1: DensityMatrix, d2: DensityMatrix) -> float:
    require_same_basis(d1, d2)
    return float(np.max(np.abs(d1.matrix - d2.matrix)))


@dataclass(frozen=True)
class DiagnosticsReport:
    hermitian: bool
    psd: bool
    unit_trace: bool
    max_violation: float


def diagnostics(d: DensityMatrix, tol: float = 1e-9) -> DiagnosticsReport:
    """Physicality checks: Hermitian, positive semidefinite, unit trace.

    PSD is judged on the Hermitian part via an eigenvalue floor of ``-tol``
    (robust for rank-deficient pure states).  ``max_violation`` is the
    largest of the three deviations.
    """
    require_tolerance(tol)
    m = d.matrix
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    eigenvalues = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    psd_dev = float(max(0.0, -np.min(eigenvalues)))
    trace_dev = float(abs(d.trace() - 1.0))
    return DiagnosticsReport(
        hermitian=herm_dev <= tol,
        psd=psd_dev <= tol,
        unit_trace=trace_dev <= tol,
        max_violation=max(herm_dev, psd_dev, trace_dev),
    )


def to_json_dict(d: DensityMatrix, precision: int | None = None) -> dict:
    """JSON-ready payload: {basis: [labels], re: [[..]], im: [[..]]}.

    With ``precision`` set, each entry is rounded to that many decimals by
    Python's correctly rounded ``round`` (``np.round`` scales by
    10**precision, which is inexact and overflows past 308), so the emitted
    file parses back bit-for-bit at that precision.  A label whose text would
    not parse back to it raises ``ValueError`` rather than come back changed
    from :func:`from_json_dict`: ``F``, ``T``, the empty string, text with
    ``,`` or ``)``, text that opens with ``(`` or has surrounding whitespace,
    the empty tuple, and any atom that is neither a bool nor a string.
    """
    _require_json_labels(d.basis)
    re = d.matrix.real.tolist()
    im = d.matrix.imag.tolist()
    if precision is not None:
        re = [[round(v, precision) for v in row] for row in re]
        im = [[round(v, precision) for v in row] for row in im]
    return {
        "basis": [label_text(l) for l in d.basis],
        "re": re,
        "im": im,
    }


def _require_json_labels(basis: Basis) -> None:
    """Raise unless every label of ``basis`` parses back from its text.

    A product basis is checked through its factors, whose labels are the
    components of its tuples, so k bool wires cost 2k checks, not 2^k.
    """
    if basis.factors is not None:
        for factor in basis.factors:
            _require_json_labels(factor)
        return
    for label in basis:
        try:
            parses_back = parse_label(label_text(label)) == label
        except ValueError:
            parses_back = False
        if not parses_back:
            raise ValueError(f"basis label {label!r} would not parse back from its JSON text")


def from_json_dict(payload: dict) -> DensityMatrix:
    basis = Basis(parse_label(text) for text in payload["basis"])
    m = np.array(payload["re"], dtype=float) + 1j * np.array(payload["im"], dtype=float)
    return DensityMatrix._owning(basis, m)


def format_table(d: DensityMatrix, precision: int = 4) -> str:
    """Aligned text table with basis labels on both axes."""
    labels = [label_text(l) for l in d.basis]
    cells = [[f"{z.real:.{precision}f}{z.imag:+.{precision}f}j" for z in row] for row in d.matrix]
    lead = max(len(t) for t in labels)
    width = max(lead, max(len(c) for row in cells for c in row))
    lines = [" " * lead + "  " + "  ".join(t.rjust(width) for t in labels)]
    for label, row in zip(labels, cells):
        lines.append(label.rjust(lead) + "  " + "  ".join(c.rjust(width) for c in row))
    return "\n".join(lines)
