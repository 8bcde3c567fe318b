import json

import numpy as np
import pytest

from qarrow.basis import Basis, BasisMismatchError, bool_basis, product
from qarrow.density import (
    DensityMatrix,
    diagnostics,
    format_table,
    from_json_dict,
    max_abs_diff,
    pure_density,
    to_json_dict,
    trace,
    zero_density,
)
from qarrow.vector import StateVector, dot, named_state, scale

B = bool_basis()


def dev(actual, expected):
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected, dtype=complex))))


def test_pure_density_golden_matrices():
    assert dev(pure_density(named_state("qFalse")).matrix, [[1, 0], [0, 0]]) == 0
    assert dev(pure_density(named_state("qTrue")).matrix, [[0, 0], [0, 1]]) == 0
    assert dev(pure_density(named_state("qFT")).matrix, [[0.5, 0.5], [0.5, 0.5]]) < 1e-12


def test_trace_values():
    assert abs(pure_density(named_state("qFT")).trace() - 1) < 1e-12
    assert abs(trace(DensityMatrix(B, np.diag([0.5, 0.5]))) - 1) == 0
    assert zero_density(B).trace() == 0


def test_entry_uses_pair_order():
    d = pure_density(named_state("qFalse"))
    assert d.entry(False, False) == 1
    assert d.entry(True, True) == 0


def test_diagnostics_on_valid_states():
    report = diagnostics(pure_density(named_state("epr")), tol=1e-9)
    assert report.hermitian and report.psd and report.unit_trace
    assert report.max_violation < 1e-9
    mixed = diagnostics(DensityMatrix(B, np.diag([0.5, 0.5])), tol=1e-9)
    assert mixed.hermitian and mixed.psd and mixed.unit_trace


def test_diagnostics_flags_violations():
    report = diagnostics(DensityMatrix(B, [[0, 1], [0, 0]]), tol=1e-9)
    assert not report.hermitian
    assert report.max_violation >= 1.0
    heavy = diagnostics(DensityMatrix(B, np.diag([2.0, 0.0])), tol=1e-9)
    assert heavy.hermitian and heavy.psd and not heavy.unit_trace
    negative = diagnostics(DensityMatrix(B, np.diag([1.5, -0.5])), tol=1e-9)
    assert not negative.psd


def test_diagnostics_requires_positive_tolerance():
    with pytest.raises(ValueError):
        diagnostics(zero_density(B), tol=0)


def test_trace_of_pure_density_is_the_self_dot():
    rng = np.random.default_rng(31)
    for basis in (B, product([B, B]), product([B, B, B])):
        v = StateVector(basis, rng.uniform(size=basis.size) + 1j * rng.uniform(size=basis.size))
        assert abs(pure_density(v).trace() - dot(v, v)) < 1e-12


def test_pure_density_is_hermitian_psd_even_unnormalized():
    rng = np.random.default_rng(37)
    v = StateVector(product([B, B]), 3 * rng.uniform(size=4) + 2j * rng.uniform(size=4))
    report = diagnostics(pure_density(v), tol=1e-12)
    assert report.hermitian and report.psd


@pytest.mark.parametrize("theta", [0.1, 1.0, 2.5, np.pi])
def test_global_phase_is_invisible(theta):
    v = named_state("qFT")
    rotated = scale(np.exp(1j * theta), v)
    assert max_abs_diff(pure_density(rotated), pure_density(v)) < 1e-12


def test_density_addition_and_scaling():
    half = 0.5 * pure_density(named_state("qFalse")) + 0.5 * pure_density(named_state("qTrue"))
    assert dev(half.matrix, np.diag([0.5, 0.5])) == 0
    with pytest.raises(BasisMismatchError):
        pure_density(named_state("qFT")) + pure_density(named_state("epr"))


def test_json_round_trip_is_exact():
    d = pure_density(named_state("epr"))
    payload = json.loads(json.dumps(to_json_dict(d)))
    back = from_json_dict(payload)
    assert back.basis == d.basis
    assert np.array_equal(back.matrix, d.matrix)


def test_json_round_trip_at_precision_is_bit_for_bit():
    d = pure_density(named_state("qFT"))
    payload = json.loads(json.dumps(to_json_dict(d, precision=4)))
    back = from_json_dict(payload)
    rounded = np.round(d.matrix.real, 4) + 1j * np.round(d.matrix.imag, 4)
    assert np.array_equal(back.matrix, rounded)


@pytest.mark.parametrize("precision", [300, 309, 400])
def test_json_at_a_large_precision_keeps_entries_finite_and_rounded(precision):
    # a large, a tiny, a subnormal and a zero entry; 10**precision itself overflows past 308
    d = DensityMatrix(B, [[1e10, 0.1 + 1e-300j], [-2.5e-23, 5e-324]])
    payload = to_json_dict(d, precision=precision)
    for part, key in ((d.matrix.real, "re"), (d.matrix.imag, "im")):
        assert payload[key] == [[round(x, precision) for x in row] for row in part.tolist()]
        assert np.all(np.isfinite(payload[key]))


def _round_trip(basis):
    d = DensityMatrix(basis, np.eye(basis.size) / basis.size)
    return from_json_dict(json.loads(json.dumps(to_json_dict(d))))


@pytest.mark.parametrize(
    "basis",
    [
        B,
        product([B, B, B]),
        product([product([B, B]), B]),
        Basis(["up", "down", "a b", "FT", "t"]),
        product([B, Basis(["x", "y"])]),
        Basis([(("a", True), "b"), (("a", False), "c")]),
    ],
    ids=["bool", "bool-triple", "nested-tuple", "strings", "bool-by-string", "mixed"],
)
def test_json_labels_round_trip(basis):
    assert _round_trip(basis).basis.labels == basis.labels


@pytest.mark.parametrize(
    "label",
    ["F", "T", "", "a,b", "(a", "a)", " a", "a ", "\ta", 3, ()],
)
def test_json_labels_that_would_not_parse_back_raise(label):
    # inside a plain basis and as a tuple component under a product
    for basis in (Basis(["ok", label]), product([B, Basis(["ok", label])])):
        with pytest.raises(ValueError, match="would not parse back") as info:
            to_json_dict(DensityMatrix(basis, np.eye(basis.size)))
        assert repr(label) in str(info.value)


def test_format_table_shows_labels_and_values():
    text = format_table(pure_density(named_state("epr")), precision=3)
    assert "(F,F)" in text and "(T,T)" in text
    assert "0.500+0.000j" in text
    lines = text.splitlines()
    assert len(lines) == 5
    assert len({len(line) for line in lines[1:]}) == 1


def test_max_abs_diff_requires_matching_bases():
    with pytest.raises(BasisMismatchError):
        max_abs_diff(pure_density(named_state("qFT")), pure_density(named_state("epr")))
