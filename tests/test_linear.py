import numpy as np
import pytest

from qarrow.basis import BasisMismatchError, bool_basis, product
from qarrow.linear import (
    LinearOp,
    adjoint,
    compose,
    controlled,
    from_rows,
    fun2lin,
    gate,
    identity,
    lin_plus,
    lin_tensor,
    outer,
)
from qarrow.vector import bind, named_state, unit

from oracle_bases import ORACLE_BASES

B = bool_basis()
BB = product([B, B])
R = 1 / np.sqrt(2)


def dev(actual, expected):
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected, dtype=complex))))


def random_op(rng, basis_in=B, basis_out=B):
    shape = (basis_in.size, basis_out.size)
    return LinearOp(basis_in, basis_out, rng.uniform(size=shape) + 1j * rng.uniform(size=shape))


def test_fun2lin_negation():
    assert dev(fun2lin(lambda x: not x, B, B).matrix, [[0, 1], [1, 0]]) == 0


def test_fun2lin_identity():
    assert dev(fun2lin(lambda x: x, B, B).matrix, np.eye(2)) == 0


def test_fun2lin_swap_is_the_expected_permutation():
    swap = fun2lin(lambda t: (t[1], t[0]), BB, BB)
    expected = np.eye(4)[[0, 2, 1, 3]]
    assert dev(swap.matrix, expected) == 0


def test_gate_matrices():
    assert dev(gate("qnot").matrix, [[0, 1], [1, 0]]) == 0
    assert dev(gate("phase").matrix, [[1, 0], [0, 1j]]) == 0
    assert dev(gate("hadamard").matrix, [[R, R], [R, -R]]) < 1e-15
    assert dev(gate("z").matrix, [[1, 0], [0, -1]]) == 0


def test_gate_rows_match_their_defining_states():
    assert dev(gate("phase").row(True).amplitudes, 1j * unit(B, True).amplitudes) == 0
    assert dev(gate("hadamard").row(False).amplitudes, named_state("qFT").amplitudes) < 1e-15
    assert dev(gate("z").row(True).amplitudes, -unit(B, True).amplitudes) == 0


def test_unknown_gate():
    with pytest.raises(ValueError, match="hadamard"):
        gate("toffoli")


def test_controlled_not_builds_the_entangler():
    out = bind(named_state("p1"), controlled(gate("qnot")))
    assert dev(out.amplitudes, named_state("epr").amplitudes) < 1e-15


def test_controlled_passes_through_when_control_is_off():
    rng = np.random.default_rng(3)
    f = random_op(rng)
    cf = controlled(f)
    for a in B:
        assert dev(cf.row((False, a)).amplitudes, unit(BB, (False, a)).amplitudes) == 0


def test_controlled_phase_is_the_diagonal_gate():
    assert dev(controlled(gate("phase")).matrix, np.diag([1, 1, 1, 1j])) == 0


def test_controlled_needs_square_operators():
    with pytest.raises(ValueError):
        controlled(LinearOp(B, BB, np.zeros((2, 4))))


def test_adjoint_of_phase():
    assert dev(adjoint(gate("phase")).matrix, np.diag([1, -1j])) == 0


def test_hadamard_is_self_adjoint():
    assert dev(adjoint(gate("hadamard")).matrix, gate("hadamard").matrix) == 0


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(11)
    f = random_op(rng, BB, B)
    assert dev(adjoint(adjoint(f)).matrix, f.matrix) == 0


def test_outer_products():
    q0, q1, ft = named_state("qFalse"), named_state("qTrue"), named_state("qFT")
    assert dev(outer(q0, q0).matrix, [[1, 0], [0, 0]]) == 0
    assert dev(outer(ft, ft).matrix, [[0.5, 0.5], [0.5, 0.5]]) < 1e-15
    assert dev(outer(q0, q1).matrix, [[0, 1], [0, 0]]) == 0
    with pytest.raises(BasisMismatchError):
        outer(q0, named_state("epr"))


def test_lin_plus_zero_is_identity():
    rng = np.random.default_rng(5)
    f = random_op(rng)
    zero_op = LinearOp(B, B, np.zeros((2, 2)))
    assert dev(lin_plus(f, zero_op).matrix, f.matrix) == 0
    with pytest.raises(BasisMismatchError):
        lin_plus(f, identity(BB))


def test_lin_tensor_applies_componentwise():
    op = lin_tensor(identity(B), gate("qnot"))
    out = bind(unit(BB, (False, False)), op)
    assert dev(out.amplitudes, unit(BB, (False, True)).amplitudes) == 0


def test_lin_tensor_of_hadamards_spreads_uniformly():
    hh = lin_tensor(gate("hadamard"), gate("hadamard"))
    assert dev(hh.row((False, False)).amplitudes, [0.5] * 4) < 1e-15


def test_compose_golden_identities():
    h, x, p = gate("hadamard"), gate("qnot"), gate("phase")
    assert dev(compose(h, h).matrix, np.eye(2)) < 1e-12
    assert dev(compose(x, x).matrix, np.eye(2)) == 0
    assert dev(compose(p, adjoint(p)).matrix, np.eye(2)) == 0
    with pytest.raises(BasisMismatchError):
        compose(h, identity(BB))


@pytest.mark.parametrize("name", ["qnot", "phase", "hadamard", "z"])
def test_builtin_gates_and_their_controlled_versions_are_unitary(name):
    for op in (gate(name), controlled(gate(name))):
        eye = np.eye(op.input_basis.size)
        assert dev(compose(adjoint(op), op).matrix, eye) < 1e-12


def test_compose_is_associative():
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = random_op(rng, B, BB)
        g = random_op(rng, BB, BB)
        h = random_op(rng, BB, B)
        assert dev(compose(compose(f, g), h).matrix, compose(f, compose(g, h)).matrix) < 1e-9


def test_fun2lin_is_functorial():
    f = lambda t: (t[1], t[0])
    g = lambda t: (not t[0], t[1])
    composed = fun2lin(lambda t: g(f(t)), BB, BB)
    chained = compose(fun2lin(f, BB, BB), fun2lin(g, BB, BB))
    assert dev(composed.matrix, chained.matrix) < 1e-12


def test_adjoint_reverses_composition():
    rng = np.random.default_rng(23)
    f = random_op(rng, B, BB)
    g = random_op(rng, BB, B)
    lhs = adjoint(compose(f, g))
    rhs = compose(adjoint(g), adjoint(f))
    assert dev(lhs.matrix, rhs.matrix) < 1e-12


def test_from_rows_requires_consistent_bases():
    with pytest.raises(BasisMismatchError):
        from_rows(lambda a: unit(B, a) if a else unit(BB, (a, a)), B)


def test_apply_matches_bind():
    v = named_state("qFT")
    assert dev(gate("hadamard").apply(v).amplitudes, bind(v, gate("hadamard")).amplitudes) == 0


# controlled once built its rows with from_rows and a tensor per row, and
# lin_tensor called np.kron; those forms are kept here as oracles.


def oracle_controlled(f):
    def row(label):
        ctrl, val = label
        target = f.row(val) if ctrl else unit(f.input_basis, val)
        return unit(B, ctrl).tensor(target)

    return from_rows(row, product([B, f.input_basis])).matrix


@pytest.mark.parametrize("basis", ORACLE_BASES)
def test_controlled_matches_the_row_by_row_oracle(basis):
    f = random_op(np.random.default_rng(basis.size), basis, basis)
    out = controlled(f)
    assert out.input_basis == out.output_basis == product([B, basis])
    assert np.array_equal(out.matrix, oracle_controlled(f))
    for name in ("qnot", "phase", "hadamard", "z"):
        assert np.array_equal(controlled(gate(name)).matrix, oracle_controlled(gate(name)))


@pytest.mark.parametrize("left", ORACLE_BASES)
def test_lin_tensor_matches_the_kron_oracle(left):
    rng = np.random.default_rng(left.size)
    for right in ORACLE_BASES:
        f, g = random_op(rng, left, right), random_op(rng, right, B)
        assert np.array_equal(lin_tensor(f, g).matrix, np.kron(f.matrix, g.matrix))


def test_repr_names_the_operator_or_its_shape():
    assert repr(gate("hadamard")) == "LinearOp(hadamard)"
    assert repr(LinearOp(B, BB, np.zeros((2, 4)))) == "LinearOp(2->4)"
