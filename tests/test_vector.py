import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qarrow import density, linear, superop, vector
from qarrow.basis import BasisMismatchError, bool_basis, product
from qarrow.circuits import prepare_teleport_input, teleport
from qarrow.density import DensityMatrix
from qarrow.laws import (SeededGenerator, check_arrow_laws, check_monad_laws, first_without_dual, run_all,
                         skipping_bind)
from qarrow.linear import LinearOp, controlled, from_rows, gate
from qarrow.superop import Superoperator
from qarrow.textcircuit import initial_density, parse_circuit, route
from qarrow.vector import StateVector, bind, dot, frozen_array, named_state, scale, tensor, unit, zero

from oracle_bases import ORACLE_BASES

B = bool_basis()
BB = product([B, B])
R = 1 / math.sqrt(2)

amplitude = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)


def vec(basis, amps):
    return StateVector(basis, amps)


def dev(v, amps):
    return float(np.max(np.abs(v.amplitudes - np.asarray(amps, dtype=complex))))


def test_unit_vectors_pick_out_single_labels():
    assert dev(unit(B, False), [1, 0]) == 0
    assert dev(unit(B, True), [0, 1]) == 0
    assert dev(unit(BB, (True, True)), [0, 0, 0, 1]) == 0


def test_unit_rejects_foreign_labels():
    with pytest.raises(ValueError):
        unit(B, "maybe")


def test_named_states():
    assert dev(named_state("qFalse"), [1, 0]) == 0
    assert dev(named_state("qFT"), [R, R]) < 1e-15
    assert dev(named_state("qFmT"), [R, -R]) < 1e-15
    assert dev(named_state("epr"), [R, 0, 0, R]) < 1e-15
    assert dev(named_state("p1"), [R, 0, R, 0]) < 1e-15
    assert dev(named_state("p3"), [0.5, 0.5, 0.5, 0.5]) < 1e-15
    assert abs(dot(named_state("epr"), named_state("epr")) - 1) < 1e-12


def test_unknown_state_name_lists_the_valid_ones():
    with pytest.raises(ValueError, match="qFmT"):
        named_state("bell")


def test_superpositions_from_arithmetic():
    ft = scale(R, named_state("qFalse") + named_state("qTrue"))
    fmt = scale(R, named_state("qFalse") - named_state("qTrue"))
    assert dev(ft, named_state("qFT").amplitudes) == 0
    assert dev(fmt, named_state("qFmT").amplitudes) == 0


def test_zero_is_the_additive_identity():
    v = vec(BB, [0.3 + 0.1j, -1, 2j, 0.5])
    assert dev(v + zero(BB), v.amplitudes) == 0


def test_arithmetic_requires_matching_bases():
    with pytest.raises(BasisMismatchError):
        named_state("qFT") + named_state("epr")


def test_bind_hadamard_collapses_the_plus_state():
    out = bind(named_state("qFT"), gate("hadamard"))
    assert dev(out, [1, 0]) < 1e-12


def test_bind_negation_flips_units():
    assert dev(bind(named_state("qFalse"), gate("qnot")), [0, 1]) == 0


def test_bind_controlled_not_entangles():
    out = bind(tensor(named_state("qFT"), named_state("qFalse")), controlled(gate("qnot")))
    assert dev(out, named_state("epr").amplitudes) < 1e-15


def test_bind_checks_bases():
    with pytest.raises(BasisMismatchError):
        bind(named_state("epr"), gate("qnot"))


def test_bind_accepts_continuations():
    out = bind(named_state("qFT"), lambda a: unit(B, not a))
    assert dev(out, [R, R]) < 1e-15


def test_bind_rejects_continuations_over_differing_bases():
    with pytest.raises(BasisMismatchError, match="continuation returned vectors over differing bases"):
        bind(named_state("qFT"), lambda a: unit(B, a) if a else unit(product([B, B]), (a, a)))


def test_tensor_golden_values():
    assert dev(tensor(named_state("qFT"), named_state("qFalse")), [R, 0, R, 0]) < 1e-15
    assert dev(tensor(named_state("qFalse"), named_state("qFalse")),
               unit(BB, (False, False)).amplitudes) == 0
    assert dev(tensor(named_state("qFT"), named_state("qFT")), [0.5] * 4) < 1e-15


def test_dot_golden_values():
    assert abs(dot(named_state("qFT"), named_state("qFT")) - 1) < 1e-12
    assert abs(dot(named_state("qFT"), named_state("qFmT"))) < 1e-12
    assert abs(dot(named_state("qFalse"), named_state("qTrue"))) < 1e-12


def test_dot_conjugates_its_first_argument():
    v = vec(B, [1j, 0])
    w = vec(B, [1, 0])
    assert dot(v, w) == pytest.approx(-1j)


@given(st.lists(amplitude, min_size=4, max_size=4), st.lists(amplitude, min_size=4, max_size=4))
def test_bind_is_additive(a, b):
    f = controlled(gate("phase"))
    v, w = vec(BB, a), vec(BB, b)
    lhs = bind(v + w, f)
    rhs = bind(v, f) + bind(w, f)
    assert dev(lhs, rhs.amplitudes) < 1e-12


@given(st.lists(amplitude, min_size=2, max_size=2), amplitude)
def test_bind_is_homogeneous(a, k):
    f = gate("hadamard")
    v = vec(B, a)
    assert dev(bind(scale(k, v), f), scale(k, bind(v, f)).amplitudes) < 1e-12


@given(st.lists(amplitude, min_size=4, max_size=4))
def test_self_dot_is_real_and_nonnegative(a):
    d = dot(vec(BB, a), vec(BB, a))
    assert abs(d.imag) < 1e-12
    assert d.real >= -1e-12


def test_monad_identities_at_tight_tolerance():
    # left identity on every element, right identity on an arbitrary vector
    rng = np.random.default_rng(7)
    for basis in (B, BB, product([B, B, B])):
        f_amps = rng.uniform(size=(basis.size, 4)) + 1j * rng.uniform(size=(basis.size, 4))
        f = lambda a: vec(BB, f_amps[basis.index_of(a)])
        for x in basis:
            assert dev(bind(unit(basis, x), f), f(x).amplitudes) < 1e-12
        v = vec(basis, rng.uniform(size=basis.size) + 1j * rng.uniform(size=basis.size))
        assert dev(bind(v, lambda a: unit(basis, a)), v.amplitudes) < 1e-12


def test_amplitudes_are_read_only():
    v = named_state("qFT")
    with pytest.raises(ValueError):
        v.amplitudes[0] = 9.0


@pytest.mark.parametrize("cls,bases,shape", [
    (StateVector, (BB,), (4,)),
    (LinearOp, (BB, BB), (4, 4)),
    (DensityMatrix, (BB,), (4, 4)),
    (Superoperator, (B, B), (4, 4)),
])
def test_constructors_copy_the_callers_array(cls, bases, shape):
    data = np.arange(math.prod(shape), dtype=complex).reshape(shape)
    value = cls(*bases, data)
    data[...] = -1  # the caller's array stays writable
    held = value.amplitudes if cls is StateVector else value.matrix
    assert np.array_equal(held, np.arange(math.prod(shape)).reshape(shape))


@pytest.mark.parametrize("left", ORACLE_BASES)
def test_tensor_matches_the_kron_oracle(left):
    rng = np.random.default_rng(left.size)
    for right in ORACLE_BASES:
        v = vec(left, rng.uniform(-1, 1, left.size) + 1j * rng.uniform(-1, 1, left.size))
        w = vec(right, rng.uniform(-1, 1, right.size) + 1j * rng.uniform(-1, 1, right.size))
        out = tensor(v, w)
        assert out.basis == product([left, right])
        assert np.array_equal(out.amplitudes, np.kron(v.amplitudes, w.amplitudes))


@given(st.sampled_from(ORACLE_BASES), st.sampled_from(ORACLE_BASES), st.integers(0, 2 ** 32 - 1))
def test_bind_through_a_continuation_is_bind_through_its_table(src, dst, seed):
    rng = np.random.default_rng(seed)
    v = vec(src, rng.uniform(-1, 1, src.size) + 1j * rng.uniform(-1, 1, src.size))
    table = rng.uniform(-1, 1, (src.size, dst.size)) + 1j * rng.uniform(-1, 1, (src.size, dst.size))
    f = lambda a: vec(dst, table[src.index_of(a)])
    out = bind(v, f)
    assert out.basis == dst
    assert out.amplitudes.tobytes() == bind(v, from_rows(f, src)).amplitudes.tobytes()
    # the sum over paths, accumulated one row at a time: only the summation order differs
    paths = sum(amp * f(a).amplitudes for amp, a in zip(v.amplitudes, src))
    assert float(np.max(np.abs(out.amplitudes - paths))) <= 1e-12


def test_vector_methods_and_operators():
    v = named_state("qFT")
    assert v.amplitude(True) == pytest.approx(R)
    assert dev(v.bind(gate("hadamard")), [1, 0]) < 1e-15
    assert v.dot(v) == pytest.approx(1)
    assert dev(v * 2, [2 * R, 2 * R]) == 0
    assert dev(-v, [-R, -R]) == 0
    assert repr(unit(B, True)) == f"StateVector({B!r}, [0.+0.j 1.+0.j])"


def test_frozen_array_rejects_a_wrong_shape():
    with pytest.raises(ValueError, match=r"expected shape \(2,\), got \(3,\)"):
        frozen_array([1, 2, 3], (2,))


def test_library_results_are_read_only_and_public_vectors_copy():
    v = StateVector(BB, [1, 2, 3, 4])
    h = gate("hadamard")
    results = [bind(unit(B, True), h), bind(v, lambda ab: unit(B, ab[0])), unit(B, False), zero(B),
               h.row(True), v.scale(2), -v, tensor(v, v), v + v, v - v]
    for w in results:
        assert not w.amplitudes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w.amplitudes[0] = 5
    # a row is a view of the gate's frozen matrix, which stays frozen
    assert np.shares_memory(h.row(True).amplitudes, h.matrix) and not h.matrix.flags.writeable
    a = np.array([1, 2, 3, 4], dtype=complex)
    w = StateVector(BB, a)
    a[0] = 9
    assert w.amplitude((False, False)) == 1 and a.flags.writeable
    with pytest.raises(ValueError, match=r"expected shape \(4,\), got \(3,\)"):
        StateVector._owning(BB, np.zeros(3, dtype=complex))


def test_the_library_makes_no_defensive_copy(monkeypatch):
    # the public constructors copy a caller's array; every value the library
    # makes for itself, the mutation fixtures' included, adopts the array just made for it
    qubits = [SeededGenerator(seed).qubit() for seed in range(8)]
    ghz10 = "wires " + " ".join(f"w{i}" for i in range(10)) + "\ngate H w0\n" + "".join(
        f"cgate X w{i} w{i + 1}\n" for i in range(9))
    copies = []

    def counting(data, shape, copy=True):
        if copy:
            copies.append(shape)
        return frozen_array(data, shape, copy)

    for module in (vector, linear, density, superop):
        monkeypatch.setattr(module, "frozen_array", counting)
    run_all(seed=0)
    check_monad_laws(SeededGenerator(0), bind_fn=skipping_bind)
    check_arrow_laws(SeededGenerator(0), first_fn=first_without_dual)
    for q in qubits:
        teleport().apply(prepare_teleport_input(q))
    ir = parse_circuit(ghz10)
    out = route(ir).apply(initial_density(ir))
    ghz5 = route(parse_circuit("wires a b c d e\ngate H a\n" + "".join(
        f"cgate X {c} {t}\n" for c, t in zip("abcd", "bcde")))).pipeline.matrix
    assert copies == []
    assert abs(ghz5[0, 31 * 32 + 31] - 0.5) < 1e-12  # |0..0><0..0| -> (|0..0> + |1..1>)/sqrt 2
    assert abs(out.entry((True,) * 10, (True,) * 10) - 0.5) < 1e-12
