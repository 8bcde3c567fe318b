"""Circuit-level checks.

The doubly-controlled-not oracle below is built independently of the library:
standard column-convention gate matrices are embedded into 8x8 operators with
plain numpy kron/index arithmetic and multiplied out, then compared against
both library constructions.
"""

from importlib import resources

import numpy as np
import pytest

import qarrow
import qarrow.circuits
import qarrow.superop
from qarrow.basis import Basis, BasisMismatchError, bool_basis, product
from qarrow.circuits import (
    LIFTED,
    alice,
    bob,
    copy,
    prepare_teleport_input,
    proc,
    teleport,
    toffoli_lin,
    toffoli_super,
    weaken,
)
from qarrow.density import DensityMatrix, diagnostics, max_abs_diff, pure_density
from qarrow.laws import SeededGenerator, first_without_dual
from qarrow.linear import adjoint, controlled, from_rows, fun2lin, gate
from qarrow.superop import arr, compose, extensional_equal, first, identity_arr, lin2super, on, trace_left
from qarrow.textcircuit import parse_circuit, route
from qarrow.vector import StateVector, bind, named_state, unit

B = bool_basis()
BB = product([B, B])
B3 = product([B, B, B])
R = 1 / np.sqrt(2)

# --- independent oracle: column-convention matrices, top wire most significant

H = np.array([[R, R], [R, -R]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CPHASE = np.diag([1, 1, 1, 1j]).astype(complex)
CAPHASE = np.diag([1, 1, 1, -1j]).astype(complex)


def _cphase_top_bottom(sign):
    d = [sign if (i >> 2) & 1 and i & 1 else 1 for i in range(8)]
    return np.diag(d).astype(complex)


def oracle_toffoli_matrix():
    eye2, eye4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    stages = [
        np.kron(eye4, H),                 # hadamard on bottom
        np.kron(eye2, CPHASE),            # controlled phase middle -> bottom
        np.kron(CNOT, eye2),              # controlled not top -> middle
        np.kron(eye2, CAPHASE),           # controlled adjoint phase middle -> bottom
        np.kron(CNOT, eye2),              # controlled not top -> middle
        _cphase_top_bottom(1j),           # controlled phase top -> bottom
        np.kron(eye4, H),                 # hadamard on bottom
    ]
    u = np.eye(8, dtype=complex)
    for stage in stages:
        u = stage @ u
    return u


def nested_toffoli_lin():
    """The do-block with every later gate bound inside the previous one's
    continuation: 21,848 binds, kept as a differential oracle."""
    h = gate("hadamard")
    cnot = controlled(gate("qnot"))
    cphase = controlled(gate("phase"))
    caphase = controlled(adjoint(gate("phase")))

    def row(label):
        top, middle, bottom = label
        return bind(h.row(bottom), lambda b1:
               bind(cphase.row((middle, b1)), lambda mb:
               bind(cnot.row((top, mb[0])), lambda tm:
               bind(caphase.row((tm[1], mb[1])), lambda mb2:
               bind(cnot.row((tm[0], mb2[0])), lambda tm2:
               bind(cphase.row((tm2[0], mb2[1])), lambda tb:
               bind(h.row(tb[1]), lambda b5:
               unit(B3, (tb[0], tm2[1], b5)))))))))

    return from_rows(row, B3, name="toffoli")


def toffoli_fn(label):
    a, b, c = label
    return (a, b, c != (a and b))


def flat3(v1, v2, v3):
    return StateVector(B3, np.kron(np.kron(v1.amplitudes, v2.amplitudes), v3.amplitudes))


def test_toffoli_lin_matches_the_multiplied_component_matrices():
    # rows-per-input convention is the transpose of the column convention
    assert float(np.max(np.abs(toffoli_lin().matrix - oracle_toffoli_matrix().T))) < 1e-12


def test_toffoli_lin_matches_the_nested_do_block():
    assert float(np.max(np.abs(toffoli_lin().matrix - nested_toffoli_lin().matrix))) < 1e-12


def test_toffoli_lin_binds_once_per_gate_and_label(monkeypatch):
    calls = 0

    def counting_bind(v, f):
        nonlocal calls
        calls += 1
        return bind(v, f)

    monkeypatch.setattr(qarrow.circuits, "bind", counting_bind)
    toffoli_lin()
    # 7 steps x 8 rows, the steps themselves placed without a bind; the nested block makes 21,848
    assert calls == 56


@pytest.mark.parametrize(
    "source, target",
    [
        ((True, True, False), (True, True, True)),
        ((True, False, False), (True, False, False)),
        ((False, False, False), (False, False, False)),
        ((False, False, True), (False, False, True)),
    ],
)
def test_toffoli_lin_truth_table(source, target):
    row = toffoli_lin().row(source)
    expected = unit(B3, target)
    assert float(np.max(np.abs(row.amplitudes - expected.amplitudes))) < 1e-12


def test_toffoli_lin_is_the_lifted_truth_table():
    assert float(np.max(np.abs(toffoli_lin().matrix - fun2lin(toffoli_fn, B3, B3).matrix))) < 1e-12


def test_toffoli_super_equals_the_lifted_linear_construction():
    assert extensional_equal(toffoli_super(), lin2super(toffoli_lin()), 1e-9).equal


def test_toffoli_super_equals_the_truth_table_channel():
    assert extensional_equal(toffoli_super(), lin2super(fun2lin(toffoli_fn, B3, B3)), 1e-9).equal


def test_toffoli_super_on_a_pure_input():
    out = toffoli_super().apply(pure_density(unit(B3, (True, True, False))))
    assert max_abs_diff(out, pure_density(unit(B3, (True, True, True)))) < 1e-9


def test_toffoli_super_fixes_the_maximally_mixed_state():
    mixed = DensityMatrix(B3, np.eye(8) / 8.0)
    assert max_abs_diff(toffoli_super().apply(mixed), mixed) < 1e-12


def test_alice_output_is_diagonal():
    gen = SeededGenerator(101)
    al = alice()
    for _ in range(10):
        rho = pure_density(StateVector(BB, np.kron(gen.qubit().amplitudes, gen.qubit().amplitudes)))
        out = al.apply(rho).matrix
        off = out - np.diag(np.diag(out))
        assert float(np.max(np.abs(off))) < 1e-12


def test_alice_preserves_trace():
    gen = SeededGenerator(103)
    al = alice()
    for _ in range(10):
        rho = pure_density(StateVector(BB, np.kron(gen.qubit().amplitudes, gen.qubit().amplitudes)))
        assert abs(al.apply(rho).trace() - rho.trace()) < 1e-12


def test_alice_on_the_all_false_input():
    # hand oracle: with q = F the cnot is inert, the hadamard puts q in an
    # equal superposition, and measuring the (q, eprL) pair yields (F,F) and
    # (T,F) with probability 1/2 each -- the first outcome bit varies
    rho = pure_density(StateVector(BB, np.kron([1, 0], [1, 0])))
    out = alice().apply(rho).matrix
    expected = np.diag([0.5, 0.0, 0.5, 0.0])
    assert float(np.max(np.abs(out - expected))) < 1e-12


def test_bob_with_both_controls_off_passes_the_qubit_through():
    rho = pure_density(flat3(named_state("qFT"), unit(B, False), unit(B, False)))
    out = bob().apply(rho)
    assert max_abs_diff(out, pure_density(named_state("qFT"))) < 1e-12


def test_bob_applies_the_not_correction():
    rho = pure_density(flat3(named_state("qTrue"), unit(B, False), unit(B, True)))
    out = bob().apply(rho)
    assert max_abs_diff(out, pure_density(named_state("qFalse"))) < 1e-12


def test_bob_preserves_trace():
    gen = SeededGenerator(107)
    rho = pure_density(flat3(gen.qubit(), unit(B, True), unit(B, False)))
    assert abs(bob().apply(rho).trace() - rho.trace()) < 1e-12


def test_prepared_teleport_input_is_physical():
    report = diagnostics(prepare_teleport_input(named_state("qFT")), tol=1e-12)
    assert report.hermitian and report.psd and report.unit_trace


def test_prepare_teleport_input_needs_a_single_qubit():
    with pytest.raises(ValueError):
        prepare_teleport_input(named_state("epr"))


@pytest.mark.parametrize("name", ["qFalse", "qTrue", "qFT", "qFmT"])
def test_teleport_recreates_named_states(name):
    q = named_state(name)
    out = teleport().apply(prepare_teleport_input(q))
    assert max_abs_diff(out, pure_density(q)) < 1e-9


def test_teleport_is_the_identity_channel_on_random_qubits():
    gen = SeededGenerator(42)
    channel = teleport()
    for _ in range(20):
        q = gen.qubit()
        out = channel.apply(prepare_teleport_input(q))
        assert max_abs_diff(out, pure_density(q)) < 1e-9


def test_copy_shares_rather_than_clones():
    out = copy().apply(pure_density(named_state("qFT")))
    assert max_abs_diff(out, pure_density(named_state("epr"))) < 1e-12
    classical = copy().apply(pure_density(named_state("qFalse")))
    assert max_abs_diff(classical, pure_density(unit(BB, (False, False)))) < 1e-12


def test_weaken_turns_the_entangled_pair_back_into_a_superposition():
    out = weaken().apply(pure_density(named_state("epr")))
    assert max_abs_diff(out, pure_density(named_state("qFT"))) < 1e-12


def test_weaken_is_not_trace_preserving():
    out = weaken().apply(pure_density(named_state("p3")))
    assert abs(out.trace() - 2.0) < 1e-12


def test_weaken_differs_from_the_physical_discard():
    # discarding the left half of the entangled pair through the partial
    # trace yields the mixed state, not the superposition weaken claims
    swap = arr(lambda t: (t[1], t[0]), BB, BB)
    physical = compose(swap, trace_left(BB))
    rho = pure_density(named_state("epr"))
    discarded = physical.apply(rho)
    assert float(np.max(np.abs(discarded.matrix - np.diag([0.5, 0.5])))) < 1e-12
    forgotten = weaken().apply(rho)
    assert max_abs_diff(discarded, forgotten) == pytest.approx(0.5, abs=1e-12)
    report = extensional_equal(weaken(), physical, 1e-12)
    assert not report.equal


def test_catalog_entries_run_and_match_their_expectations():
    for build, rho, expected in [
        # doubly-controlled not on (top, middle, bottom), input |T,T,F>
        (toffoli_super, pure_density(unit(B3, (True, True, False))),
         pure_density(unit(B3, (True, True, True)))),
        # teleport the superposed qubit qFT over a shared entangled pair
        (teleport, prepare_teleport_input(named_state("qFT")), pure_density(named_state("qFT"))),
    ]:
        assert max_abs_diff(build().apply(rho), expected) < 1e-9


BUILDERS = [toffoli_super, teleport, alice, bob, copy, weaken]


def test_every_call_wires_a_fresh_circuit():
    for build in BUILDERS:  # teleport among them
        assert build() is not build()


def test_building_every_circuit_twice_leaves_the_shared_leaves_unchanged():
    # the parts that circuits share: the one step table of lifted gates, measure and discard
    before = {k: (s.name, s.matrix.tobytes()) for k, s in LIFTED.items()}
    for _ in range(2):
        for build in BUILDERS:
            built = build()
            built.matrix
            n = built.input_basis.size
            built.apply(DensityMatrix(built.input_basis, np.eye(n) / n))
    assert {k: (s.name, s.matrix.tobytes()) for k, s in LIFTED.items()} == before


def test_each_circuit_names_its_own_top_level_term():
    assert [build().name for build in (toffoli_super, alice, bob, teleport)] == [
        "toffoli", "alice", "bob", "teleport"]
    with pytest.raises(AttributeError):
        teleport().name = "renamed"


def _routed_teleport():
    text = (resources.files(qarrow) / "data" / "teleport.qc").read_text(encoding="utf-8")
    return route(parse_circuit(text)).pipeline


def test_a_second_teleport_build_only_wires_shared_parts(monkeypatch):
    builders = [teleport, toffoli_super, alice, bob, _routed_teleport]
    for build in builders:
        build()
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Basis, "__init__", counting("Basis.__init__", Basis.__init__))
    for module in (qarrow.circuits, qarrow.superop):
        for name in ("lin2super", "measure", "trace_left"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for build in builders:
        build()
        assert calls == [], build.__name__


def test_proc_places_each_line_on_its_wires_and_keeps_the_outputs_in_order():
    swap_then_x = proc(("a", "b"), [("X", ("b",))], ("b", "a"))
    out = swap_then_x.apply(pure_density(unit(BB, (False, True))))
    assert max_abs_diff(out, pure_density(unit(BB, (False, False)))) == 0.0
    kept = proc(("a", "b"), [("measure", ("a",)), ("discard", ("a",))], ("b",))
    assert kept.output_basis == B
    assert extensional_equal(kept, trace_left(BB), 1e-15).equal  # measuring before a discard changes nothing


@pytest.mark.parametrize("lines, outputs, wire", [
    ([("H", ("a",))], ("a",), "'b'"),  # leaving a live wire out would be weaken
    ([("discard", ("b",))], ("a", "b"), "'b'"),
    ([("H", ("a",))], ("a", "a", "b"), "'a'"),
    ([("H", ("c",))], ("a", "b"), "'c'"),
    ([("H", ("a",))], ("a", "c"), "'c'"),
], ids=["live-left-out", "discarded-output", "output-twice", "unknown-line-wire", "unknown-output"])
def test_proc_refuses_a_wire_that_is_unknown_or_not_output_once_while_live(lines, outputs, wire):
    with pytest.raises(ValueError, match=wire):
        proc(("a", "b"), lines, outputs)


@pytest.mark.parametrize("wires, outputs", [(("a", "a"), ("a",)), (("a", "b", "a"), ("a", "b")),
                                             (("a", "b", "b"), ("a", "b"))])
def test_proc_refuses_a_repeated_wire(wires, outputs):
    # with the last "a" standing for both, ("a", "a") -> ("a",) would be weaken: |T,F> -> |F>
    repeated = "a" if wires.count("a") > 1 else "b"
    with pytest.raises(ValueError, match=f"repeated wire '{repeated}'"):
        proc(wires, [], outputs)


def test_proc_refuses_a_line_on_a_discarded_wire():
    with pytest.raises(BasisMismatchError):
        proc(("a", "b"), [("discard", ("a",)), ("H", ("a",))], ("b",))


def test_prepare_teleport_input_matches_the_kron_oracle():
    gen = SeededGenerator(7)
    for _ in range(10):
        q = gen.qubit()
        amps = np.kron(named_state("epr").amplitudes, q.amplitudes)
        want = pure_density(StateVector(product([bool_basis()] * 3), amps))
        assert np.array_equal(prepare_teleport_input(q).matrix, want.matrix)


def probe_difference(s, t):
    """The largest entry of ``s(X) - t(X)`` over 2 seeded, non-Hermitian complex Gaussian ``X``,
    each wrapped as a density over its term's own input basis (equal sizes list their labels in
    the same row-major order); no matrix is folded.  Channels are linear, so a nonzero ``s - t``
    vanishes on such an ``X`` with probability 0 (Freivalds 1977)."""
    n = s.input_basis.size
    assert t.input_basis.size == n and s.output_basis.size == t.output_basis.size
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sx = s.apply(DensityMatrix(s.input_basis, x)).matrix
        tx = t.apply(DensityMatrix(t.input_basis, x)).matrix
        worst = max(worst, float(np.max(np.abs(sx - tx))))
    return worst


B9, B10 = product([B] * 9), product([B] * 10)


@pytest.mark.parametrize("top, middle, bottom", [(0, 1, 2), (7, 2, 5), (9, 0, 4)])
def test_the_toffoli_chain_on_three_of_ten_wires_is_the_placed_toffoli(top, middle, bottom):
    wires = [f"w{i}" for i in range(10)]
    name = dict(zip(("top", "middle", "bottom"), (wires[top], wires[middle], wires[bottom])))
    chain = proc(wires, [(g, tuple(name[w] for w in ins)) for g, ins in qarrow.circuits._TOFFOLI], wires)
    assert probe_difference(chain, on(toffoli_super(), B10, (top, middle, bottom))) <= 1e-12


def test_two_hadamards_on_ten_wires_are_the_identity():
    h = first(LIFTED["H"], B9)
    assert probe_difference(h >> h, identity_arr(B10)) <= 1e-12


def test_the_probes_tell_first_from_its_mutation():
    assert probe_difference(first_without_dual(LIFTED["H"], B3), first(LIFTED["H"], B3)) > 0.1
