from functools import reduce
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qarrow
from qarrow import superop
from qarrow.basis import BasisMismatchError, bool_basis, product
from qarrow.circuits import GATES, LIFTED, teleport, toffoli_super
from qarrow.density import max_abs_diff, pure_density
from qarrow.linear import controlled, gate
from qarrow.superop import (
    arr,
    extensional_equal,
    first,
    identity_arr,
    lin2super,
    measure,
    permute_arr,
    trace_left,
)
from qarrow.textcircuit import (
    GATE_NAMES,
    STATE_NAMES,
    CircuitError,
    Init,
    Step,
    initial_density,
    parse_circuit,
    route,
)
from qarrow.vector import StateVector, named_state, unit

B = bool_basis()


def bundled(name):
    return (resources.files(qarrow) / "data" / name).read_text(encoding="utf-8")


def test_parse_the_bundled_toffoli_file():
    ir = parse_circuit(bundled("toffoli.qc"))
    assert ir.wires == ("a", "b", "c")
    assert len(ir.stages) == 7
    assert ir.stages[0] == Step("gate", ("c",), 6, "H")
    assert ir.stages[1] == Step("cgate", ("b", "c"), 7, "PHASE")
    assert [s.gate is not None for s in ir.stages].count(True) == 7
    assert ir.inits == (Init(("a",), "T", 4), Init(("b",), "T", 5))


def test_parse_a_minimal_circuit():
    ir = parse_circuit("wires q\ngate H q\n")
    assert ir.wires == ("q",)
    assert ir.stages == (Step("gate", ("q",), 2, "H"),)
    assert ir.inits == ()


def test_parse_accepts_crlf_and_comments():
    ir = parse_circuit("wires q r\r\n# a comment\r\nmeasure q  # trailing\r\ndiscard r\r\n")
    assert ir.stages == (Step("measure", ("q",), 3), Step("discard", ("r",), 4))


def test_parse_breaks_lines_only_at_newlines():
    line_like = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines breaks at each of these
    comment = "# note" + "".join(f"{c} more" for c in line_like) + "\n"
    assert parse_circuit("wires a\n" + comment + "gate H a\n") == parse_circuit("wires a\n\ngate H a\n")
    assert parse_circuit("wires a\r" + comment + "gate H a\r") == parse_circuit("wires a\n\ngate H a\n")
    text = "wires a\n" + comment * 2 + "gate H a\r\nbogus a\n"
    with pytest.raises(CircuitError, match="unknown directive 'bogus'") as caught:
        parse_circuit(text)
    assert caught.value.line == text[:text.index("bogus")].count("\n") + 1 == 5


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("wires q\ngate H nosuchwire\n", 2, "unknown wire"),
        ("wires q\nfrobnicate q\n", 2, "unknown directive"),
        ("wires q\ngate Q q\n", 2, "unknown gate"),
        ("wires q q\n", 1, "duplicate wire"),
        ("wires q r\ndiscard q\ngate H q\n", 3, "used after discard"),
        ("wires q\ngate H q\ninit q T\n", 3, "init must come before"),
        ("wires q\ninit q T\ninit q F\n", 3, "already initialized"),
        ("wires q r\ninit q q epr\n", 2, "distinct"),
        ("wires q r\ninit q T\ninit q r epr\n", 3, "wire 'q' already initialized"),
        ("wires q r s\ninit r T\ninit q r epr\n", 3, "wire 'r' already initialized"),
        ("wires q\ninit q BAD\n", 2, "unknown init state"),
        ("wires q\ninit q\n", 2, "malformed init"),
        ("wires q r\ncgate X q q\n", 2, "distinct"),
        ("wires q r\ncgate X q\n", 2, "malformed cgate"),
        ("wires q\ndiscard q\n", 2, "last live wire"),
        ("gate H q\n", 1, "first directive must be 'wires'"),
        ("wires q\nwires r\n", 2, "duplicate 'wires'"),
        ("# nothing here\n", 1, "missing 'wires'"),
        ("wires\n", 1, "at least one wire"),
        ("wires q\nmeasure q extra\n", 2, "malformed measure"),
    ],
)
def test_diagnostics_carry_line_numbers(text, line, message):
    with pytest.raises(CircuitError) as excinfo:
        parse_circuit(text)
    assert excinfo.value.line == line
    assert message in str(excinfo.value)
    assert f"line {line}:" in str(excinfo.value)


def test_routed_toffoli_matches_the_catalog_circuit():
    routed = route(parse_circuit(bundled("toffoli.qc")))
    assert extensional_equal(routed.pipeline, toffoli_super(), 1e-9).equal


def test_routed_teleport_matches_the_catalog_circuit():
    routed = route(parse_circuit(bundled("teleport.qc")))
    assert routed.outputs == ("eprR",)
    assert extensional_equal(routed.pipeline, teleport(), 1e-9).equal


def test_routed_apply_checks_the_density_basis():
    routed = route(parse_circuit("wires p q\ngate H q\n"))
    with pytest.raises(BasisMismatchError, match=r"expects a density over wires \('p', 'q'\)"):
        routed.apply(pure_density(named_state("qFT")))


def test_single_wire_circuit_routes_without_permutations():
    routed = route(parse_circuit("wires q\ngate H q\n"))
    assert len(routed.stages) == 1
    assert extensional_equal(routed.pipeline, lin2super(gate("hadamard")), 1e-12).equal


def test_measuring_a_superposition_mixes_it():
    ir = parse_circuit("wires q\ninit q FT\nmeasure q\n")
    out = route(ir).pipeline.apply(initial_density(ir))
    assert float(np.max(np.abs(out.matrix - np.diag([0.5, 0.5])))) < 1e-12


def test_gate_order_is_respected():
    hx = route(parse_circuit("wires q\ngate H q\ngate X q\n")).pipeline
    xh = route(parse_circuit("wires q\ngate X q\ngate H q\n")).pipeline
    report = extensional_equal(hx, xh, 1e-9)
    assert not report.equal
    assert report.max_diff > 0.1


def test_each_step_routes_to_one_stage_on_its_own_wires():
    ir = parse_circuit("wires a b c\ncgate X c a\nmeasure b\ndiscard c\ngate H a\n")
    routed = route(ir)
    assert [(s.directive, s.line) for s in routed.stages] == [
        ("cgate", 2), ("measure", 3), ("discard", 4), ("gate", 5)]
    assert [s.wires for s in routed.stages] == [("c", "a"), ("b",), ("c",), ("a",)]
    for stage in routed.stages:
        m = stage.op.matrix
        assert stage.op.input_basis.size == 2 ** len(stage.wires)
        assert not (m.shape[0] == m.shape[1] and np.array_equal(m, np.eye(m.shape[0])))
    assert np.array_equal(routed.stages[1].op.matrix, np.diag([1, 0, 0, 1]))
    assert routed.stages[2].op.output_basis.size == 1


def test_routed_stages_are_the_parsed_steps_and_keep_their_source_lines():
    ir = parse_circuit("wires a b c\n\n# a comment\ncgate X c a\nmeasure b  # keep b\n"
                       "discard c\ngate H a\n")
    routed = route(ir)
    assert routed is ir
    assert [(s.directive, s.line) for s in routed.stages] == [
        ("cgate", 4), ("measure", 5), ("discard", 6), ("gate", 7)]
    assert [s.op for s in routed.stages] == [LIFTED[k] for k in ("CX", "measure", "discard", "H")]
    assert ir.outputs == routed.outputs == ("a", "b")


def test_ghz5_routes_to_five_stages():
    text = "wires a b c d e\ngate H a\n" + "".join(
        f"cgate X {c} {t}\n" for c, t in zip("abcd", "bcde"))
    assert len(route(parse_circuit(text)).stages) == 5


def refuse_to_fold(s):
    raise AssertionError(f"{s!r} was folded to a matrix")


def test_running_a_circuit_folds_no_channel_matrix(monkeypatch):
    ir = parse_circuit("wires a b c\ninit a FT\ncgate X a b\nmeasure a\ndiscard b\ngate H c\n")
    monkeypatch.setattr(superop, "_fold", refuse_to_fold)
    out = route(ir).apply(initial_density(ir))
    assert abs(out.trace() - 1) < 1e-12


def test_the_pipeline_of_ten_wires_is_a_term_and_applies_as_the_circuit(monkeypatch):
    # its dense channel would be a 4**10 x 4**10 matrix (16 TiB)
    ir = parse_circuit("wires " + " ".join(f"w{i}" for i in range(10)) + "\ngate H w0\n" + "".join(
        f"cgate X w{i} w{i + 1}\n" for i in range(9)))
    rho = initial_density(ir)
    monkeypatch.setattr(superop, "_fold", refuse_to_fold)
    assert route(ir).pipeline.apply(rho).matrix.tobytes() == route(ir).apply(rho).matrix.tobytes()


def test_a_routed_discard_gathers_nothing_for_its_identity_drop(monkeypatch):
    # GHZ on 10 wires, then one wire traced away: the closing drop-arr maps label i to label i
    ir = parse_circuit("wires " + " ".join(f"w{i}" for i in range(10)) + "\ngate H w0\n" + "".join(
        f"cgate X w{i} w{i + 1}\n" for i in range(9)) + "discard w4\n")
    relabel = superop._relabel

    def moving_relabel(t, axis, target, inverse, n_out):
        assert not np.array_equal(target, np.arange(n_out)), "an identity index map was gathered"
        return relabel(t, axis, target, inverse, n_out)

    monkeypatch.setattr(superop, "_relabel", moving_relabel)
    out = route(ir).apply(initial_density(ir))
    expected = np.zeros((2 ** 9, 2 ** 9))
    expected[0, 0] = expected[-1, -1] = 0.5
    assert np.max(np.abs(out.matrix - expected)) < 1e-12
    assert out.basis == product([B] * 9)


def test_routed_pipeline_bases_match_the_wire_lists():
    ir = parse_circuit("wires a b c\ngate H b\ndiscard a\n")
    routed = route(ir)
    assert routed.pipeline.input_basis == product([B, B, B])
    assert routed.pipeline.output_basis == product([B, B])
    assert routed.outputs == ("b", "c")


def test_router_handles_gates_on_middle_wires():
    # H on the middle of three wires, checked against the hand-built lift
    ir = parse_circuit("wires a b c\ngate H b\n")
    routed = route(ir)
    from qarrow.linear import identity, lin_tensor
    from qarrow.superop import arr

    b3 = product([B, B, B])
    nested = lin_tensor(lin_tensor(identity(B), gate("hadamard")), identity(B))
    regroup = arr(lambda t: ((t[0], t[1]), t[2]), b3, nested.input_basis)
    flatten = arr(lambda t: (t[0][0], t[0][1], t[1]), nested.output_basis, b3)
    from qarrow.superop import compose

    expected = compose(compose(regroup, lin2super(nested)), flatten)
    assert extensional_equal(routed.pipeline, expected, 1e-12).equal


def test_router_honors_reversed_control_and_target():
    # control listed second in wire order: needs a permutation each side
    ir = parse_circuit("wires a b\ninit b T\ncgate X b a\n")
    out = route(ir).pipeline.apply(initial_density(ir))
    expected = pure_density(unit(product([B, B]), (True, True)))
    assert max_abs_diff(out, expected) < 1e-12


def test_router_discard_drops_a_wire():
    ir = parse_circuit("wires a b\ninit a T\ndiscard a\n")
    routed = route(ir)
    assert routed.outputs == ("b",)
    out = routed.pipeline.apply(initial_density(ir))
    assert max_abs_diff(out, pure_density(named_state("qFalse"))) < 1e-12


def test_unconsumed_wires_simply_remain():
    ir = parse_circuit("wires a b\ngate H a\n")
    routed = route(ir)
    assert routed.outputs == ("a", "b")


def test_empty_step_list_routes_to_the_identity():
    ir = parse_circuit("wires a b\ninit a T\n")
    routed = route(ir)
    rho = initial_density(ir)
    assert max_abs_diff(routed.pipeline.apply(rho), rho) == 0


def test_initial_density_defaults_to_all_false():
    ir = parse_circuit("wires a b\n")
    rho = initial_density(ir)
    expected = pure_density(unit(product([B, B]), (False, False)))
    assert max_abs_diff(rho, expected) == 0


def test_initial_density_with_named_states():
    ir = parse_circuit("wires a b\ninit a FT\ninit b FmT\n")
    rho = initial_density(ir)
    expected = pure_density(named_state("qFT").tensor(named_state("qFmT")))
    assert max_abs_diff(rho, expected) < 1e-15


def test_initial_density_with_adjacent_epr():
    ir = parse_circuit("wires a b\ninit a b epr\n")
    assert max_abs_diff(initial_density(ir), pure_density(named_state("epr"))) == 0


def test_initial_density_with_non_adjacent_epr():
    ir = parse_circuit("wires a b c\ninit a c epr\ninit b T\n")
    rho = initial_density(ir)
    b3 = product([B, B, B])
    r = 1 / np.sqrt(2)
    amps = np.zeros(8, dtype=complex)
    amps[b3.index_of((False, True, False))] = r
    amps[b3.index_of((True, True, True))] = r
    assert max_abs_diff(rho, pure_density(StateVector(b3, amps))) < 1e-15


def test_measure_keeps_the_wire_alive_for_later_control():
    ir = parse_circuit("wires q t\ninit q T\nmeasure q\ncgate X q t\n")
    routed = route(ir)
    out = routed.pipeline.apply(initial_density(ir))
    expected = pure_density(unit(product([B, B]), (True, True)))
    assert max_abs_diff(out, expected) < 1e-12


# Differential check: the routed kernel against a dense oracle built from the
# paper's combinators, with every wire shuffle and regrouping spelled out.

def _wires_basis(k):
    return product([B] * k)


def _part(t):
    return t if len(t) > 1 else t[0]


def _flat(x):
    return x if isinstance(x, tuple) else (x,)


def _shuffle(perm):
    return permute_arr(perm, _wires_basis(len(perm))) if len(perm) > 1 else identity_arr(B)


def _split(j, k):
    """Regroup flat k-tuples into the pair (first j wires, other wires)."""
    return arr(lambda t: (_part(t[:j]), _part(t[j:])), _wires_basis(k),
               product([_wires_basis(j), _wires_basis(k - j)]))


def _oracle_step(op, operands, live):
    """``op`` on ``operands`` and the identity elsewhere; ``None`` discards."""
    k, j = len(live), len(operands)
    perm = [live.index(w) for w in operands] + [i for i, w in enumerate(live) if w not in operands]
    if op is None:
        return _shuffle(perm) >> _split(1, k) >> trace_left(product([B, _wires_basis(k - 1)]))
    body = op
    if j < k:
        rest = _wires_basis(k - j)
        body = _split(j, k) >> first(op, rest) >> arr(
            lambda t: _flat(t[0]) + _flat(t[1]), product([op.output_basis, rest]), _wires_basis(k))
    inverse = [perm.index(i) for i in range(k)]
    return _shuffle(perm) >> body >> _shuffle(inverse)


def _oracle(ir):
    live = list(ir.wires)
    s = identity_arr(_wires_basis(len(live)))
    for step in ir.stages:
        if step.gate is not None:
            base = GATES[step.gate]
            op = lin2super(controlled(base) if len(step.wires) == 2 else base)
            s = s >> _oracle_step(op, step.wires, live)
        elif step.directive == "measure":
            s = s >> _oracle_step(measure(B) >> trace_left(product([B, B])), step.wires, live)
        else:
            s = s >> _oracle_step(None, step.wires, live)
            live.remove(step.wires[0])
    return s


@st.composite
def circuit_texts(draw):
    k = draw(st.integers(1, 4))
    wires = [f"w{i}" for i in range(k)]
    lines = ["wires " + " ".join(wires)]
    shuffled = draw(st.permutations(wires))
    if k >= 2 and draw(st.booleans()):
        lines.append(f"init {shuffled[0]} {shuffled[1]} epr")
        shuffled = shuffled[2:]
    for w in shuffled:
        lines.append(f"init {w} {draw(st.sampled_from(sorted(STATE_NAMES)))}")
    live = list(wires)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["gate", "cgate", "measure", "discard"]))
        if len(live) < 2 and kind in ("cgate", "discard"):
            kind = "gate"
        pick = draw(st.permutations(live))
        g = draw(st.sampled_from(GATE_NAMES))
        if kind == "gate":
            lines.append(f"gate {g} {pick[0]}")
        elif kind == "cgate":
            lines.append(f"cgate {g} {pick[0]} {pick[1]}")
        else:
            lines.append(f"{kind} {pick[0]}")
            if kind == "discard":
                live.remove(pick[0])
    return "\n".join(lines) + "\n"


@given(circuit_texts())
def test_routed_kernel_matches_the_dense_combinator_oracle(text):
    ir = parse_circuit(text)
    routed = route(ir)
    rho = initial_density(ir)
    out = routed.apply(rho)
    expected = _oracle(ir).apply(rho)
    assert out.basis == expected.basis
    assert max_abs_diff(out, expected) <= 1e-12
    assert max_abs_diff(routed.pipeline.apply(rho), out) <= 1e-12


def _kron_initial_density(ir):
    """The np.kron form that initial_density once had, kept as its oracle."""
    chunks = [(init.wires, named_state(STATE_NAMES.get(init.state, init.state)).amplitudes)
              for init in ir.inits]
    initialized = {w for chunk in chunks for w in chunk[0]}
    chunks += [((w,), named_state("qFalse").amplitudes) for w in ir.wires if w not in initialized]
    concat_order = [w for chunk in chunks for w in chunk[0]]
    amps = reduce(np.kron, [chunk[1] for chunk in chunks])
    axes = [concat_order.index(w) for w in ir.wires]
    amps = amps.reshape((2,) * len(axes)).transpose(axes).reshape(-1)
    return pure_density(StateVector(product([B] * len(ir.wires)), amps))


@given(circuit_texts())
def test_initial_density_matches_the_kron_oracle(text):
    ir = parse_circuit(text)
    assert np.array_equal(initial_density(ir).matrix, _kron_initial_density(ir).matrix)


def test_gate_stages_are_the_shared_lifted_gates():
    ir = parse_circuit("wires a b\ngate H a\ncgate APHASE b a\ngate H a\n")
    ops = [stage.op for stage in route(ir).stages]
    assert [id(op) for op in ops] == [id(LIFTED[n]) for n in ("H", "CAPHASE", "H")]


def test_shared_gates_cannot_be_renamed():
    ir = parse_circuit("wires a b\ngate H a\ncgate X a b\nmeasure b\n")
    names = [stage.op.name for stage in route(ir).stages]
    with pytest.raises(AttributeError):
        LIFTED["CX"].name = "x"
    with pytest.raises(AttributeError):
        gate("hadamard").name = "x"
    assert [stage.op.name for stage in route(ir).stages] == names
    assert names[:2] == ["lift(hadamard)", "lift(controlled(qnot))"]


_DIRECTIVES = st.sampled_from(["wires", "init", "gate", "cgate", "measure", "discard"])
_WORDS = st.sampled_from(["a", "b", "c", "w0", "epr", "#"] + sorted(STATE_NAMES) + list(GATE_NAMES))
_TOKENS = st.one_of(
    _DIRECTIVES,
    _WORDS,
    st.integers(-3, 10**6).map(str),
    st.text(min_size=1, max_size=4),
)
_LINE = st.one_of(
    st.lists(_TOKENS, max_size=5).map(" ".join),
    # a directive followed by plausible operands reaches the per-directive checks
    st.tuples(_DIRECTIVES, st.lists(_WORDS, max_size=3)).map(lambda d: " ".join([d[0], *d[1]])),
)
# a well-formed header two times in three, so the later directives get parsed too
_CIRCUIT_STREAMS = st.tuples(
    st.sampled_from(["", "wires a b c\n", "wires a\n"]),
    st.lists(_LINE, max_size=8).map("\n".join),
).map("".join)


@settings(max_examples=150, deadline=None)
@given(_CIRCUIT_STREAMS)
def test_parse_circuit_raises_only_circuit_errors_on_token_streams(text):
    try:
        ir = parse_circuit(text)
    except CircuitError:
        return
    # a stream that parses must also route: proc refuses outputs that are not the live wires
    routed = route(ir)
    assert routed.outputs == ir.outputs
    assert routed.pipeline.output_basis.size == 2 ** len(ir.outputs)
