import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qarrow import superop
from qarrow.basis import Basis, BasisMismatchError, bool_basis, product
from qarrow.circuits import prepare_teleport_input, teleport, toffoli_super
from qarrow.density import DensityMatrix, max_abs_diff, pure_density, zero_density
from qarrow.linear import LinearOp, compose as compose_lin, controlled, gate, identity, lin_tensor
from qarrow.superop import (
    arr,
    compose,
    extensional_equal,
    first,
    identity_arr,
    lin2super,
    max_difference,
    measure,
    parallel,
    permute_arr,
    second,
    Superoperator,
    trace_left,
)
from qarrow.vector import StateVector, bind, named_state, tensor, unit

from oracle_bases import FIVE, ORACLE_BASES, RGB

B = bool_basis()
BB = product([B, B])


def dev(actual, expected):
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected, dtype=complex))))


def random_density(rng, basis, physical=True):
    v = StateVector(basis, rng.uniform(size=basis.size) + 1j * rng.uniform(size=basis.size))
    w = StateVector(basis, rng.uniform(size=basis.size) + 1j * rng.uniform(size=basis.size))
    d = pure_density(v) + pure_density(w)
    if physical:
        d = (1.0 / d.trace().real) * d
    return d


def test_lifted_hadamard_fixes_the_mixed_state():
    mixed = DensityMatrix(B, np.diag([0.5, 0.5]))
    out = lin2super(gate("hadamard")).apply(mixed)
    assert max_abs_diff(out, mixed) < 1e-12


def test_lifted_hadamard_collapses_the_plus_projector():
    # oracle: push the vector through bind, then embed
    expected = pure_density(bind(named_state("qFT"), gate("hadamard")))
    out = lin2super(gate("hadamard")).apply(pure_density(named_state("qFT")))
    assert max_abs_diff(out, expected) < 1e-12
    assert max_abs_diff(out, pure_density(named_state("qFalse"))) < 1e-12


def test_lifted_identity_is_the_identity_channel():
    rng = np.random.default_rng(41)
    d = random_density(rng, BB)
    assert max_abs_diff(lin2super(identity(BB)).apply(d), d) < 1e-12


def test_lifted_not_flips_projectors():
    out = lin2super(gate("qnot")).apply(pure_density(named_state("qFalse")))
    assert max_abs_diff(out, pure_density(named_state("qTrue"))) < 1e-12


def test_measure_then_discard_collapsed_reproduces_the_mixed_state():
    pipe = compose(measure(B), trace_left(product([B, B])))
    out = pipe.apply(pure_density(named_state("qFT")))
    assert dev(out.matrix, np.diag([0.5, 0.5])) < 1e-12


def test_apply_checks_bases():
    with pytest.raises(BasisMismatchError):
        lin2super(gate("qnot")).apply(pure_density(named_state("epr")))


def test_arr_identity_equals_lifted_identity():
    report = extensional_equal(identity_arr(BB), lin2super(identity(BB)), 1e-12)
    assert report.equal


def test_arr_identity_preserves_densities():
    rng = np.random.default_rng(43)
    d = random_density(rng, BB)
    assert max_abs_diff(identity_arr(BB).apply(d), d) == 0


def test_arr_swap_permutes_a_product_state():
    swap = arr(lambda t: (t[1], t[0]), BB, BB)
    d = pure_density(tensor(named_state("qFalse"), named_state("qTrue")))
    expected = pure_density(tensor(named_state("qTrue"), named_state("qFalse")))
    assert max_abs_diff(swap.apply(d), expected) == 0


def test_sharing_a_wire_entangles_superpositions():
    share = arr(lambda x: (x, x), B, BB)
    out = share.apply(pure_density(named_state("qFT")))
    assert max_abs_diff(out, pure_density(named_state("epr"))) < 1e-12


def test_compose_of_self_inverse_lift_is_identity():
    h = lin2super(gate("hadamard"))
    assert extensional_equal(compose(h, h), identity_arr(B), 1e-12).equal


def test_lifting_commutes_with_composition():
    # brute-force matrix comparison for seeded gate pairs
    rng = np.random.default_rng(47)
    pool = [gate("hadamard"), gate("qnot"), gate("phase"), gate("z")]
    for _ in range(10):
        f = pool[int(rng.integers(len(pool)))]
        g = pool[int(rng.integers(len(pool)))]
        lifted = lin2super(compose_lin(f, g))
        chained = compose(lin2super(f), lin2super(g))
        assert max_difference(lifted, chained) < 1e-9


def test_compose_checks_bases():
    with pytest.raises(BasisMismatchError):
        compose(lin2super(gate("qnot")), measure(BB))


def test_first_acts_on_one_qubit_only():
    d = pure_density(tensor(named_state("qFalse"), named_state("qTrue")))
    out = first(lin2super(gate("hadamard")), B).apply(d)
    expected = pure_density(tensor(bind(named_state("qFalse"), gate("hadamard")), named_state("qTrue")))
    assert max_abs_diff(out, expected) < 1e-12


def test_first_of_arr_is_arr_of_the_paired_function():
    fn = lambda x: not x
    lhs = first(arr(fn, B, B), BB)
    rhs = arr(lambda t: (fn(t[0]), t[1]), product([B, BB]), product([B, BB]))
    assert extensional_equal(lhs, rhs, 1e-12).equal


def test_first_of_identity_is_identity():
    lhs = first(identity_arr(B), B)
    assert extensional_equal(lhs, identity_arr(BB), 1e-12).equal


def test_second_acts_on_the_right_component():
    d = pure_density(tensor(named_state("qFalse"), named_state("qFalse")))
    out = second(lin2super(gate("qnot")), B).apply(d)
    expected = pure_density(tensor(named_state("qFalse"), named_state("qTrue")))
    assert max_abs_diff(out, expected) < 1e-12


def test_parallel_matches_the_tensor_lift():
    h = gate("hadamard")
    lhs = parallel(lin2super(h), lin2super(h))
    rhs = lin2super(lin_tensor(h, h))
    assert max_difference(lhs, rhs) < 1e-9


def test_permute_arr_identity_and_errors():
    b3 = product([B, B, B])
    assert extensional_equal(permute_arr((0, 1, 2), b3), identity_arr(b3), 1e-12).equal
    with pytest.raises(ValueError, match="bijection"):
        permute_arr((0, 0, 1), b3)
    with pytest.raises(ValueError, match="product"):
        permute_arr((0,), B)


def test_trace_left_on_a_separable_state():
    d = pure_density(tensor(named_state("qFalse"), named_state("qFT")))
    out = trace_left(BB).apply(d)
    assert max_abs_diff(out, pure_density(named_state("qFT"))) < 1e-12


def test_trace_left_on_the_entangled_pair_gives_the_mixed_state():
    out = trace_left(BB).apply(pure_density(named_state("epr")))
    assert dev(out.matrix, np.diag([0.5, 0.5])) < 1e-12


def test_trace_left_needs_a_binary_product():
    with pytest.raises(ValueError):
        trace_left(B)
    with pytest.raises(ValueError):
        trace_left(product([B, B, B]))


def test_measure_keeps_basis_states():
    out = measure(B).apply(pure_density(named_state("qFalse")))
    expected = pure_density(unit(product([B, B]), (False, False)))
    assert max_abs_diff(out, expected) == 0


def test_measure_decoheres_the_plus_state():
    out = measure(B).apply(pure_density(named_state("qFT")))
    pair = product([B, B])
    ff = pair.index_of((False, False))
    tt = pair.index_of((True, True))
    expected = np.zeros((4, 4), dtype=complex)
    expected[ff, ff] = 0.5
    expected[tt, tt] = 0.5
    assert dev(out.matrix, expected) < 1e-12


def test_measure_kills_off_diagonal_inputs():
    out = measure(B).apply(DensityMatrix(B, [[0, 1], [0, 0]]))
    assert max_abs_diff(out, zero_density(product([B, B]))) == 0


def test_extensional_equality_reports():
    h = lin2super(gate("hadamard"))
    assert extensional_equal(h, h, 1e-12).equal
    drop_left = arr(lambda t: t[1], BB, B)
    report = extensional_equal(drop_left, trace_left(BB), 1e-12)
    assert not report.equal
    assert report.max_diff > 0.5
    assert "max_diff" in str(report)
    with pytest.raises(BasisMismatchError):
        extensional_equal(h, measure(B), 1e-12)


def trace_preserving_pool():
    from qarrow.laws import SeededGenerator

    perm_fn, _ = SeededGenerator(61).permutation(BB)
    return [
        lin2super(gate("hadamard")),
        lin2super(controlled(gate("phase"))),
        measure(B),
        measure(BB),
        trace_left(BB),
        arr(lambda t: (t[1], t[0]), BB, BB),
        arr(perm_fn, BB, BB),
    ]


def test_trace_preservation_of_the_physical_operators():
    rng = np.random.default_rng(53)
    for op in trace_preserving_pool():
        d = random_density(rng, op.input_basis)
        assert abs(op.apply(d).trace() - d.trace()) < 1e-12


def test_non_injective_arr_may_inflate_the_trace():
    drop_left = arr(lambda t: t[1], BB, B)
    out = drop_left.apply(pure_density(named_state("p3")))
    assert abs(out.trace() - 2.0) < 1e-12


def test_hermiticity_preservation():
    rng = np.random.default_rng(59)
    for op in trace_preserving_pool():
        d = random_density(rng, op.input_basis)
        out = op.apply(d).matrix
        assert float(np.max(np.abs(out - out.conj().T))) < 1e-12


def test_first_second_coherence():
    s = measure(B)
    swap_out = arr(lambda t: (t[1], t[0]), product([s.output_basis, B]), product([B, s.output_basis]))
    swap_in = arr(lambda t: (t[1], t[0]), product([s.input_basis, B]), product([B, s.input_basis]))
    lhs = compose(first(s, B), swap_out)
    rhs = compose(swap_in, second(s, B))
    assert max_difference(lhs, rhs) < 1e-12


def test_second_is_first_between_swaps_on_unequal_sizes():
    # distinct carried, input and output sizes catch any index mix-up
    s = trace_left(product([Basis(["x", "y", "z"]), B]))
    carried = Basis(["u", "v", "w", "q", "r"])
    swap_in = arr(lambda t: (t[1], t[0]), product([carried, s.input_basis]),
                  product([s.input_basis, carried]))
    swap_out = arr(lambda t: (t[1], t[0]), product([s.output_basis, carried]),
                   product([carried, s.output_basis]))
    expected = swap_in >> first(s, carried) >> swap_out
    out = second(s, carried)
    assert (out.input_basis, out.output_basis) == (expected.input_basis, expected.output_basis)
    assert max_difference(out, expected) == 0


def test_block_access():
    s = measure(B)
    block = s.block(False, False)
    assert block.entry((False, False), (False, False)) == 1
    assert s.block(False, True).trace() == 0


def refuse_to_fold(s):
    raise AssertionError(f"{s!r} was folded to a matrix")


@pytest.mark.parametrize("build, exact", [
    (lambda: lin2super(gate("hadamard")), True),
    (lambda: lin2super(controlled(gate("qnot"))), True),
    (lambda: measure(B), True),
    (lambda: trace_left(BB), True),
    (teleport, False),
    (toffoli_super, False),
])
def test_block_is_the_matching_row_of_the_matrix(build, exact):
    s = build()
    n = s.input_basis.size
    for i, a1 in enumerate(s.input_basis):
        for j, a2 in enumerate(s.input_basis):
            block = s.block(a1, a2).matrix.reshape(-1)
            row = s.matrix[i * n + j]
            assert np.array_equal(block, row) if exact else dev(block, row) <= 1e-12


def test_block_runs_the_term_past_the_dense_wall(monkeypatch):
    # 9 wires: the dense channel would be a 4**9 x 4**9 matrix (1 TiB)
    h = lin2super(gate("hadamard"))
    s = first(h, product([B] * 8))
    monkeypatch.setattr(superop, "_fold", refuse_to_fold)
    out = s.block((False, (True,) * 8), (True, (False,) * 8)).matrix.reshape(2, 256, 2, 256)
    # the carried labels pass through: only their (T..T, F..F) slice holds h's block
    assert np.array_equal(out[:, 255, :, 0], h.block(False, True).matrix)
    assert np.count_nonzero(out) == np.count_nonzero(out[:, 255, :, 0]) == 4


def test_a_chain_folds_its_first_channel_and_runs_the_rest(monkeypatch):
    folded = []
    fold = superop._fold
    monkeypatch.setattr(superop, "_fold", lambda s: folded.append(s) or fold(s))
    h = lin2super(gate("hadamard"))
    s = h >> h >> h
    assert dev(s.matrix, h.matrix) < 1e-15
    assert folded == [s]


def test_repr_names_the_channel_or_its_shape():
    assert repr(lin2super(gate("hadamard"))) == "Superoperator(lift(hadamard))"
    assert repr(Superoperator(B, BB, np.zeros((4, 16)))) == "Superoperator(2->4)"


def test_max_difference_checks_bases():
    with pytest.raises(BasisMismatchError, match="differing bases"):
        max_difference(measure(B), lin2super(gate("hadamard")))


# The constructors once filled their matrices with Python loops over labels,
# np.kron and an einsum with two identities.  Those forms are kept here as
# oracles: the numpy-indexed constructors must give equal matrices.
ORACLE_PAIRS = [(x, y) for x in ORACLE_BASES for y in ORACLE_BASES]


def oracle_arr(fn, input_basis, output_basis):
    n_in, n_out = input_basis.size, output_basis.size
    target = [output_basis.index_of(fn(label)) for label in input_basis]
    m = np.zeros((n_in * n_in, n_out * n_out), dtype=complex)
    for i1 in range(n_in):
        for i2 in range(n_in):
            m[i1 * n_in + i2, target[i1] * n_out + target[i2]] = 1.0
    return m


def oracle_lift(s, carried, subscripts):
    n_a, n_b, n_d = s.input_basis.size, s.output_basis.size, carried.size
    eye = np.eye(n_d)
    m = np.einsum(subscripts, s.matrix.reshape(n_a, n_a, n_b, n_b), eye, eye)
    return m.reshape((n_a * n_d) ** 2, (n_b * n_d) ** 2)


def oracle_trace_left(n_a, n_b):
    n_in = n_a * n_b
    m = np.zeros((n_in * n_in, n_b * n_b), dtype=complex)
    for a in range(n_a):
        for b1 in range(n_b):
            for b2 in range(n_b):
                m[(a * n_b + b1) * n_in + (a * n_b + b2), b1 * n_b + b2] = 1.0
    return m


def oracle_measure(n):
    n_out = n * n
    m = np.zeros((n * n, n_out * n_out), dtype=complex)
    for a in range(n):
        p = a * n + a
        m[a * n + a, p * n_out + p] = 1.0
    return m


def random_lin(rng, basis_in, basis_out):
    shape = (basis_in.size, basis_out.size)
    return LinearOp(basis_in, basis_out, rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))


@pytest.mark.parametrize("src,dst", ORACLE_PAIRS)
def test_arr_matches_the_loop_oracle(src, dst):
    picks = np.random.default_rng(src.size * 31 + dst.size).integers(dst.size, size=src.size)
    table = {label: dst.element_at(int(k)) for label, k in zip(src, picks)}
    assert np.array_equal(arr(table.get, src, dst).matrix, oracle_arr(table.get, src, dst))


@pytest.mark.parametrize("src,dst", ORACLE_PAIRS)
def test_lin2super_matches_the_kron_oracle(src, dst):
    f = random_lin(np.random.default_rng(src.size * 31 + dst.size), src, dst)
    assert np.array_equal(lin2super(f).matrix, np.kron(f.matrix, f.matrix.conj()))


@pytest.mark.parametrize("left,right", ORACLE_PAIRS)
def test_trace_left_matches_the_loop_oracle(left, right):
    out = trace_left(product([left, right]))
    assert np.array_equal(out.matrix, oracle_trace_left(left.size, right.size))


@pytest.mark.parametrize("basis", ORACLE_BASES)
def test_measure_matches_the_loop_oracle(basis):
    assert np.array_equal(measure(basis).matrix, oracle_measure(basis.size))


def oracle_lift_cases():
    rng = np.random.default_rng(71)
    return [
        lin2super(gate("hadamard")),
        lin2super(random_lin(rng, RGB, B)),
        lin2super(random_lin(rng, B, FIVE)),
        measure(RGB),
        trace_left(product([RGB, B])),
        arr(lambda x: RGB.element_at(FIVE.index_of(x) % 3), FIVE, RGB),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_first_and_second_match_the_einsum_oracle(n):
    carried = Basis(tuple(f"c{i}" for i in range(n)))
    for s in oracle_lift_cases():
        assert np.array_equal(first(s, carried).matrix,
                              oracle_lift(s, carried, "ijkl,mn,op->imjoknlp"))
        assert np.array_equal(second(s, carried).matrix,
                              oracle_lift(s, carried, "ijkl,mn,op->miojnkpl"))


def test_parallel_and_permute_arr_match_their_oracles():
    s, t = lin2super(random_lin(np.random.default_rng(73), RGB, B)), measure(B)
    expected = (oracle_lift(s, t.input_basis, "ijkl,mn,op->imjoknlp")
                @ oracle_lift(t, s.output_basis, "ijkl,mn,op->miojnkpl"))
    assert np.array_equal(parallel(s, t).matrix, expected)
    basis = product([B, RGB, B])
    perm = lambda t: (t[2], t[0], t[1])
    assert np.array_equal(permute_arr((2, 0, 1), basis).matrix,
                          oracle_arr(perm, basis, product([B, B, RGB])))


# A channel is a term with two interpreters: apply runs the term on the
# density, .matrix folds it to the dense matrix.  The two must agree.
FLAT = [B, BB, product([B, B, B])]


def wire_count(basis):
    return basis.size.bit_length() - 1


@st.composite
def random_arr(draw, src, dst):
    # any total function: non-injective and non-surjective ones included
    picks = draw(st.lists(st.integers(0, dst.size - 1), min_size=src.size, max_size=src.size))
    table = {label: dst.element_at(k) for label, k in zip(src, picks)}
    return arr(table.__getitem__, src, dst)


@st.composite
def channels(draw, depth=3, budget=3):
    """A term of depth <= depth + 1 none of whose bases has more than ``budget`` bool wires."""
    kinds = ["arr", "lift"] + (["measure", "trace_left"] if budget >= 2 else [])
    if depth:
        kinds += [">>"] + (["first", "second", "parallel"] if budget >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("arr", "lift"):
        src, dst = draw(st.sampled_from(FLAT[:budget])), draw(st.sampled_from(FLAT[:budget]))
        if kind == "arr":
            return draw(random_arr(src, dst))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        m = rng.uniform(-1, 1, (src.size, dst.size)) + 1j * rng.uniform(-1, 1, (src.size, dst.size))
        return lin2super(LinearOp(src, dst, m / np.linalg.norm(m, 2)))
    if kind == "measure":
        return measure(B)
    if kind == "trace_left":
        left = draw(st.sampled_from(FLAT[:budget - 1]))
        return trace_left(product([left, draw(st.sampled_from(FLAT[:budget - wire_count(left)]))]))
    if kind == ">>":
        f, g = draw(channels(depth - 1, budget)), draw(channels(depth - 1, budget))
        return f >> draw(random_arr(f.output_basis, g.input_basis)) >> g
    if kind == "parallel":
        split = draw(st.integers(1, budget - 1))
        return parallel(draw(channels(depth - 1, split)), draw(channels(depth - 1, budget - split)))
    carried = draw(st.sampled_from(FLAT[:min(2, budget - 1)]))
    inner = draw(channels(depth - 1, budget - wire_count(carried)))
    return (first if kind == "first" else second)(inner, carried)


def random_matrix_density(seed, basis):
    rng = np.random.default_rng(seed)
    shape = (basis.size, basis.size)
    return DensityMatrix(basis, rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))


def check_interpreters_agree(s, d):
    interpreted = s.apply(d).matrix.copy()
    dense = Superoperator(s.input_basis, s.output_basis, s.matrix).apply(d).matrix
    assert dev(interpreted, dense) <= 1e-12
    # apply never switches to the matrix just read and cached
    assert s.apply(d).matrix.tobytes() == interpreted.tobytes()


@given(channels(), st.integers(0, 2 ** 32 - 1))
def test_apply_agrees_with_the_dense_fold(s, seed):
    check_interpreters_agree(s, random_matrix_density(seed, s.input_basis))


@pytest.mark.parametrize("build", [teleport, toffoli_super])
def test_apply_agrees_with_the_dense_fold_on_the_catalog(build):
    for seed in range(3):
        s = build()
        check_interpreters_agree(s, random_matrix_density(seed, s.input_basis))


def test_teleport_apply_folds_no_matrix(monkeypatch):
    def refuse(s):
        raise AssertionError(f"{s!r} was folded to a matrix")

    monkeypatch.setattr(superop, "_fold", refuse)
    out = teleport().apply(prepare_teleport_input(named_state("qFT")))
    assert max_abs_diff(out, pure_density(named_state("qFT"))) < 1e-12


def test_first_scales_past_the_dense_wall():
    # 9 wires: the dense channel would be a 4**9 x 4**9 matrix (1 TiB)
    carried = product([B] * 8)
    h = lin2super(gate("hadamard"))
    s = first(h, carried) >> first(h, carried)
    rng = np.random.default_rng(83)
    amps = rng.normal(size=2 ** 9) + 1j * rng.normal(size=2 ** 9)
    d = pure_density(StateVector(s.input_basis, amps / np.linalg.norm(amps)))
    tracemalloc.start()
    try:
        out = s.apply(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max_abs_diff(out, d) < 1e-12
    assert peak < 8 * 16 * 4 ** 9


def test_a_long_chain_applies_and_folds_without_recursion():
    h = lin2super(gate("hadamard"))
    s = h
    for _ in range(4999):  # deeper than Python's recursion limit
        s = s >> h
    d = pure_density(named_state("qFT"))
    assert max_abs_diff(s.apply(d), d) < 1e-9
    assert max_difference(s, identity_arr(B)) < 1e-9
