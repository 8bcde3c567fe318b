import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qarrow import basis as basis_module, linear, superop
from qarrow.basis import Basis, BasisMismatchError, bool_basis, product
from qarrow.circuits import LIFTED, copy, prepare_teleport_input, teleport, toffoli_super
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
    on,
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
B3 = product([B, B, B])


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


def dense_worst(s, t):
    """The dense reference: the max of |S - T| and its first argmax, in row-major order."""
    diff = np.abs(s.matrix - t.matrix)
    row, col = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return float(np.max(diff)), divmod(int(row), 8), divmod(int(col), 8)


@pytest.mark.parametrize("block", [1, 3 * 64, superop._BLOCK])  # rows per block: 1, 3 and all 64
@pytest.mark.parametrize("entries, expected, at", [
    ({(5, 7): 2j, (40, 3): -2, (20, 1): 1}, 2.0, (5, 7)),  # a tie across blocks: the first one wins
    ({(3, 0): 5, (30, 2): np.nan, (50, 1): np.nan}, np.nan, (30, 2)),  # the first NaN wins over any number
])
def test_the_comparison_in_row_blocks_matches_the_dense_one(monkeypatch, block, entries, expected, at):
    monkeypatch.setattr(superop, "_BLOCK", block)
    m = np.zeros((64, 64), dtype=complex)
    for i, v in entries.items():
        m[i] = v
    s, t = Superoperator(B3, B3, np.zeros((64, 64))), Superoperator(B3, B3, m)
    worst, pin, pout = dense_worst(s, t)
    report = extensional_equal(s, t, 1e-9)
    np.testing.assert_equal([report.max_diff, max_difference(s, t), worst], [expected] * 3)
    assert not report.equal
    assert (pin, pout) == tuple(divmod(i, 8) for i in at)
    assert report.worst_input == tuple(map(B3.element_at, pin))
    assert report.worst_output == tuple(map(B3.element_at, pout))


def trace_preserving_pool():
    return [
        lin2super(gate("hadamard")),
        lin2super(controlled(gate("phase"))),
        measure(B),
        measure(BB),
        trace_left(BB),
        arr(lambda t: (t[1], t[0]), BB, BB),
        arr(lambda t: (t[0] != t[1], t[1]), BB, BB),
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
        copy(),  # lone expanding arrs: their folds set ones in a zero matrix
        arr(lambda x: (x, x, x), B, B3),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_first_and_second_match_the_einsum_oracle(n):
    carried = RGB if n == 3 else Basis(tuple(f"c{i}" for i in range(n)))
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
        kinds += [">>", "on"] + (["first", "second", "parallel"] if budget >= 2 else [])
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
    if kind == "on":
        # one or two ons over the flat product of k wires, each on 1-2 of them in any order
        k, ons = draw(st.integers(1, budget)), []
        for _ in range(draw(st.integers(1, 2))):
            positions = draw(st.permutations(range(k)))[:draw(st.integers(1, min(2, k)))]
            part, inner = FLAT[len(positions) - 1], draw(channels(depth - 1, len(positions)))
            inner = draw(random_arr(part, inner.input_basis)) >> inner >> draw(
                random_arr(inner.output_basis, part))
            ons.append(on(inner, FLAT[k - 1], positions))
        return reduce(compose, ons)
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


def test_on_refuses_a_wrong_factor_a_bad_position_and_a_mismatched_output():
    h, cx = lin2super(gate("hadamard")), lin2super(controlled(gate("qnot")))
    for _ in range(2):  # a first call and a repeat both refuse: refusals are never cached
        with pytest.raises(BasisMismatchError, match="cannot act on factors"):
            on(h, product([RGB, B]), (0,))
        with pytest.raises(BasisMismatchError, match="cannot act on factors"):
            on(cx, B3, (0,))  # a two-wire channel on one wire's factor
        for s, positions in [(h, (3,)), (h, (-1,)), (h, ()), (cx, (1, 1))]:
            with pytest.raises(ValueError, match="must be distinct factors of 3"):
                on(s, B3, positions)
        for s in [cx >> trace_left(BB), arr(lambda t: (t[0], t[1], t[1]), BB, B3)]:
            with pytest.raises(ValueError, match="must output as many"):
                on(s, B3, (2, 0))


def test_equal_but_distinct_bases_place_alike():
    cx = lin2super(controlled(gate("qnot")))
    twin = Basis(B3.labels, [Basis(B.labels) for _ in range(3)])  # equal to B3, not B3
    assert twin == B3 and twin is not B3
    d = random_matrix_density(5, B3)
    placed = [on(cx, basis, (2, 0)) for basis in (B3, twin, twin, B3)]
    for s in placed:
        assert s._term[2:] == ((2, 0), (2, 2, 2), (2, 2, 2)) and s.output_basis == B3
        assert s.apply(d).matrix.tobytes() == placed[0].apply(d).matrix.tobytes()
        assert np.array_equal(s.matrix, placed[0].matrix)


def test_a_plain_basis_equal_to_a_product_is_not_placed_as_one():
    # Basis equality reads labels only, so the placement cache must tell the two apart
    h, plain = lin2super(gate("hadamard")), Basis(BB.labels)
    assert plain == BB
    assert on(h, BB, (1,)).output_basis == BB
    with pytest.raises(ValueError, match="must be distinct factors of 1"):
        on(h, plain, (1,))
    flat_out = arr(lambda t: t, BB, plain)
    assert on(arr(lambda t: t, BB, BB), B3, (2, 0)).output_basis == B3
    with pytest.raises(ValueError, match="must output as many"):
        on(flat_out, B3, (2, 0))


def test_a_basis_is_placed_by_its_own_factors_whatever_was_placed_before():
    # placements are cached by the bases' identities: a plain basis equal to a product,
    # placed first, must not stand in for that product's factor afterwards
    c = Basis(("u", "v"))
    pair = product([c, c])
    plain = Basis(pair.labels)
    on(identity_arr(c), product([plain, c]), (1,))
    for place_on, f in ((on, identity_arr(c)), (linear.on, identity(c))):
        out = place_on(f, product([pair, c]), (1,)).output_basis
        assert out.factors[0] is pair
        assert place_on(f, out.factors[0], (1,)).output_basis == pair


def test_the_placement_and_axis_plan_caches_are_bounded():
    assert 0 < basis_module._product.cache_info().maxsize <= 1024
    assert 0 < linear._placement.cache_info().maxsize <= 1024
    assert 0 < superop._axis_plan.cache_info().maxsize <= 1024


@st.composite
def contractions(draw):
    """A tensor shape of rank 2-7, 1-3 of its axes in any order, and their output sizes."""
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=7))
    axes = tuple(draw(st.permutations(range(len(shape))))[:draw(st.integers(1, min(3, len(shape) - 1)))])
    out_shape = tuple(draw(st.lists(st.integers(1, 4), min_size=len(axes), max_size=len(axes))))
    return tuple(shape), axes, out_shape, draw(st.integers(0, 2 ** 32 - 1))


@given(contractions())
@example(((3, 3, 3, 3, 4, 4, 2), (6, 4, 5), (4, 4, 4), 1))
def test_contract_matches_einsum(case):
    shape, axes, out_shape, seed = case
    rng = np.random.default_rng(seed)
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ins = [shape[a] for a in axes]
    m = rng.normal(size=(np.prod(ins), np.prod(out_shape))) * (1 + 1j)
    got = superop.contract(t, m, axes, out_shape)
    new = list(range(len(shape), len(shape) + len(axes)))
    result = [new[axes.index(a)] if a in axes else a for a in range(len(shape))]
    want = np.einsum(t, list(range(len(shape))), m.reshape(ins + list(out_shape)),
                     list(axes) + new, result)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_a_chain_of_ons_scales_past_the_dense_wall():
    # 10 wires: the axes stay split along the whole run, at a peak of a few densities
    h, cx = lin2super(gate("hadamard")), lin2super(controlled(gate("qnot")))
    wires = product([B] * 10)
    s = on(h, wires, (9,))
    for i in range(9, 0, -1):
        s = s >> on(cx, wires, (i, i - 1))
    d = pure_density(unit(wires, (False,) * 10))
    tracemalloc.start()
    try:
        out = s.apply(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ghz = (unit(wires, (False,) * 10).amplitudes + unit(wires, (True,) * 10).amplitudes) / np.sqrt(2)
    assert dev(out.matrix, np.outer(ghz, ghz)) < 1e-12
    assert peak < 8 * 16 * 4 ** 10


def test_a_long_chain_applies_and_folds_without_recursion():
    h = lin2super(gate("hadamard"))
    s = h
    for _ in range(4999):  # deeper than Python's recursion limit
        s = s >> h
    d = pure_density(named_state("qFT"))
    assert max_abs_diff(s.apply(d), d) < 1e-9
    assert max_difference(s, identity_arr(B)) < 1e-9


# A chain led by arr f folds by gathering rows of the next channel's matrix:
# row (a1, a2) of arr f >> g is row (f a1, f a2) of g's.  The rows are picked,
# not summed, so the gather must equal both other ways of reading the channel.
@st.composite
def arr_led_chains(draw):
    """arr(fn, A, M) >> g, fn injective or not, M smaller or larger than A."""
    kind = draw(st.sampled_from(["lift", "first", "on", "measure", "trace_left", "arr"]))
    pick = lambda: draw(st.sampled_from(FLAT + [RGB]))
    if kind == "lift":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        src, dst = pick(), pick()
        g = lin2super(LinearOp(src, dst, rng.uniform(-1, 1, (src.size, dst.size))
                               + 1j * rng.uniform(-1, 1, (src.size, dst.size))))
    elif kind == "first":
        g = first(draw(st.sampled_from([lin2super(gate("hadamard")), measure(B), trace_left(BB)])),
                  draw(st.sampled_from(FLAT[:2])))
    elif kind == "on":
        inner = draw(st.sampled_from([lin2super(gate("hadamard")), measure(B),
                                      lin2super(controlled(gate("qnot")))]))
        g = on(inner, B3, draw(st.permutations(range(3)))[:wire_count(inner.input_basis)])
    elif kind == "measure":
        g = measure(pick())
    elif kind == "trace_left":
        g = trace_left(product([pick(), pick()]))
    else:
        g = draw(random_arr(pick(), pick()))
    a, m = pick(), g.input_basis
    if a.size <= m.size and draw(st.booleans()):  # injective
        picks = draw(st.permutations(range(m.size)))[:a.size]
    else:  # two labels of a share an image
        picks = draw(st.lists(st.integers(0, m.size - 1), min_size=a.size - 1, max_size=a.size - 1))
        picks.insert(draw(st.integers(0, len(picks))), picks[draw(st.integers(0, len(picks) - 1))])
    table = {label: m.element_at(k) for label, k in zip(a, picks)}
    return arr(table.__getitem__, a, m), g


def blocks(s):
    n = s.input_basis
    return np.stack([s.block(a1, a2).matrix.reshape(-1) for a1 in n for a2 in n])


@given(arr_led_chains())
@example((copy(), trace_left(BB)))
@example((arr(lambda x: (x, x, x), B, B3), measure(B3)))
def test_an_arr_led_chain_folds_to_its_blocks_and_to_the_unfused_fold(chain):
    f, g = chain
    s = f >> g
    assert np.array_equal(s.matrix, blocks(s))
    assert np.array_equal(f.matrix, blocks(f))  # a lone arr, expanding or not, folds on its own
    assert np.array_equal(s.matrix, (Superoperator(f.input_basis, f.output_basis, f.matrix) >> g).matrix)


def test_an_arr_led_chain_folds_the_next_channel_and_never_the_arr(monkeypatch):
    folded = []
    fold = superop._fold
    monkeypatch.setattr(superop, "_fold", lambda s: folded.append(s) or fold(s))
    h = lin2super(gate("hadamard"))
    f = arr(lambda x: not x, B, B)
    s = f >> (h >> h)
    assert dev(s.matrix, lin2super(gate("qnot")).matrix) < 1e-15
    assert folded == [s, h]


# The fold runs a chain's later terms in one pass, with the axes kept split along a run
# of ons.  Re-leafing the prefix after each stage gives the stage-by-stage fold, which
# merges the axes after every term; every product sees the same rows, so the bits agree.
def stage_by_stage(stages):
    prefix = stages[0]
    for nxt in stages[1:]:
        prefix = Superoperator(prefix.input_basis, prefix.output_basis, prefix.matrix) >> nxt
    return prefix.matrix


H, CX = lin2super(gate("hadamard")), lin2super(controlled(gate("qnot")))
B1U1B = product([B, Basis([()]), B])
ASSOC = arr(lambda t: (t[0][0], (t[0][1], t[1])), product([BB, B]), product([B, BB]))
FOLD_CHAINS = {
    "on then trace_left": [on(H, BB, (1,)), on(CX, BB, (1, 0)), trace_left(BB), H],
    "on then measure": [on(H, B3, (0,)), on(CX, B3, (0, 2)), measure(B3), trace_left(product([B3, B3])),
                        on(H, B3, (1,))],
    "on then a non-bijective arr": [on(H, B3, (0,)), on(CX, B3, (0, 1)),
                                    arr(lambda t: (t[0] and t[1], t[1], t[2]), B3, B3), on(H, B3, (0,))],
    "first of first then assoc": [first(on(H, BB, (1,)), B), first(first(H, B), B), ASSOC, first(H, BB),
                                  second(CX, B)],
    "a discard's one-label factor": [on(H, B3, (1,)), on(CX, B3, (1, 2)), on(LIFTED["discard"], B3, (1,)),
                                     on(CX, B1U1B, (0, 2)), on(H, B1U1B, (2,))],
    "led by arr": [arr(lambda t: (t[1], t[1], t[0]), B3, B3), on(H, B3, (0,)), on(CX, B3, (0, 2)),
                   on(H, B3, (2,))],
}


@pytest.mark.parametrize("stages", FOLD_CHAINS.values(), ids=FOLD_CHAINS)
def test_a_chain_folds_in_one_pass_to_the_stage_by_stage_fold(stages):
    want = stage_by_stage(stages)
    assert np.array_equal(reduce(compose, stages).matrix, want)
    assert np.array_equal(reduce(lambda f, g: compose(g, f), stages[::-1]).matrix, want)  # right-nested


def test_a_fold_keeps_the_axes_split_along_a_run_of_ons(monkeypatch):
    calls = []
    refactor = superop._refactor
    monkeypatch.setattr(superop, "_refactor", lambda t, *rest: calls.append(rest) or refactor(t, *rest))
    s = on(H, B3, (0,)) >> on(CX, B3, (1, 2)) >> on(CX, B3, (2, 0)) >> on(H, B3, (1,))
    s.matrix
    assert [(old, new) for *_, old, new in calls] == [((8,), (2, 2, 2)), ((2, 2, 2), (8,))]
