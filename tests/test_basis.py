import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qarrow import basis as basis_module
from qarrow.basis import Basis, bool_basis, label_text, parse_label, product


def test_bool_basis_is_ordered_false_true():
    b = bool_basis()
    assert b.size == 2
    assert b.labels == (False, True)
    assert b.index_of(False) == 0
    assert b.index_of(True) == 1


def test_product_of_two_bools_enumerates_row_major():
    b = bool_basis()
    bb = product([b, b])
    assert bb.labels == ((False, False), (False, True), (True, False), (True, True))
    assert bb.size == 4


def test_product_of_three_bools():
    b = bool_basis()
    b3 = product([b, b, b])
    assert b3.size == 8
    assert b3.element_at(0) == (False, False, False)
    assert b3.element_at(7) == (True, True, True)


def test_product_of_one_is_the_identity_case():
    b = bool_basis()
    assert product([b]) is b


def test_product_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        product([])


def test_row_major_indices():
    b = bool_basis()
    assert product([b, b]).index_of((True, False)) == 2
    assert product([b, b, b]).index_of((True, True, True)) == 7
    assert b.index_of(True) == 1


def test_unknown_label_is_an_error_naming_the_label():
    b = bool_basis()
    with pytest.raises(ValueError, match="nope"):
        b.index_of("nope")


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Basis(("x", "x"))


@pytest.mark.parametrize("labels, first_repeat", [
    (("a", "b", "b", "a"), "b"),
    (("a", "b", "a", "b"), "a"),
    ((False, 1, 0, True), "0"),  # 0 == False repeats it; later duplicates are not named
])
def test_duplicate_error_names_the_first_label_that_repeats_an_earlier_one(labels, first_repeat):
    with pytest.raises(ValueError, match=f"^duplicate basis label {first_repeat}$"):
        Basis(labels)


def test_empty_basis_rejected():
    with pytest.raises(ValueError):
        Basis(())


def test_factors_remembered_for_products():
    b = bool_basis()
    bb = product([b, b])
    assert bb.factors == (b, b)
    assert b.factors is None


def test_equality_is_by_labels():
    b = bool_basis()
    assert product([b, b]) == product([b, b])
    assert product([b, b]) != product([b, b, b])
    assert hash(product([b, b])) == hash(product([b, b]))


@given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=6, unique=True))
def test_index_element_round_trip(labels):
    basis = Basis(labels)
    for label in basis:
        assert basis.element_at(basis.index_of(label)) == label


def test_index_element_round_trip_on_products():
    b = bool_basis()
    for basis in (b, product([b, b]), product([b, b, b]), product([Basis(("x", "y", "z")), b])):
        for label in basis:
            assert basis.element_at(basis.index_of(label)) == label


def _flatten(label):
    if isinstance(label, tuple):
        out = []
        for part in label:
            out.extend(_flatten(part))
        return out
    return [label]


def test_product_is_associative_up_to_flattening():
    x, y, z = bool_basis(), Basis(("p", "q", "r")), bool_basis()
    nested = product([x, product([y, z])])
    flat = product([x, y, z])
    assert [_flatten(l) for l in nested] == [_flatten(l) for l in flat]
    nested2 = product([product([x, y]), z])
    assert [_flatten(l) for l in nested2] == [_flatten(l) for l in flat]


@pytest.mark.parametrize(
    "label, text",
    [
        (False, "F"),
        (True, "T"),
        ((False, True), "(F,T)"),
        (((False, True), False), "((F,T),F)"),
        ("spin", "spin"),
        ((True, ("a", False)), "(T,(a,F))"),
    ],
)
def test_label_text_round_trips(label, text):
    assert label_text(label) == text
    assert parse_label(text) == label


def test_parse_label_rejects_garbage():
    with pytest.raises(ValueError):
        parse_label("(F,T")
    with pytest.raises(ValueError):
        parse_label("")


def test_element_at_rejects_an_index_out_of_range():
    with pytest.raises(IndexError, match="index 2 out of range for basis of size 2"):
        bool_basis().element_at(2)


def test_membership_len_and_comparison_with_other_types():
    b = bool_basis()
    assert True in b
    assert "maybe" not in b
    assert [True] not in b  # unhashable: not an element rather than an error
    assert len(product([b, b, b])) == 8
    assert b != 3
    assert (b == 3) is False


def test_product_interns_the_same_factor_objects():
    b = bool_basis()
    bb = product([b, b])
    assert product([b, b]) is bb
    assert product([bb, b]) is product([bb, b])
    assert product((b, b, b)) is product([b, b, b])


def test_a_plain_basis_with_product_labels_keeps_its_own_factors():
    b = bool_basis()
    bb = product([b, b])
    plain = Basis(bb.labels)
    assert plain == bb and plain.factors is None
    from_plain, from_product = product([plain, b]), product([bb, b])
    assert from_plain == from_product and from_plain is not from_product
    assert from_plain.factors[0] is plain
    assert from_product.factors[0] is bb


def test_the_product_cache_keeps_its_bound_and_rebuilds_an_evicted_product():
    parts = [Basis(("x", "y")), bool_basis()]
    first = product(parts)
    cache = basis_module._product.cache_info
    for i in range(cache().maxsize + 10):
        product([Basis((i,)), bool_basis()])
        assert cache().currsize <= cache().maxsize
    again = product(parts)
    assert again is not first  # evicted, so built afresh
    assert again == first and again.factors == first.factors
    assert all(p is q for p, q in zip(again.factors, parts))


def test_a_pickled_product_hashes_by_its_labels_under_another_hash_seed():
    # a string label hashes differently in another process, so the stored hash must not travel
    b = product([Basis(("up", "down")), bool_basis()])
    child = ("import pickle, sys\n"
             "from qarrow.basis import Basis\n"
             "b = pickle.loads(sys.stdin.buffer.read())\n"
             "print(hash(b) == hash(b.labels), {Basis(b.labels): 'found'}.get(b), b.factors[0] == Basis(('up', 'down')))\n")
    src = Path(basis_module.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED="1" if os.environ.get("PYTHONHASHSEED") == "0" else "0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(b), env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.split() == [b"True", b"found", b"True"]


def test_products_built_from_several_threads_are_all_correct():
    # more products than the cache holds, built over and over, so threads
    # miss and evict concurrently: the cache must stay coherent, and a product
    # two threads build at once must come out whole, over the factors given
    cache = basis_module._product.cache_info
    factors = [Basis((i, -1 - i)) for i in range(cache().maxsize + 44)]
    results: dict[int, list] = {t: [] for t in range(8)}
    errors = []

    def build(t):
        try:
            for _ in range(40):
                results[t] = [product([f, bool_basis()]) for f in factors]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(t,)) for t in results]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert cache().currsize <= cache().maxsize
    for f, *built in zip(factors, *results.values()):
        a, z = f.labels
        assert all(p.labels == ((a, False), (a, True), (z, False), (z, True)) for p in built)
        assert all(p.factors[0] is f for p in built)
