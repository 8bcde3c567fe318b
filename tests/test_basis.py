import pytest
from hypothesis import given, strategies as st

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
