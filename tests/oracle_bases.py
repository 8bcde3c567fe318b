"""Bases on which the oracle tests compare constructors with their old forms."""

from qarrow.basis import Basis, bool_basis, product

B = bool_basis()
RGB = Basis(("r", "g", "b"))
FIVE = Basis(("p", "q", "r", "s", "t"))
ORACLE_BASES = [
    B,
    RGB,
    FIVE,
    product([RGB, B]),
    product([product([B, B]), B]),
    product([B, product([B, B])]),
]
