"""Finite ordered classical bases and their products.

Everything in this package is indexed by a :class:`Basis`: a finite, ordered
collection of distinguishable labels.  Product bases enumerate component
tuples in row-major order (leftmost factor varies slowest), which fixes the
global indexing convention shared by vectors, operators, densities and
channels.  Bases are immutable and freely shareable across threads, so
:func:`product` interns what it builds: the same factor objects give back
the same product object, from a bounded ``lru_cache`` keyed on their identities.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Any, Iterable, Iterator, Sequence

Label = Any
_ATOM = re.compile(r"[^,)]*")


class BasisMismatchError(ValueError):
    """Two objects over incompatible bases were combined."""


class Basis:
    """An ordered set of distinct hashable labels.

    Equality and hashing look only at the label sequence, so two
    independently constructed products of the same factors compare equal.
    Products remember their factors (see :attr:`factors`) so that
    permutation and partial-trace combinators can recover the component
    structure.
    """

    __slots__ = ("_labels", "_index", "_factors", "_hash")

    def __init__(self, labels: Iterable[Label], factors: Sequence["Basis"] | None = None):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a basis needs at least one label")
        index = dict(zip(labels, range(len(labels))))
        if len(index) < len(labels):  # name the first label that repeats an earlier one
            seen: set = set()
            dup = next(lab for lab in labels if lab in seen or seen.add(lab))
            raise ValueError(f"duplicate basis label {label_text(dup)}")
        self._labels = labels
        self._index = index
        self._factors = tuple(factors) if factors is not None else None
        self._hash = hash(labels)

    @property
    def labels(self) -> tuple[Label, ...]:
        return self._labels

    @property
    def size(self) -> int:
        return len(self._labels)

    @property
    def factors(self) -> tuple["Basis", ...] | None:
        """Component bases if this basis was built by :func:`product`."""
        return self._factors

    def index_of(self, label: Label) -> int:
        """Row-major index of ``label``; inverse of :meth:`element_at`."""
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise ValueError(f"label {label_text(label)} is not an element of {self!r}") from None

    def element_at(self, index: int) -> Label:
        if not 0 <= index < len(self._labels):
            raise IndexError(f"index {index} out of range for basis of size {self.size}")
        return self._labels[index]

    def __contains__(self, label: Label) -> bool:
        try:
            return label in self._index
        except TypeError:
            return False

    def __iter__(self) -> Iterator[Label]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return self is other or self._labels == other._labels

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # a string label hashes differently in another process
        return Basis, (self._labels, self._factors)

    def __repr__(self) -> str:
        shown = ",".join(label_text(l) for l in self._labels[:4])
        if self.size > 4:
            shown += ",..."
        return f"Basis[{self.size}]({shown})"


_BOOL = Basis((False, True))


def bool_basis() -> Basis:
    """The two-element basis ordered [False, True]."""
    return _BOOL


def product(parts: Sequence[Basis]) -> Basis:
    """Product basis enumerating positional tuples in row-major order.

    The leftmost factor varies slowest.  Component labels are kept as given,
    so products of products carry nested tuples; row-major ordering makes a
    flattened relabelling a pure re-indexing (same enumeration order).
    A single-element list returns that basis unchanged.  The same factor
    objects return the same product while it is cached; the least recently
    used of 256 cached products is dropped first.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("product of an empty list of bases is undefined")
    return parts[0] if len(parts) == 1 else _product(tuple(map(id, parts)), parts)


@lru_cache(maxsize=256)
def _product(_ids: tuple, parts: tuple) -> Basis:  # the key holds the parts, so no id in it is reused
    return Basis(tuple(itertools.product(*(p.labels for p in parts))), factors=parts)


def label_text(label: Label) -> str:
    """Compact text form of a label: F, T, bare strings, (..,..) tuples."""
    if label is False:
        return "F"
    if label is True:
        return "T"
    if isinstance(label, tuple):
        return "(" + ",".join(label_text(p) for p in label) + ")"
    return str(label)


def parse_label(text: str) -> Label:
    """Inverse of :func:`label_text` for F/T/string/tuple labels."""
    label, rest = _parse_label(text.strip())
    if rest:
        raise ValueError(f"trailing characters in label text {text!r}")
    return label


def _parse_label(text: str) -> tuple[Label, str]:
    if text.startswith("("):
        parts = []
        rest = text[1:]
        while True:
            part, rest = _parse_label(rest)
            parts.append(part)
            if rest.startswith(","):
                rest = rest[1:]
            elif rest.startswith(")"):
                return tuple(parts), rest[1:]
            else:
                raise ValueError(f"unbalanced tuple in label text {text!r}")
    end = _ATOM.match(text).end()
    atom, rest = text[:end], text[end:]
    if atom == "F":
        return False, rest
    if atom == "T":
        return True, rest
    if not atom:
        raise ValueError(f"empty atom in label text {text!r}")
    return atom, rest
