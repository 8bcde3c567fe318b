"""Executable law suites for the vector monad and the channel arrows.

The three monad equations and the nine arrow equations are checked
numerically: each law becomes one :class:`LawReport` giving the number of
quantifier instances tried, the largest residual seen, and a description of
the worst instance.  Each law is one generator of ``(residual, witness)``
instances with the two sides of its equation side by side; a witness is a
closure that builds the text, called only for an instance that is the worst
so far, while its generator is suspended there.  Quantification runs over a
curated operator pool plus seeded random vectors, operators and classical
functions, so a report is a deterministic function of (seed, pool, tolerance).

Two deliberately broken implementations (:func:`skipping_bind` and
:func:`first_without_dual`) are exported as mutation fixtures: feeding them
to the suites must produce failing reports, which guards the suites against
passing vacuously.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import vector
from .basis import Basis, Label, bool_basis, label_text, product
from .circuits import LIFTED
from .linear import LinearOp
from .superop import Superoperator, arr, first, identity_arr, max_difference, measure, trace_left
from .vector import StateVector, require_tolerance

_N_RANDOM = 20  # random classical functions drawn for arr-composes and first-arr
_RGB = Basis(("r", "g", "b"))  # one object, so the products built on it are interned once


@dataclass(frozen=True)
class LawReport:
    name: str
    cases: int
    max_residual: float
    passed: bool
    tolerance: float
    worst_case: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.cases} cases, max residual {self.max_residual:.3e})"


class SeededGenerator:
    """Deterministic random source for the suites.

    Backed by numpy's PCG64 bit generator, which produces an identical
    stream for a given 64-bit seed on every platform.  Amplitudes are drawn
    uniformly from the complex unit square (real and imaginary parts in
    [0, 1)).
    """

    def __init__(self, seed: int = 42):
        self.seed = seed
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def amplitudes(self, n: int) -> np.ndarray:
        u = self._rng.random(2 * n)  # the same stream as uniform(size=n) twice
        return u[:n] + 1j * u[n:]

    def vector(self, basis: Basis) -> StateVector:
        return StateVector._owning(basis, self.amplitudes(basis.size))

    def linear(self, input_basis: Basis, output_basis: Basis) -> LinearOp:
        amps = self.amplitudes(input_basis.size * output_basis.size)
        return LinearOp._owning(input_basis, output_basis,
                                amps.reshape(input_basis.size, output_basis.size), name="random")

    def qubit(self) -> StateVector:
        v = self.vector(bool_basis())
        return v.scale(1.0 / np.sqrt(vector.dot(v, v).real))

    def table(self, input_basis: Basis, output_basis: Basis) -> dict:
        """Random total function between bases, as its table: ``table[x]`` is x's image."""
        picks = self._rng.integers(output_basis.size, size=input_basis.size)
        return {x: output_basis.element_at(int(i)) for x, i in zip(input_basis.labels, picks)}

    def pick(self, items: Sequence):
        return items[int(self._rng.integers(len(items)))]


def _tabled(table: dict) -> str:
    """A drawn table as text: ``{x->table[x], ...}``."""
    return "{" + ", ".join(f"{label_text(k)}->{label_text(v)}" for k, v in table.items()) + "}"


def default_bases() -> list[Basis]:
    b = bool_basis()
    return [b, product([b, b]), product([b, b, b])]


def default_pool() -> list[Superoperator]:
    b = bool_basis()
    bb = product([b, b])
    return [
        LIFTED["H"],
        LIFTED["X"],
        LIFTED["CX"],
        measure(b),
        trace_left(bb),
        arr(lambda t: (t[1], t[0]), bb, bb, name="arr(swap)"),
    ]


def _law(name: str, tol: float, instances: Iterable[tuple[float, Callable[[], str]]]) -> LawReport:
    """Report one law from its ``(residual, witness)`` instances.

    A witness is a closure that builds its instance's text.  It is called
    only for an instance that is the worst seen so far, before the generator
    resumes, so it reads the values of the instance just drawn.  A law with
    no instance raises ``ValueError`` rather than pass vacuously.
    """
    require_tolerance(tol)
    cases, max_residual, worst = 0, 0.0, "none"
    for residual, witness in instances:
        cases += 1
        if residual > max_residual or cases == 1:
            max_residual, worst = residual, witness()
    if not cases:
        raise ValueError(f"{name}: no instance was drawn, so the law would pass vacuously")
    return LawReport(name, cases, max_residual, max_residual <= tol, tol, worst)


def _vec_residual(v: StateVector, w: StateVector) -> float:
    return float(abs(v.amplitudes - w.amplitudes).max())


def check_monad_laws(gen: SeededGenerator | None = None,
                     bases: Sequence[Basis] | None = None,
                     n_cases: int = 50,
                     tol: float = 1e-9,
                     bind_fn: Callable = vector.bind) -> list[LawReport]:
    """Check the three monad equations; ``n_cases`` random draws per basis.

    ``bind_fn`` is injectable so the mutation fixtures can demonstrate the
    suite failing.
    """
    gen = gen or SeededGenerator()
    bases = list(bases) if bases is not None else default_bases()

    def left_identity():
        # unit x >>= f  ==  f x
        for basis, case in itertools.product(bases, range(n_cases)):
            f = gen.linear(basis, gen.pick(bases))
            for x in basis:
                yield (_vec_residual(bind_fn(vector.unit(basis, x), f), f.row(x)),
                       lambda: f"x={label_text(x)} over {basis!r}, case {case}")

    def right_identity():
        # v >>= unit  ==  v
        for basis, case in itertools.product(bases, range(n_cases)):
            v = gen.vector(basis)
            yield (_vec_residual(bind_fn(v, partial(vector.unit, basis)), v),
                   lambda: f"random vector over {basis!r}, case {case}")

    def associativity():
        # (v >>= f) >>= g  ==  v >>= (\a -> f a >>= g)
        for basis, case in itertools.product(bases, range(n_cases)):
            mid = gen.pick(bases)
            out = gen.pick(bases)
            v = gen.vector(basis)
            f = gen.linear(basis, mid)
            g = gen.linear(mid, out)
            yield (_vec_residual(bind_fn(bind_fn(v, f), g),
                                 bind_fn(v, lambda a: bind_fn(f.row(a), g))),
                   lambda: f"{basis!r}->{mid!r}->{out!r}, case {case}")

    return [
        _law("monad/left-identity", tol, left_identity()),
        _law("monad/right-identity", tol, right_identity()),
        _law("monad/associativity", tol, associativity()),
    ]


def _id_times(fn: Callable[[Label], Label], left: Basis, src: Basis, dst: Basis) -> Superoperator:
    """arr (id x fn) from ``left x src`` to ``left x dst``."""
    return arr(lambda t: (t[0], fn(t[1])), product([left, src]), product([left, dst]))


def check_arrow_laws(gen: SeededGenerator | None = None,
                     pool: Sequence[Superoperator] | None = None,
                     tol: float = 1e-9,
                     first_fn: Callable[[Superoperator, Basis], Superoperator] = first) -> list[LawReport]:
    """Check the nine arrow equations over the pool and random functions.

    Raises if the pool admits no instance of some law, so a badly shaped
    pool cannot silently produce an empty (vacuously passing) report.
    """
    gen = gen or SeededGenerator()
    pool = list(pool) if pool is not None else default_pool()
    if not pool:
        raise ValueError("arrow law pool must be non-empty")
    b = bool_basis()
    bb = product([b, b])
    fn_bases = [b, bb, _RGB]

    pairs = [(f, g) for f, g in itertools.product(pool, repeat=2) if f.output_basis == g.input_basis]
    triples = [(f, g, h) for f, g in pairs for h in pool if g.output_basis == h.input_basis]
    shapes = [(s.input_basis.size, s.output_basis.size) for s in pool]
    if not triples:  # no pair means no triple, so this also guards first-composes
        raise ValueError(f"arrow/associativity: pool contains no composable triple; shapes are {shapes}")

    def name_of(s: Superoperator) -> str:
        return s.name or repr(s)

    def arr_composes():
        # arr (g . f)  ==  arr f >>> arr g
        for _ in range(_N_RANDOM):
            src = gen.pick(fn_bases)
            mid = gen.pick(fn_bases)
            dst = gen.pick(fn_bases)
            f, g = gen.table(src, mid), gen.table(mid, dst)
            yield (max_difference(arr(lambda x: g[f[x]], src, dst),
                                  arr(f.__getitem__, src, mid) >> arr(g.__getitem__, mid, dst)),
                   lambda: f"f={_tabled(f)}, g={_tabled(g)}")

    def first_arr():
        # first (arr f)  ==  arr (f x id)
        for _ in range(_N_RANDOM):
            src = gen.pick(fn_bases)
            dst = gen.pick(fn_bases)
            carried = gen.pick([b, bb])
            f = gen.table(src, dst)
            yield (max_difference(first_fn(arr(f.__getitem__, src, dst), carried),
                                  arr(lambda t: (f[t[0]], t[1]),
                                      product([src, carried]), product([dst, carried]))),
                   lambda: f"f={_tabled(f)}, carried size {carried.size}")

    def first_exchange():
        # first f >>> arr (id x g)  ==  arr (id x g) >>> first f
        for f in pool:
            for carried_out in [b, bb]:
                g = gen.table(b, carried_out)
                lhs = first_fn(f, b) >> _id_times(g.__getitem__, f.output_basis, b, carried_out)
                rhs = _id_times(g.__getitem__, f.input_basis, b, carried_out) >> first_fn(f, carried_out)
                yield max_difference(lhs, rhs), lambda: f"f={name_of(f)}, g={_tabled(g)}"

    def first_drop(f):
        # first f >>> arr fst  ==  arr fst >>> f
        fst = lambda base: arr(lambda t: t[0], product([base, b]), base)
        return first_fn(f, b) >> fst(f.output_basis), fst(f.input_basis) >> f

    def first_assoc(f):
        # first (first f) >>> arr assoc  ==  arr assoc >>> first f
        assoc = lambda base: arr(lambda t: (t[0][0], (t[0][1], t[1])),
                                 product([product([base, b]), b]), product([base, bb]))
        return first_fn(first_fn(f, b), b) >> assoc(f.output_basis), assoc(f.input_basis) >> first_fn(f, bb)

    def over_pool(law):
        # one instance per pool operator f; law(f) gives the equation's two sides
        return ((max_difference(*law(f)), lambda: f"f={name_of(f)}") for f in pool)

    return [
        _law("arrow/left-identity", tol, over_pool(lambda f: (identity_arr(f.input_basis) >> f, f))),
        _law("arrow/right-identity", tol, over_pool(lambda f: (f >> identity_arr(f.output_basis), f))),
        _law("arrow/associativity", tol,
             ((max_difference((f >> g) >> h, f >> (g >> h)),
               lambda: f"f={name_of(f)}, g={name_of(g)}, h={name_of(h)}") for f, g, h in triples)),
        _law("arrow/arr-composes", tol, arr_composes()),
        _law("arrow/first-arr", tol, first_arr()),
        _law("arrow/first-composes", tol,
             ((max_difference(first_fn(f >> g, b), first_fn(f, b) >> first_fn(g, b)),
               lambda: f"f={name_of(f)}, g={name_of(g)}") for f, g in pairs)),
        _law("arrow/first-exchange", tol, first_exchange()),
        _law("arrow/first-drop", tol, over_pool(first_drop)),
        _law("arrow/first-assoc", tol, over_pool(first_assoc)),
    ]


def run_all(seed: int = 42, tol: float = 1e-9) -> list[LawReport]:
    """All twelve law reports with a fresh generator per suite."""
    monad = check_monad_laws(SeededGenerator(seed), tol=tol)
    arrow = check_arrow_laws(SeededGenerator(seed), tol=tol)
    return monad + arrow


# ---------------------------------------------------------------------------
# Mutation fixtures: intentionally wrong implementations that must make the
# suites fail.  They exist so a silently weakened suite cannot pass.

def skipping_bind(v: StateVector, f) -> StateVector:
    """Broken bind whose sum forgets the first basis element: its row is dropped."""
    amps = v.amplitudes.copy()
    amps[0] = 0
    return vector.bind(StateVector._owning(v.basis, amps), f)


def first_without_dual(s: Superoperator, carried: Basis) -> Superoperator:
    """Broken first that reuses the primary carried index on the dual side."""
    lifted = first(s, carried)
    sizes = (s.input_basis.size, carried.size) * 2 + (s.output_basis.size, carried.size) * 2
    full = lifted.matrix.reshape(sizes)  # (a1, d1, a2, d2) -> (b1, e1, b2, e2)
    # read first's entries at d2 == d1, so both carried output indices track
    # d1, and repeat them for every d2: d2 is ignored
    tied = np.einsum("imjmknlp->imjknlp", full)
    m = np.broadcast_to(tied[:, :, :, None], full.shape)
    return Superoperator(lifted.input_basis, lifted.output_basis, m.reshape(lifted.matrix.shape),
                         name="broken-first")
