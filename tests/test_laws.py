import dataclasses
import functools
import json
from pathlib import Path

import pytest

from qarrow import basis as basis_module, vector

from qarrow.basis import Basis, bool_basis, product
from qarrow.circuits import LIFTED
from qarrow.laws import (
    LawReport,
    SeededGenerator,
    check_arrow_laws,
    check_monad_laws,
    default_bases,
    default_pool,
    first_without_dual,
    run_all,
    skipping_bind,
)
from qarrow.density import diagnostics, pure_density
from qarrow.linear import gate
from qarrow.superop import arr, extensional_equal, first, lin2super, measure


def test_monad_suite_passes_at_defaults():
    reports = check_monad_laws(SeededGenerator(42), n_cases=50, tol=1e-9)
    assert len(reports) == 3
    assert all(r.passed for r in reports)
    assert [r.name for r in reports] == [
        "monad/left-identity",
        "monad/right-identity",
        "monad/associativity",
    ]


def test_arrow_suite_passes_at_defaults():
    reports = check_arrow_laws(SeededGenerator(42), tol=1e-9)
    assert len(reports) == 9
    assert all(r.passed for r in reports)


def test_run_all_yields_twelve_reports():
    reports = run_all(seed=42, tol=1e-9)
    assert len(reports) == 12
    assert all(r.passed for r in reports)


# (name, cases) of the twelve reports, which no seed changes
LAW_SHAPE = [
    ("monad/left-identity", 700),
    ("monad/right-identity", 150),
    ("monad/associativity", 150),
    ("arrow/left-identity", 6),
    ("arrow/right-identity", 6),
    ("arrow/associativity", 54),
    ("arrow/arr-composes", 20),
    ("arrow/first-arr", 20),
    ("arrow/first-composes", 18),
    ("arrow/first-exchange", 12),
    ("arrow/first-drop", 6),
    ("arrow/first-assoc", 6),
]
# the laws each mutation fixture must fail, and fails alone
FIXTURE_FAILURES = {"monad/left-identity", "monad/right-identity", "arrow/first-arr"}


@functools.cache
def reports_at(seed):
    """The reports of ``run_all`` and of both mutation fixtures at ``seed``."""
    return {"run_all": run_all(seed),
            "skipping_bind": check_monad_laws(SeededGenerator(seed), bind_fn=skipping_bind),
            "first_without_dual": check_arrow_laws(SeededGenerator(seed), first_fn=first_without_dual)}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 42])
def test_law_reports_keep_their_shape(seed):
    runs = reports_at(seed)
    fixtures = runs["skipping_bind"] + runs["first_without_dual"]
    for reports, failing in [(runs["run_all"], set()), (fixtures, FIXTURE_FAILURES)]:
        assert [(r.name, r.cases, r.passed) for r in reports] == [
            (name, cases, name not in failing) for name, cases in LAW_SHAPE]
        assert all(r.max_residual <= 1e-12 for r in reports if r.passed)


# Every field of those reports, written by the code before vectors adopted the
# arrays the library makes and arr-led chains gathered rows.  The residuals were
# the same with 1 and 2 BLAS threads, so every field, floats included, must
# match exactly.
GOLDEN = json.loads((Path(__file__).parent / "golden_law_reports.json").read_text())


@pytest.mark.parametrize("seed", sorted(GOLDEN, key=int))
def test_law_reports_match_the_golden_file(seed):
    runs = reports_at(int(seed))
    assert {run: [dataclasses.asdict(r) for r in reports] for run, reports in runs.items()} == GOLDEN[seed]


def test_run_all_interns_no_new_products():
    run_all(seed=0)
    misses = basis_module._product.cache_info().misses
    for seed in (1, 2, 3):
        run_all(seed=seed)
    assert basis_module._product.cache_info().misses == misses


def test_monad_cases_cover_each_basis():
    reports = check_monad_laws(SeededGenerator(1), n_cases=50, tol=1e-9)
    for report in reports:
        assert report.cases >= 50 * len(default_bases())


def test_left_identity_on_the_singleton_basis_is_exact():
    singleton = Basis(("unit",))
    reports = check_monad_laws(SeededGenerator(5), bases=[singleton], n_cases=5, tol=1e-9)
    assert reports[0].max_residual == 0.0


def test_reports_are_deterministic_in_the_seed():
    a = check_monad_laws(SeededGenerator(9), n_cases=10, tol=1e-9)
    b = check_monad_laws(SeededGenerator(9), n_cases=10, tol=1e-9)
    assert a == b
    c = check_arrow_laws(SeededGenerator(9), tol=1e-9)
    d = check_arrow_laws(SeededGenerator(9), tol=1e-9)
    assert c == d


def test_pass_flag_matches_the_residual_and_tolerance():
    for report in run_all(seed=3, tol=1e-9):
        assert report.passed == (report.max_residual <= report.tolerance)


def test_broken_bind_fails_the_identity_laws():
    reports = check_monad_laws(SeededGenerator(42), n_cases=10, tol=1e-9, bind_fn=skipping_bind)
    by_name = {r.name: r for r in reports}
    assert not by_name["monad/right-identity"].passed
    assert by_name["monad/right-identity"].max_residual > 1e-3
    assert by_name["monad/right-identity"].worst_case != "none"


def test_broken_first_fails_the_first_arr_law():
    reports = check_arrow_laws(SeededGenerator(42), tol=1e-9, first_fn=first_without_dual)
    by_name = {r.name: r for r in reports}
    assert not by_name["arrow/first-arr"].passed
    assert by_name["arrow/first-arr"].max_residual > 0.5


def test_identity_only_pool_has_exactly_zero_residuals():
    from qarrow.superop import identity_arr

    reports = check_arrow_laws(SeededGenerator(2), pool=[identity_arr(bool_basis())])
    by_name = {r.name: r for r in reports}
    assert by_name["arrow/left-identity"].max_residual == 0.0
    assert all(r.passed for r in reports)


def test_incompatible_pool_is_reported_with_the_law_name():
    with pytest.raises(ValueError, match="arrow/associativity"):
        check_arrow_laws(SeededGenerator(1), pool=[measure(bool_basis())])


RGB = Basis(("r", "g", "b"))


def to_rgb(base):
    return arr(lambda x: RGB.element_at(base.index_of(x) % 3), base, RGB)


@pytest.mark.parametrize("pool", [
    [measure(bool_basis())],
    [to_rgb(bool_basis())],
    [measure(bool_basis()), to_rgb(product([bool_basis(), bool_basis()]))],
    # b -> bb -> rgb composes, but nothing takes rgb: a pair and no triple
    [arr(lambda x: (x, x), bool_basis(), product([bool_basis(), bool_basis()])),
     to_rgb(product([bool_basis(), bool_basis()]))],
])
def test_pools_without_a_composable_triple_name_associativity(pool):
    with pytest.raises(ValueError, match="arrow/associativity: pool contains no composable triple"):
        check_arrow_laws(SeededGenerator(1), pool=pool)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_law_suites_reject_nonsense_tolerances(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        check_monad_laws(SeededGenerator(1), tol=tol)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        check_arrow_laws(SeededGenerator(1), tol=tol)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        diagnostics(pure_density(vector.named_state("qFT")), tol=tol)
    s = lin2super(gate("hadamard"))
    with pytest.raises(ValueError, match="tolerance must be positive"):
        extensional_equal(s, s, tol)


def test_empty_pool_rejected():
    with pytest.raises(ValueError):
        check_arrow_laws(SeededGenerator(1), pool=[])


def test_monad_suite_without_bases_raises_instead_of_passing_vacuously():
    with pytest.raises(ValueError, match="monad/left-identity: no instance was drawn"):
        check_monad_laws(SeededGenerator(1), bases=[])


def test_n_cases_must_be_positive():
    with pytest.raises(ValueError):
        check_monad_laws(SeededGenerator(1), n_cases=0)


def test_default_pool_shapes():
    pool = default_pool()
    assert len(pool) == 6
    names = {op.name for op in pool}
    assert "measure(2)" in names
    assert any(name.startswith("trace_left") for name in names)


def test_generator_is_platform_stable():
    gen = SeededGenerator(1234)
    first_draw = gen.amplitudes(2)
    again = SeededGenerator(1234).amplitudes(2)
    assert (first_draw == again).all()


def test_generator_qubit_is_normalized():
    gen = SeededGenerator(7)
    from qarrow.vector import dot

    for _ in range(5):
        q = gen.qubit()
        assert abs(dot(q, q) - 1) < 1e-12


def test_report_string_mentions_status():
    report = LawReport("demo", 1, 0.0, True, 1e-9, "none")
    assert "PASS" in str(report)


def test_worst_case_names_the_instance_that_was_worst():
    # correct on every basis but the 2-wire one, which the default bases
    # list between the 1-wire and the 3-wire basis
    two_wires = product([bool_basis(), bool_basis()])

    def bind_wrong_on_two_wires(v, f):
        w = vector.bind(v, f)
        return w.scale(2.0) if v.basis == two_wires else w

    reports = check_monad_laws(SeededGenerator(42), n_cases=5, tol=1e-9, bind_fn=bind_wrong_on_two_wires)
    left = {r.name: r for r in reports}["monad/left-identity"]
    assert not left.passed
    assert " over Basis[4](" in left.worst_case
    assert "Basis[8]" not in left.worst_case and "Basis[2]" not in left.worst_case


def test_arrow_worst_case_names_the_pool_item_that_was_worst():
    # first is correct except on CX, the third of the six pool items, which it
    # lifts as CZ: same shape, another channel.  The witness must name CX, not
    # the pool item the generator reaches after it.
    def first_wrong_on_cx(s, carried):
        return first(LIFTED["CZ"], carried) if s is LIFTED["CX"] else first(s, carried)

    reports = check_arrow_laws(SeededGenerator(42), first_fn=first_wrong_on_cx)
    failed = {r.name: r for r in reports if not r.passed}
    assert sorted(failed) == ["arrow/first-composes", "arrow/first-drop"]
    assert failed["arrow/first-drop"].worst_case == "f=lift(controlled(qnot))"
    assert failed["arrow/first-composes"].worst_case.startswith("f=lift(controlled(qnot)), ")
