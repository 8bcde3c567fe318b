import io
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qarrow
from qarrow import cli
from qarrow.basis import bool_basis, product
from qarrow.cli import main
from qarrow.density import DiagnosticsReport, from_json_dict, max_abs_diff, pure_density
from qarrow.laws import SeededGenerator, check_monad_laws
from qarrow.textcircuit import initial_density, parse_circuit, route
from qarrow.vector import unit
from test_textcircuit import circuit_texts


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def bundled_path(name):
    return str(resources.files(qarrow) / "data" / name)


def test_run_toffoli_emits_the_truth_table_result_as_json():
    code, out, err = run_cli(["run", bundled_path("toffoli.qc"), "--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    density = from_json_dict(payload)
    b3 = product([bool_basis()] * 3)
    expected = pure_density(unit(b3, (True, True, True)))
    assert density.basis == b3
    assert max_abs_diff(density, expected) < 1e-12


def test_run_text_output_has_labels():
    code, out, err = run_cli(["run", bundled_path("teleport.qc")])
    assert code == 0
    assert "F" in out and "T" in out
    assert "0.5000" in out


def test_run_validate_input_accepts_prepared_states():
    code, _, err = run_cli(["run", bundled_path("teleport.qc"), "--validate-input"])
    assert code == 0, err


def test_run_validate_input_exits_3_on_an_unphysical_input(monkeypatch):
    # every init state of the file format is physical, so the report is forced
    monkeypatch.setattr(cli, "diagnostics", lambda rho, tol: DiagnosticsReport(True, False, True, 0.25))
    code, out, err = run_cli(["run", bundled_path("teleport.qc"), "--validate-input"])
    assert (code, out) == (3, "")
    assert err == ("error: input density failed validation "
                   "(hermitian=True psd=False unit_trace=True max_violation=2.500e-01)\n")


def test_run_text_precision_is_configurable():
    code, out, _ = run_cli(["run", bundled_path("teleport.qc"), "--precision", "2"])
    assert code == 0
    assert "0.50+0.00j" in out


def test_run_missing_file_exits_2():
    code, _, err = run_cli(["run", "/nonexistent/circuit.qc"])
    assert code == 2
    assert "cannot read" in err


def test_run_malformed_file_prints_line_numbered_diagnostic(tmp_path):
    bad = tmp_path / "bad.qc"
    bad.write_text("wires q\ngate H nosuchwire\n", encoding="utf-8")
    code, out, err = run_cli(["run", str(bad)])
    assert code == 2
    assert "line 2" in err
    assert "unknown wire" in err
    assert out == ""


def test_json_round_trips_at_the_stated_precision(tmp_path):
    circuit = tmp_path / "mix.qc"
    circuit.write_text("wires q\ninit q FT\nmeasure q\n", encoding="utf-8")
    code, out, _ = run_cli(["run", str(circuit), "--format", "json", "--precision", "6"])
    assert code == 0
    payload = json.loads(out)
    again = json.loads(json.dumps(payload))
    assert again == payload
    density = from_json_dict(payload)
    assert float(np.max(np.abs(density.matrix - np.diag([0.5, 0.5])))) < 1e-6


def test_demo_toffoli():
    code, out, err = run_cli(["demo", "toffoli", "--format", "json"])
    assert code == 0, err
    density = from_json_dict(json.loads(out))
    b3 = product([bool_basis()] * 3)
    assert max_abs_diff(density, pure_density(unit(b3, (True, True, True)))) < 1e-9


def test_demo_teleport_reports_a_tiny_deviation_and_succeeds():
    code, out, err = run_cli(["demo", "teleport"])
    assert code == 0, err
    line = [l for l in out.splitlines() if l.startswith("max deviation")][0]
    deviation = float(line.rsplit(" ", 1)[1])
    assert deviation <= 1e-9


def test_the_demos_are_the_packaged_circuit_files():
    assert cli._DEMOS == tuple(sorted(p.name[:-3] for p in (resources.files(qarrow) / "data").iterdir()
                                      if p.name.endswith(".qc")))


@pytest.mark.parametrize("name", cli._DEMOS)
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("precision", [[], ["--precision", "0"], ["--precision", "6"]])
def test_demo_is_run_on_the_packaged_file(name, fmt, precision):
    options = ["--format", fmt] + precision
    code, out, err = run_cli(["demo", name] + options)
    lines, errors = out.splitlines(keepends=True), err.splitlines(keepends=True)
    if name == "teleport":  # its deviation line: last on stdout in text mode, on stderr in JSON
        assert (lines if fmt == "text" else errors).pop().startswith("max deviation from expected output: ")
    assert run_cli(["run", bundled_path(f"{name}.qc")] + options) == (code, "".join(lines), "".join(errors))
    assert code == 0


def test_laws_prints_twelve_pass_rows_and_exits_0():
    code, out, err = run_cli(["laws", "--seed", "42"])
    assert code == 0, err
    rows = [l for l in out.splitlines() if l.rstrip().endswith("PASS")]
    assert len(rows) == 12
    assert not [l for l in out.splitlines() if l.rstrip().endswith("FAIL")]


def test_laws_seed_must_be_64_bit_unsigned():
    code, _, _ = run_cli(["laws", "--seed", "-1"])
    assert code == 2
    code, _, _ = run_cli(["laws", "--seed", str(2 ** 64)])
    assert code == 2


def test_laws_accepts_a_positive_finite_tolerance():
    code, out, err = run_cli(["laws", "--tol", "1e-6"])
    assert code == 0, err
    assert len([l for l in out.splitlines() if l.rstrip().endswith("PASS")]) == 12


def test_laws_exits_1_and_names_the_worst_case_when_a_law_fails(monkeypatch):
    failing = qarrow.LawReport("arrow/first-drop", 6, 0.5, False, 1e-9, "f=measure(2)")
    passing = qarrow.LawReport("monad/left-identity", 700, 0.0, True, 1e-9, "none")
    monkeypatch.setattr(cli, "run_all", lambda seed, tol: [passing, failing])
    code, out, err = run_cli(["laws"])
    assert code == 1
    assert out.splitlines()[-1].rstrip().endswith("FAIL")
    assert err == "error: arrow/first-drop failed, worst case: f=measure(2)\n"


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_laws_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    code, out, err = run_cli(["laws", "--tol", tol])
    assert code == 2
    assert out == ""
    assert "tolerance must be a positive finite number" in err


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_help_prints_the_usage_and_exits_0(capsys):
    code, _, _ = run_cli(["--help"])
    assert code == 0
    assert capsys.readouterr().out.startswith("usage: qarrow")


def test_a_usage_error_prints_the_usage_and_one_error_line_to_err(capsys):
    code, out, err = run_cli(["laws", "--seed", "x"])
    assert code == 2
    assert out == ""
    usage, *_, last = err.splitlines()
    assert usage.startswith("usage: qarrow laws")
    assert last.startswith("error: argument --seed") and err.count("error:") == 1
    assert capsys.readouterr() == ("", "")


def test_negative_precision_is_a_usage_error(tmp_path):
    for argv in (["run", bundled_path("teleport.qc")],
                 ["run", bundled_path("teleport.qc"), "--format", "json"],
                 ["demo", "teleport"]):
        code, out, err = run_cli(argv + ["--precision", "-1"])
        assert code == 2
        assert out == ""
        assert "precision must be a non-negative integer" in err


@pytest.mark.parametrize("precision", [300, 309, 400])
def test_json_at_a_large_precision_emits_each_entry_rounded(tmp_path, precision):
    circuit = tmp_path / "h.qc"
    circuit.write_text("wires a\ngate H a\n", encoding="utf-8")
    code, out, err = run_cli(["run", str(circuit), "--format", "json", "--precision", str(precision)])
    assert code == 0, err
    payload = json.loads(out)
    ir = parse_circuit(circuit.read_text())
    entries = route(ir).apply(initial_density(ir)).matrix
    assert payload["re"] == [[round(x, precision) for x in row] for row in entries.real.tolist()]
    assert payload["im"] == [[round(x, precision) for x in row] for row in entries.imag.tolist()]
    assert np.all(np.isfinite(payload["re"])) and np.all(np.isfinite(payload["im"]))


def test_zero_precision_is_accepted():
    code, out, err = run_cli(["run", bundled_path("teleport.qc"), "--precision", "0"])
    assert code == 0, err
    assert "0+0j" in out


def test_run_non_utf8_file_exits_2(tmp_path):
    bad = tmp_path / "latin1.qc"
    bad.write_bytes("wires q\n# caf\xe9\n".encode("latin-1"))
    code, out, err = run_cli(["run", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}")


def test_run_ten_wires_matches_the_ghz_state(tmp_path):
    names = [f"w{i}" for i in range(10)]
    circuit = tmp_path / "ghz10.qc"
    circuit.write_text("wires " + " ".join(names) + f"\ngate H {names[0]}\n"
                       + "".join(f"cgate X {a} {b}\n" for a, b in zip(names, names[1:])),
                       encoding="utf-8")
    code, out, err = run_cli(["run", str(circuit), "--format", "json"])
    assert code == 0, err
    density = from_json_dict(json.loads(out))
    expected = np.zeros((1024, 1024))
    expected[np.ix_([0, 1023], [0, 1023])] = 0.5
    assert float(np.max(np.abs(density.matrix - expected))) < 1e-12


@pytest.mark.skipif(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >= 64 * 2 ** 30,
                    reason="a 68 GB density might really be allocated here")
def test_run_too_many_wires_exits_3(tmp_path):
    names = " ".join(f"w{i}" for i in range(16))
    circuit = tmp_path / "wide.qc"
    circuit.write_text(f"wires {names}\ngate H w0\n", encoding="utf-8")
    code, out, err = run_cli(["run", str(circuit)])
    assert code == 3
    assert out == ""
    assert "16-wire" in err and "does not fit in memory" in err


def test_run_refuses_a_24_wire_density_before_allocating_it(tmp_path, monkeypatch):
    def fail(ir):
        raise AssertionError("the density was built")

    monkeypatch.setattr(cli, "initial_density", fail)
    circuit = tmp_path / "wide.qc"
    circuit.write_text("wires " + " ".join(f"w{i}" for i in range(24)) + "\ngate H w0\n",
                       encoding="utf-8")
    code, out, err = run_cli(["run", str(circuit)])
    assert (code, out) == (3, "")
    assert "24-wire" in err and "does not fit in memory" in err


def test_run_compares_the_density_with_the_memory_limit(monkeypatch):
    built = []
    monkeypatch.setattr(cli, "initial_density", lambda ir: built.append(ir) or initial_density(ir))
    peak = cli._PEAK_DENSITIES * 16 * 4 ** 3  # toffoli.qc has 3 wires
    monkeypatch.setattr(cli, "_memory_limit", lambda: peak - 1)
    code, out, err = run_cli(["run", bundled_path("toffoli.qc")])
    assert (code, out, built) == (3, "", [])
    assert "3-wire" in err and "does not fit in memory" in err
    monkeypatch.setattr(cli, "_memory_limit", lambda: peak)
    code, out, err = run_cli(["run", bundled_path("toffoli.qc")])
    assert code == 0, err
    assert len(built) == 1


def test_memory_limit_is_positive_and_at_most_physical_memory():
    assert 0 < cli._memory_limit() <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.parametrize("module", ["qarrow", "qarrow.cli"])
def test_python_dash_m_runs_the_command(module, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
               PYTHONDONTWRITEBYTECODE="1")
    bad = tmp_path / "bad.qc"
    bad.write_text("wires q\nbogus q\n", encoding="utf-8")

    def run(path):
        return subprocess.run([sys.executable, "-m", module, "run", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)

    failed = run(bad)
    assert failed.returncode == 2
    assert "error: line 2" in failed.stderr
    assert failed.stdout == ""
    ok = run(bundled_path("teleport.qc"))
    assert ok.returncode == 0, ok.stderr
    assert "F" in ok.stdout and "T" in ok.stdout
    demo = subprocess.run([sys.executable, "-m", module, "demo", "teleport"],  # finds its packaged file
                          env=env, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert (demo.returncode, demo.stderr) == (0, "")
    assert demo.stdout.startswith(ok.stdout) and "max deviation from expected output" in demo.stdout


def _h_file(tmp_path):
    circuit = tmp_path / "h.qc"
    circuit.write_text("wires a\ngate H a\n", encoding="utf-8")
    return str(circuit)


def _stub_emitters(monkeypatch):
    """Replace both emitters by stubs that format nothing; return the calls made."""
    called = []
    monkeypatch.setattr(cli, "format_table", lambda *a, **k: called.append("format_table") or "")
    monkeypatch.setattr(cli, "to_json_dict", lambda *a, **k: called.append("to_json_dict") or {})
    return called


def test_closed_output_exits_141_with_one_error_line(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
               PYTHONDONTWRITEBYTECODE="1")
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody reads: the first write fails with EPIPE
    try:
        done = subprocess.run([sys.executable, "-m", "qarrow", "run", _h_file(tmp_path), "--format", "json"],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == "error: standard output was closed before the result was written\n"


@pytest.mark.parametrize("command", [["run", "h.qc"], ["demo", "teleport"]])
@pytest.mark.parametrize("precision", [2 ** 31, 10 ** 20])
def test_text_precision_of_2_31_or_more_is_a_usage_error(tmp_path, monkeypatch, command, precision):
    called = _stub_emitters(monkeypatch)
    argv = [_h_file(tmp_path) if a == "h.qc" else a for a in command]
    code, out, err = run_cli(argv + ["--precision", str(precision)])
    assert (code, out, called) == (2, "", [])
    assert err == "error: a text --precision must be at most 2147483647\n"


@pytest.mark.parametrize("command", [["run", "h.qc"], ["demo", "teleport"]])
@pytest.mark.parametrize("precision, expected", [(1000, 0), (1001, 3)])
def test_the_memory_check_counts_the_text_tables_digits(tmp_path, monkeypatch, command, precision, expected):
    called = _stub_emitters(monkeypatch)
    argv = [_h_file(tmp_path) if a == "h.qc" else a for a in command]
    # the input's entries (4 for h.qc's one wire, 64 for teleport.qc's three),
    # each 160 bytes plus 8 per decimal past the fourth
    entries = 4 if command[0] == "run" else 64
    monkeypatch.setattr(cli, "_memory_limit", lambda: entries * (160 + 8 * 996))
    code, out, err = run_cli(argv + ["--precision", str(precision)])
    assert code == expected, err
    if expected == 0:
        assert called == ["format_table"]
    else:
        assert (out, called) == ("", [])
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "does not fit in memory" in err


def test_a_huge_text_precision_is_refused_by_the_memory_check(tmp_path, monkeypatch):
    called = _stub_emitters(monkeypatch)
    monkeypatch.setattr(cli, "_memory_limit", lambda: 8 * 2 ** 30)
    code, out, err = run_cli(["run", _h_file(tmp_path), "--precision", str(2 ** 31 - 1)])
    assert (code, out, called) == (3, "", [])
    assert err == "error: the density of a 1-wire circuit does not fit in memory\n"


def test_json_accepts_a_precision_the_text_table_refuses(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_memory_limit", lambda: 8 * 2 ** 30)
    for precision in (2 ** 31 - 1, 2 ** 31, 10 ** 20):
        code, out, err = run_cli(["run", _h_file(tmp_path), "--format", "json", "--precision", str(precision)])
        assert code == 0, err
        assert json.loads(out)["basis"] == ["F", "T"]


@pytest.mark.parametrize("emitter, fmt", [("to_json_dict", "json"), ("format_table", "text")])
def test_a_memory_error_while_emitting_exits_3(tmp_path, monkeypatch, emitter, fmt):
    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, emitter, fail)
    code, out, err = run_cli(["run", _h_file(tmp_path), "--format", fmt])
    assert (code, out) == (3, "")
    assert err == "error: the density of a 1-wire circuit does not fit in memory\n"


def test_demo_teleport_exits_3_when_the_output_deviates(monkeypatch):
    monkeypatch.setattr(cli, "max_abs_diff", lambda got, want: 0.5)
    code, out, err = run_cli(["demo", "teleport"])
    assert code == 3
    assert "max deviation from expected output: 5.000e-01" in out
    assert err == "error: teleport deviated by 5.000e-01 (tol 1e-09)\n"


def test_demo_teleport_json_is_one_document_and_the_deviation_goes_to_stderr():
    code, out, err = run_cli(["demo", "teleport", "--format", "json"])
    assert code == 0, err
    density = from_json_dict(json.loads(out))
    assert density.basis == bool_basis()
    line, = err.splitlines()
    assert line.startswith("max deviation from expected output: ")
    assert float(line.rsplit(" ", 1)[1]) <= 1e-9


# no precision between 10**6 and 2**31 - 1: a host might accept that text table at several GB
_PRECISIONS = ["-1", "0", "3", "17", str(2 ** 31), str(10 ** 20), "x"]
_OPTIONS = {
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--precision": st.sampled_from(_PRECISIONS),
    "--seed": st.sampled_from(["0", "7", str(2 ** 64 - 1), "-1", str(2 ** 64), "x"]),
    "--tol": st.sampled_from(["1e-9", "1e-6", "0", "-1", "nan", "inf", "x"]),
}
_MISSING, _LATIN1 = "missing", "latin-1"
_CIRCUITS = circuit_texts().filter(lambda text: len(text.split("\n", 1)[0].split()) <= 4)  # up to 3 wires


@st.composite
def cli_argvs(draw):
    """(argv, file contents); a ``run`` argv ends in the placeholder ``FILE``."""
    command = draw(st.sampled_from(["run", "run", "run", "demo", "demo", "laws", "frobnicate"]))
    own = ["--seed", "--tol"] if command == "laws" else ["--format", "--precision"]
    names = draw(st.lists(st.sampled_from(own), unique=True))
    if draw(st.integers(0, 4)) == 0:  # now and then an option the subcommand does not take
        names.append(draw(st.sampled_from(sorted(set(_OPTIONS) - set(own)))))
    argv = [command]
    for name in names:
        argv += [name, draw(_OPTIONS[name])]
    contents = None
    if command == "run":
        contents = draw(st.sampled_from([_MISSING, _LATIN1]) if draw(st.integers(0, 4)) == 0 else _CIRCUITS)
        argv.append("FILE")
    elif command == "demo":
        argv.append(draw(st.sampled_from(["toffoli", "teleport", "nosuch"])))
    return argv, contents


@settings(max_examples=150, deadline=None)
@given(cli_argvs())
def test_main_never_raises(drawn):
    argv, contents = drawn
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            cli, "run_all", lambda seed, tol: check_monad_laws(SeededGenerator(seed), n_cases=1, tol=tol)):
        path = Path(tmp) / "circuit.qc"
        if contents == _LATIN1:
            path.write_bytes("wires q\n# caf\xe9\n".encode("latin-1"))
        elif contents not in (None, _MISSING):
            path.write_text(contents, encoding="utf-8")
        code, out, err = run_cli([str(path) if a == "FILE" else a for a in argv])
    assert type(code) is int and code in {0, 1, 2, 3}
    if code == 0 and "json" in argv:
        json.loads(out)
