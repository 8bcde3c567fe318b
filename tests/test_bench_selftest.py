"""The benchmark harness and its contract with the library, so neither can rot between benchmark runs.

``bench/selftest.py`` checks the benchmark's reference simulator against
hand-derived answers and shows that every output check can fail; it takes
well under a second and writes no files.  The benchmark's own modules are
loaded here by file path: ``bench/refsim.py`` is an oracle written apart
from qarrow, and ``bench/tracer.py`` looks the library's layers up by name.
"""

import importlib.util
import io
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import qarrow
from qarrow import cli
from qarrow.textcircuit import initial_density, parse_circuit, route

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


inputs, refsim, tracer = (_bench_module(name) for name in ("inputs", "refsim", "tracer"))


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(0, 24))
def test_circuits_run_as_the_reference_simulator_runs_them(seed, k, n_steps):
    text = inputs.random_circuit(np.random.default_rng(seed), k, n_steps)
    ir = parse_circuit(text)
    out = route(ir).apply(initial_density(ir))
    live, expected = refsim.run(refsim.parse(text))
    assert ir.outputs == live
    assert out.matrix.shape == expected.shape
    assert np.max(np.abs(out.matrix - expected)) <= 1e-12


def test_the_tracer_finds_its_names_and_counts_the_run_stages():
    t = tracer.Tracer()
    out, err = io.StringIO(), io.StringIO()
    t.install()  # fails on a traced name the library no longer has
    try:
        code = cli.main(["run", str(resources.files(qarrow) / "data" / "teleport.qc"), "--format", "json"],
                        out=out, err=err)
    finally:
        t.uninstall()
    assert code == 0, err.getvalue()
    assert t.calls["textcircuit.route"] == 1
    assert t.counts()["textcircuit.stages"] == 8  # the file's gate, cgate, measure and discard lines
