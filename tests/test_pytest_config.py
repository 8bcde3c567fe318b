"""The project's pytest settings must let a failing property test report itself.

``pyproject.toml`` turns every warning into an error.  A warning raised inside
a plugin's report hook would then abort the whole session, hiding the
falsifying example and every later test, so this runs a failing hypothesis
test under those settings in a fresh pytest process.  That process sees none
of the caller's ``PYTEST_*`` variables (an ``-x`` or ``-W`` in
``PYTEST_ADDOPTS`` would change its outcome) and loads no plugin but
hypothesis's own.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_a_failing_property_test_reports_its_example_without_aborting(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin", str(tmp_path / "test_failing_property.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
