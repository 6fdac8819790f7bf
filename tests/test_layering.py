"""Import layering: only the CLI names the scenarios, importing the CLI loads no numpy,
and each module imports alone."""

import os
import pkgutil
import subprocess
import sys

import pytest

import contextnet

MODULES = sorted(m.name for m in pkgutil.iter_modules(contextnet.__path__, "contextnet."))


def _python(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter that turns every warning into an error."""
    path = [os.path.dirname(contextnet.__path__[0]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_oracle_imports_no_scenario_module():
    code = (
        "import sys, contextnet.oracle\n"
        "print(sorted({'contextnet.hardy3', 'contextnet.nonlocal4'} & set(sys.modules)))"
    )
    assert _python(code) == "[]\n"


def test_the_cli_imports_without_numpy():
    # sample and sweep import numpy when they run; verify and graph never do
    assert _python("import sys, contextnet.cli\nprint('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_without_warnings(module):
    _python(f"import {module}")
