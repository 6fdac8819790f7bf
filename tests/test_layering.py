"""Import layering: only the CLI names the scenarios, importing the CLI loads no numpy,
a command that needs numpy exits 2 without it, and each module imports alone."""

import os
import pkgutil
import subprocess
import sys

import pytest

import contextnet
from contextnet import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(contextnet.__path__, "contextnet."))


def _run(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """``code`` with ``args`` in a fresh interpreter run with ``flags``; warnings are errors."""
    path = [os.path.dirname(contextnet.__path__[0]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *flags, "-W", "error", "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def _python(code: str, *flags: str) -> str:
    """Stdout of ``code`` in a fresh interpreter started with ``flags``, which must exit 0."""
    done = _run(code, flags=flags)
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


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    # The records are named tuples: importing dataclasses, and inspect with
    # it, was most of the import's time.
    code = (
        "import sys, contextnet.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    assert _python(code, "-S") == "[]\n"
    # A .pth file that site runs may import typing itself; -S above runs no site.
    assert _python(code) in ("[]\n", "['typing']\n")


#: Child-interpreter code: a finder first on ``sys.meta_path`` refuses numpy,
#: as an install without it does, then the CLI runs on the child's arguments.
_WITHOUT_NUMPY = """\
import importlib.abc, sys

class RefuseNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, RefuseNumpy())
from contextnet import cli
cli.run()
"""


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_a_command_that_needs_numpy_exits_2_without_it(command, tmp_path):
    params, out = tmp_path / "params.json", tmp_path / "sweep.csv"
    params.write_text('{"alpha": 0.5, "beta": 0.5}')
    argv = {
        "sample": ["sample", "hardy3", "--params", str(params), "--seed", "1", "--trials", "10"],
        "sweep": ["sweep", "--grid", "3", "--out", str(out)],
    }[command]
    done = _run(_WITHOUT_NUMPY, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {command} needs numpy\n")
    assert not out.exists()


def test_another_missing_module_is_not_bad_input(monkeypatch):
    def missing(figure):
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

    monkeypatch.setattr(cli, "cmd_graph", missing)
    with pytest.raises(ModuleNotFoundError, match="scipy"):
        cli.main(["graph", "--figure", "1"])


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_without_warnings(module):
    _python(f"import {module}")
