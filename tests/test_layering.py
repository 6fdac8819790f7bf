"""Import layering: only the CLI names the scenarios, importing the CLI loads no numpy,
a command that needs numpy exits 2 without it, only the two functions that compute with
numpy import it, and each module imports alone."""

import ast
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import contextnet
from contextnet import cli, errors

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
#: as an install without it does.
_REFUSE_NUMPY = """\
import importlib.abc, sys

class RefuseNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, RefuseNumpy())
"""

#: Without numpy, the CLI runs on the child's arguments.
_WITHOUT_NUMPY = _REFUSE_NUMPY + "from contextnet import cli\ncli.run()\n"


_SAMPLE = ["sample", "hardy3", "--params", "{params}", "--seed", "1", "--trials"]


@pytest.mark.parametrize("argv,err", [
    pytest.param(_SAMPLE + ["10"], "error: sample needs numpy\n", id="sample"),
    pytest.param(["sweep", "--grid", "3", "--out", "{out}"], "error: sweep needs numpy\n",
                 id="sweep"),
    # a bad argument is refused before numpy is imported, with the error it gets with numpy
    pytest.param(_SAMPLE + ["0"], f"error: trials=0; trials run from 1 to {2**63 - 1}\n",
                 id="sample-trials-0"),
    pytest.param(["sweep", "--grid", "2", "--out", "{out}"],
                 "error: grid needs at least 3 points per axis\n", id="sweep-grid-2"),
])
def test_a_command_that_needs_numpy_exits_2_without_it(argv, err, tmp_path):
    params, out = tmp_path / "params.json", tmp_path / "sweep.csv"
    params.write_text('{"alpha": 0.5, "beta": 0.5}')
    done = _run(_WITHOUT_NUMPY, *[a.format(params=params, out=out) for a in argv])
    assert (done.returncode, done.stdout, done.stderr) == (2, "", err)
    assert not out.exists()


def test_another_missing_module_is_not_bad_input(monkeypatch):
    def missing(figure):
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

    monkeypatch.setattr(cli, "cmd_graph", missing)
    with pytest.raises(ModuleNotFoundError, match="scipy"):
        cli.main(["graph", "--figure", "1"])


def test_a_type_error_is_a_defect_not_bad_input(monkeypatch):
    # no bad input raises TypeError, so one keeps its traceback rather than exit 2
    def defect(figure):
        raise TypeError("a defect")

    monkeypatch.setattr(cli, "cmd_graph", defect)
    with pytest.raises(TypeError, match="a defect"):
        cli.main(["graph", "--figure", "1"])


def test_every_package_error_is_a_value_error():
    # so cli.main's ValueError clause turns each into exit 2
    named = [e for e in vars(errors).values()
             if isinstance(e, type) and issubclass(e, errors.ContextNetError)]
    assert errors.OutOfDomain in named and all(issubclass(e, ValueError) for e in named)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_without_warnings(module):
    _python(f"import {module}")


def test_scenarios_copy_pickle_and_print_without_numpy():
    code = _REFUSE_NUMPY + """\
import copy, pickle
from contextnet import hardy3, nonlocal4
from contextnet.hilbert import StateVector
for s in (hardy3.build_scenario(hardy3.ScenarioParams(0.3, 0.7, 0.4, 2.1)),
          nonlocal4.build_nonlocal(nonlocal4.LocalParams(0.3, 1.1))):
    for clone in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(clone) is type(s) and clone == s and clone is not s
    assert eval(repr(s.n_f), {"StateVector": StateVector}) == s.n_f
v = StateVector([0.6, 0.8j])
print(repr(v), v.components, "numpy" in sys.modules)
"""
    assert _python(code) == "StateVector([(0.6+0j), 0.8j]) ((0.6+0j), 0.8j) False\n"


def _numpy_imports(node, scope):
    """The dotted scope of each ``import numpy`` or ``from numpy ...`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _numpy_imports(child, f"{scope}.{child.name}")
        elif isinstance(child, ast.Import):
            if any(a.name.partition(".")[0] == "numpy" for a in child.names):
                yield scope
        elif isinstance(child, ast.ImportFrom):
            if child.level == 0 and child.module.partition(".")[0] == "numpy":
                yield scope
        else:
            yield from _numpy_imports(child, scope)


def test_numpy_is_imported_only_where_it_computes():
    # the Philox binomial, the sweep grid and the sweep's 17-digit kernel; no
    # module imports numpy at top level
    found = set()
    for path in pathlib.Path(contextnet.__path__[0]).glob("*.py"):
        found.update(_numpy_imports(ast.parse(path.read_text(), str(path)), path.stem))
    assert found == {"oracle.sample_context", "cli.cmd_sweep", "cli._fixed17"}
