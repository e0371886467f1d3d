"""Every module-level import in `src/liewedge/*.py` is used in its module,
and scipy is imported only where it is called.

Parsed with `ast`: a name bound by a top-level ``import`` or ``from ...
import`` must appear as a name somewhere in the module.  ``__init__.py``
(whose imports are re-exports) and ``from __future__`` imports are skipped.
No module imports scipy outside a function body, so `import liewedge.cli`
and the subcommands that never call scipy (`example`, `wedge`,
`conditions`) load none of it; fresh interpreters check that, and that each
call site that imports scipy works on its first call.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liewedge.channels import ChannelSpec, build_system
from liewedge.cli import format_system_file

SRC = Path(__file__).resolve().parents[1] / "src" / "liewedge"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau\nx: np.ndarray = os.path.join(pi)\n")
    assert unused_imports(source) == ["tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def eager_imports(source: str) -> list:
    """Top-level names of the packages a module imports when it is itself
    imported: every absolute import outside a function body."""
    out = []
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
        nodes.extend(ast.iter_child_nodes(node))
    return sorted(out)


def test_the_check_sees_imports_outside_functions_only():
    source = ("import numpy as np\nfrom . import wedge\nif np:\n    import scipy.linalg\n"
              "class A:\n    from scipy import optimize\n"
              "def f():\n    from scipy.optimize import nnls\n    import json\n")
    assert eager_imports(source) == ["numpy", "scipy", "scipy"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_imports_no_scipy_at_import_time(path):
    assert "scipy" not in eager_imports(path.read_text(encoding="utf-8"))


# Prints the sorted names of the scipy modules loaded so far.
_SCIPY = ("print(json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] == 'scipy')))")


def _fresh(code: str, cwd=None) -> str:
    """stdout of `code` run in a fresh interpreter that imports liewedge
    from this checkout; a failure shows its stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    """A directory holding phase_flip.sys (a qubit file) and two_qubit_C.sys."""
    d = tmp_path_factory.mktemp("systems")
    specs = {"phase_flip": ChannelSpec(name="phase_flip", control_axes=("x",), drift_axis="z"),
             "two_qubit_C": ChannelSpec(name="two_qubit_C")}
    for name, spec in specs.items():
        (d / f"{name}.sys").write_text(format_system_file(build_system(spec)), encoding="utf-8")
    return d


def test_importing_the_cli_loads_no_scipy():
    assert json.loads(_fresh(f"import json, sys, liewedge, liewedge.cli; {_SCIPY}")) == []


def _scipy_after_cli(argv: list, cwd) -> list:
    """The scipy modules a fresh interpreter has loaded after `cli.main(argv)`
    succeeds in `cwd`."""
    code = ("import contextlib, io, json, sys\nfrom liewedge.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
            f"{_SCIPY}\n")
    return json.loads(_fresh(code, cwd=cwd))


@pytest.mark.parametrize("argv", [
    ["example", "2"],
    ["wedge", "--system", "phase_flip.sys"],
    ["conditions", "--system", "two_qubit_C.sys"],
], ids=lambda argv: argv[0])
def test_subcommands_that_call_no_scipy_load_none(argv, system_dir):
    assert _scipy_after_cli(argv, system_dir) == []


def test_reachable_loads_scipy_linalg_only(system_dir):
    loaded = _scipy_after_cli(["reachable", "--system", "two_qubit_C.sys", "--switches", "3",
                               "--count", "5"], system_dir)
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded


# Each first-call check starts where no scipy module is loaded yet, makes
# the call that imports it, then checks the result against scipy itself or
# against a second call, made with scipy loaded.
_FIRST_CALLS = {
    "svd_gesvd_fallback": """
from liewedge import matcore
m = np.random.default_rng(0).normal(size=(6, 4)) + 1j * np.random.default_rng(1).normal(size=(6, 4))
gesdd = np.linalg.svd
def refuse(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")
np.linalg.svd = refuse
NO_SCIPY
got = matcore.svd(m)
np.linalg.svd = gesdd
import scipy.linalg
want = scipy.linalg.svd(m, lapack_driver="gesvd")
assert all(np.array_equal(g, w) for g, w in zip(got, want))
""",
    "expm": """
from liewedge.matcore import expm
a = np.random.default_rng(0).normal(size=(3, 4, 4)) * (1 + 1j)
NO_SCIPY
got = expm(a)
import scipy.linalg
assert np.array_equal(got, scipy.linalg.expm(a))
""",
    "cone_fit": """
from liewedge.matcore import realify, unrealify
from liewedge.wedge import Cone, _cone_fit
c = Cone((np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.eye(3)), shape=(3, 3),
         complex_field=False)
x = np.diag([2.0, -1.0, 0.5])
NO_SCIPY
rnorm, fit = _cone_fit(c, x)
from scipy.optimize import nnls
coef, want = nnls(c.stack, realify(x, False))
assert rnorm == want and rnorm > 0.0
assert np.array_equal(fit, unrealify(c.stack @ coef, c.shape, False))
""",
    "nelder_mead_support": """
from liewedge.channels import ChannelSpec, build_system
from liewedge.liealg import lie_closure
from liewedge.wedge import ConjugationFamily, initial_wedge
w = initial_wedge(build_system(ChannelSpec(name="two_qubit_B")))
edge = lie_closure(w.edge.mats, tol=1e-9)
fam = ConjugationFamily(edge.mats, w.drift - edge.project(w.drift))
assert fam.kind == "orbit" and fam.exact is None
d = np.random.default_rng(0).normal(size=fam.base.shape)
NO_SCIPY
g, value = fam.support(d)
assert "scipy.optimize" in sys.modules
g2, value2 = fam.support(d)
assert value == value2 and np.array_equal(g, g2)
""",
    "steer": """
from liewedge.channels import sigma
from liewedge.lindblad import ControlSystem
from liewedge.reachable import Schedule, propagate, steer
system = ControlSystem(rep="qubit", drift_H=sigma("z") / 2.0, controls=(sigma("x") / 2.0,),
                       lindblad_ops=((sigma("z") / 2.0, 0.4),))
target = propagate(system, Schedule(((0.37, (0.8,)),)))
assert "scipy.optimize" not in sys.modules
sched, dist = steer(system, target, 1, budget=8, seed=3)
assert dist < 1e-6
assert steer(system, target, 1, budget=8, seed=3) == (sched, dist)
""",
}


@pytest.mark.parametrize("name", sorted(_FIRST_CALLS))
def test_deferred_scipy_import_works_on_the_first_call(name):
    no_scipy = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], sys.modules"
    code = "import sys\nimport numpy as np\n" + _FIRST_CALLS[name].replace("NO_SCIPY", no_scipy)
    _fresh(code)
