"""Every module-level import in `src/liewedge/*.py` is used in its module.

Parsed with `ast`: a name bound by a top-level ``import`` or ``from ...
import`` must appear as a name somewhere in the module.  ``__init__.py``
(whose imports are re-exports) and ``from __future__`` imports are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liewedge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
