"""Every name a module of the package imports is used in that module,
every private module-level name is used somewhere in the package, and the
package runs on numpy alone: importing it loads no scipy.

Written with the standard library's ``ast``, so it needs no linter.
``__init__`` is skipped by the import check: it imports to re-export.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tosca

# Imported only so the benchmark tracer can wrap them at these names.
SEAM_ONLY = {("luca", "vecmat"), ("engine", "luca_forward"),
             ("engine", "head_forward")}


def _unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_finds_what_it_should():
    src = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.x(e)\n"
    assert _unused_imports(src) == {"os", "c"}


def test_every_import_is_used():
    found = set()
    for path in sorted(Path(tosca.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        found |= {(path.stem, name)
                  for name in _unused_imports(path.read_text())}
    # exactly the seam-only imports: a stale allowlist entry fails too
    assert found == SEAM_ONLY


def _private_definitions(source: str) -> set:
    """Module-level functions, classes and constants whose names start with
    a single underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(source: str) -> set:
    """Names read, attributes looked up and names imported."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def _unreferenced(sources: list) -> set:
    defined = set().union(*map(_private_definitions, sources))
    return defined - set().union(*map(_references, sources))


def test_unreferenced_finds_what_it_should():
    src = ("_A = 1\n_B: int = 2\n__all__ = []\nPUBLIC = _A\n"
           "def _number_list(t):\n    return t\n"
           "def _float_list(t):\n    _C = 3\n    return t\n"
           "class _Unused:\n    pass\n"
           "print(_number_list(PUBLIC))\n")
    assert _unreferenced([src]) == {"_B", "_float_list", "_Unused"}
    # a use in another module counts, as an import or an attribute
    other = "from .m import _float_list\nm._B\n"
    assert _unreferenced([src, other]) == {"_Unused"}


def test_every_private_name_is_referenced():
    sources = [path.read_text()
               for path in sorted(Path(tosca.__file__).parent.glob("*.py"))]
    assert _unreferenced(sources) == set()


def test_importing_tosca_loads_no_scipy():
    # a fresh interpreter, so no other test's import can hide one
    code = ("import sys, tosca, tosca.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(Path(tosca.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
