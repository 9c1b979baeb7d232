"""Every name a module of the package imports is used in that module.

Written with the standard library's ``ast``, so it needs no linter.
``__init__`` is skipped: it imports to re-export.
"""

import ast
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
