"""Every function the benchmark's tracer wraps must exist in ``tosca``.

The traced benchmark run replaces named functions (``tosca.engine.fnv1a``,
``tosca.luca.vecmat``, ``tosca.engine.luca_forward``, ...) with timing
wrappers.  A seam that was renamed or deleted is skipped silently and its
per-layer metrics go missing, which only the benchmark's own self-test
notices.  This test fails first.
"""

import sys
from pathlib import Path

BENCH_DIR = str(Path(__file__).resolve().parent.parent / "benchmarks")


def test_every_traced_seam_resolves():
    # read-only import: no __pycache__ is written under benchmarks/
    sys.path.insert(0, BENCH_DIR)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(BENCH_DIR)
        sys.dont_write_bytecode = write_bytecode
    t = Tracer()
    t.install()
    try:
        assert t.absent == []
    finally:
        t.uninstall()
