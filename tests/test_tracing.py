"""The benchmark's span tracer installs on the package.

The traced benchmark run (``benchmarks/tracing.py``) wraps functions and
classes of every jumpcurv module by name, so removing or renaming one of
them breaks that run.  Installing the tracer in a fresh interpreter catches
it here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]; "
        "import jumpcurv, tracing; tracing.Tracer().install(jumpcurv)"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "benchmarks")],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
