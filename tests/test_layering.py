"""Import layering: the library and the serving stack stand without the
benchmark harness and the baseline indexes."""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def test_core_and_serve_import_no_bench_or_baselines():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import repro.core, repro.serve;"
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.startswith(('repro.bench', 'repro.baselines')))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, SRC_DIR],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
