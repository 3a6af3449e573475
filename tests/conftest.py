import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _test_dps():
    # expected-value arithmetic inside tests runs at a comfortable precision
    with mp.workdps(60):
        yield


def run_fresh(args, **kwargs):
    """``subprocess.run`` of ``python *args`` in a fresh interpreter that
    imports zetakit from the ``src`` next to these tests, ahead of any
    PYTHONPATH already set; ``kwargs`` go to ``subprocess.run``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          **kwargs)
