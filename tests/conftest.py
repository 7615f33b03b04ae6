import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3census


@pytest.fixture
def run_optimized():
    """Run `python -O <args>` in a new process with this package importable;
    -O strips assert statements, so only explicit checks remain."""
    paths = [str(Path(k3census.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

    def run(*args):
        return subprocess.run([sys.executable, "-O", *args], env=env,
                              capture_output=True, text=True, timeout=300)

    return run
