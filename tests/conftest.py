import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3census
from k3census.sgnperm import SignedPerm


def signed_identity():
    """The identity element of H as a signed permutation."""
    return SignedPerm(tuple(range(1, 9)))


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
