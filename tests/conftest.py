import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import k3census
from k3census import gindex
from k3census.census import ThetaProfile
from k3census.cyclotomic import CycNum, cot_product
from k3census.reps import RepDecomp
from k3census.sgnperm import SignedPerm

# the lens spaces L(p, q) with odd p <= 51: 542 of them
LENS_P = range(3, 52, 2)


def signed_identity():
    """The identity element of H as a signed permutation."""
    return SignedPerm(tuple(range(1, 9)))


def profile_from_rts(p: int, rts1, rts2) -> ThetaProfile:
    """The profile whose factors have the (r, t, s) counts rts1 and rts2."""
    r1, t1, s1 = rts1
    r2, t2, s2 = rts2
    return ThetaProfile(p, RepDecomp(p, r1, s1, t1), RepDecomp(p, r2, s2, t2))


def is_degenerate(profile: ThetaProfile) -> bool:
    """True when a factor acts trivially; such profiles are accepted by the
    solvers but fall outside the nontrivial-on-both-factors census."""
    trivial = RepDecomp(profile.p, 0, 0, 8)
    return profile.first == trivial or profile.second == trivial


def is_real(x: CycNum) -> bool:
    """Whether x is fixed by complex conjugation."""
    return x == x.conjugate()


def apply_doubled(g, xd):
    """g applied to a vector given by its doubled coordinates xd: the image
    entry image[i] = +-(j+1) sends coordinate i to +-coordinate j."""
    d = [0] * 8
    for i, t in enumerate(g.image):
        d[abs(t) - 1] = xd[i] if t > 0 else -xd[i]
    return tuple(d)


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


def field_trace(p: int, terms):
    """The sum of the given elements of Q(zeta_p), which must be rational."""
    total = CycNum.rational(0)
    for t in terms:
        total = total + t
    value = total.as_rational()
    if value is None:
        pytest.fail("a Galois trace over Q(zeta_%d) is not rational" % p)
    return value


@pytest.fixture(scope="session")
def lens_field_traces():
    """{(p, q): (def, T)} over the 542 lens spaces L(p, q), odd p <= 51, both
    summed as p - 1 elements of Q(zeta_p): the point signature defect
    def = sum_k cot(k pi/p) cot(k q pi/p) from cot_product, and the Dirac
    trace T = sum_k I(k, k q) from gindex._point_term.  These field sums
    are the routes the package's Dedekind-sum forms replaced; computed once
    per session and shared by every test that checks against them."""
    return {(p, q): (field_trace(p, (cot_product(p, k, k * q) for k in range(1, p))),
                     field_trace(p, (gindex._point_term(p, k, k * q) for k in range(1, p))))
            for p in LENS_P for q in range(1, p) if gcd(p, q) == 1}
