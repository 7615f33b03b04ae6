"""Helpers and session fixtures shared by the test files.

Each sample that several files check is built here once per session, with
the one independent reference for its kernel:

* `rand_element` / `seeded_elements`: the seeded sampler of H;
* `tuple_product`, `inverse_image` and `byte_table`: the H product,
  inverse and signed table on image tuples;
* `involutions`: every involution of H but +-1, enumerated from
  itertools.permutations, each with its reference trace, parity witness,
  (k, b, s) type and 4A' shape;
* `element_inputs`: 10^4 seeded elements with the product, inverse and
  conjugate of neighbours;
* `witness_inputs`: the Lemma 4.5 Coxeter witnesses and the e-coordinate
  matrices they hand to e8.matrix_in_f_basis;
* `lens_field_traces`: the lens-space field sums over Q(zeta_p)."""

import os
import random
import subprocess
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import permutations, product
from math import gcd, prod
from operator import itemgetter, mul
from pathlib import Path

import pytest

import k3census
from k3census import e8, gindex, reps, sgnperm as sp
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


# ---------------------------------------------------------------------------
# the seeded sampler of H


def rand_element(rng) -> SignedPerm:
    """A uniform element of H: a shuffled permutation and a sign vector
    made even on its first entry."""
    perm = list(range(8))
    rng.shuffle(perm)
    eps = [rng.choice((1, -1)) for _ in range(8)]
    if eps.count(-1) % 2:
        eps[0] = -eps[0]
    return SignedPerm.from_eps_perm(tuple(eps), tuple(perm))


def seeded_elements(n, seed):
    rng = random.Random(seed)
    return [rand_element(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# the H product, inverse and table on image tuples


IDENT = tuple(range(1, 9))


def tuple_product(a, b):
    """Image tuple of a * b, by reading a's signed images off b's entries."""
    return tuple([a[t - 1] if t > 0 else -a[-t - 1] for t in b])


def inverse_image(a):
    """Image tuple of the inverse: e_j goes back to +-e_i where a sends e_i
    to +-e_j."""
    out = [0] * 8
    for i, t in enumerate(a, 1):
        if t > 0:
            out[t - 1] = i
        else:
            out[-t - 1] = -i
    return tuple(out)


def byte_table(a):
    """The signed table of the image a as the package stores it: 17 bytes,
    byte t for t in -8..8 (counted from the end when negative) holding the
    signed image of t mod 17, so byte 0 is 0, byte t is a[t-1] mod 17 and
    byte -t is -a[t-1] mod 17."""
    return bytes([0, *[t % 17 for t in a], *[-t % 17 for t in reversed(a)]])


def cycles(p):
    """Cycles of a permutation of range(8), each from its least element."""
    seen = [False] * 8
    out = []
    for start in range(8):
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i]
        if cyc:
            out.append(tuple(cyc))
    return out


def reference_signed_cycles(v):
    """Cycles of the underlying permutation, each from its least element,
    with their sign products."""
    image = v.image
    return [(cyc, prod(1 if image[i] > 0 else -1 for i in cyc))
            for cyc in cycles([abs(t) - 1 for t in image])]


def partitions(n, largest=None):
    """Partitions of n into non-increasing parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def signed_cycle_type_representatives():
    """One element of H for each signed cycle type: the cycles run over
    consecutive letters, the sign product of a cycle sits on its first
    letter, and an even number of cycles is negative."""
    out = {}
    for parts in partitions(8):
        for signs in product((1, -1), repeat=len(parts)):
            if signs.count(-1) % 2:
                continue
            cycles, eps, at = [], [1] * 8, 1
            for length, sign in zip(parts, signs):
                cycles.append(tuple(range(at, at + length)))
                eps[at - 1] = sign
                at += length
            out.setdefault(tuple(sorted(zip(parts, signs))),
                           SignedPerm.from_cycles(cycles, eps))
    return list(out.values())


def class_representatives():
    """The element built for each of the 95 signed cycle types, and the
    class_representative of its class key."""
    built = signed_cycle_type_representatives()
    out = built + [sp.class_representative(g.class_conjugator()[0]) for g in built]
    if len({g.cycle_type() for g in built}) != 95:
        pytest.fail("%d signed cycle types" % len(built))
    return out


@pytest.fixture(scope="session")
def element_inputs():
    """10^4 elements of seed 1517 with the product, inverse and conjugate of
    neighbours.  Shared: a test that needs unwalked elements copies them."""
    gs = seeded_elements(10_000, seed=1517)
    out = list(gs)
    for g, h in zip(gs, gs[1:] + gs[:1]):
        out += [g * h, g.inverse(), g.conjugated_by(h)]
    return tuple(out)


# ---------------------------------------------------------------------------
# every involution of H but +-1, with its reference values


@lru_cache(maxsize=None)
def involutive_matchings():
    """The 764 involutive permutations of range(8) from
    itertools.permutations, each as its tuple of transpositions (i, j),
    i < j, ordered by their number, then by support, then by the pairs."""
    out = []
    for p in permutations(range(8)):
        if all(p[p[i]] == i for i in range(8)):
            pairs = tuple((i, j) for i, j in enumerate(p) if i < j)
            out.append((len(pairs), sorted(i for pair in pairs for i in pair), pairs))
    return tuple(pairs for _, _, pairs in sorted(out))


def matchings(k):
    """The sets of k disjoint transpositions of range(8), in that order."""
    return tuple(pairs for pairs in involutive_matchings() if len(pairs) == k)


def reference_trace(a):
    """Fixed letters minus negated letters of the image a, in two scans."""
    return (sum(t == i for i, t in enumerate(a, 1))
            - sum(t == -i for i, t in enumerate(a, 1)))


@lru_cache(maxsize=None)
def signed_roots():
    """Each root with its doubled coordinates followed by their negatives."""
    return tuple((r, r.d + tuple(-x for x in r.d)) for r in e8.enumerate_roots())


def root_images(g):
    """(r, doubled coordinates of g(r)) for the roots r in enumerate_roots
    order, lazily: the image entry image[i] = +-(j+1) sends coordinate i to
    +-coordinate j, so g(r) is a gather from the doubled coordinates of r
    followed by their negatives.  The doubled pairing of g(r) with r is
    4 (g(r), r)."""
    src = [0] * 8
    for i, t in enumerate(g.image):
        src[abs(t) - 1] = i if t > 0 else i + 8
    act = itemgetter(*src)
    return ((r, act(signed)) for r, signed in signed_roots())


def reference_parity_witness(v):
    """First root, in enumerate_roots order, whose pairing with its image is
    odd."""
    return next((r for r, image in root_images(v) if sum(map(mul, image, r.d)) // 4 % 2),
                None)


def reference_fixed_roots(gens):
    """The roots r with g(r) = r for every g in gens (a single element is
    allowed), in enumerate_roots order."""
    if isinstance(gens, SignedPerm):
        gens = [gens]
    fixed = {r.d for r in e8.enumerate_roots()}
    for g in gens:
        fixed &= {image for r, image in root_images(g) if image == r.d}
    return tuple(r for r in e8.enumerate_roots() if r.d in fixed)


def reference_shape(a):
    """The 4A' shape of the image a: an involution with one sign on both
    letters of each transposition, and either no transposition and four
    negated letters or four transpositions and a multiple of 4 negated."""
    if a == IDENT or tuple_product(a, a) != IDENT:
        return False
    p = [abs(t) - 1 for t in a]
    if any((a[i] < 0) != (a[p[i]] < 0) for i in range(8)):
        return False
    moved, negated = sum(p[i] != i for i in range(8)), sum(t < 0 for t in a)
    return negated == 4 if moved == 0 else moved == 8 and negated % 4 == 0


Involution = namedtuple("Involution", "element trace witness kind shape")
Involution.__doc__ = """An involution with its reference values: kind is
(k, b, s), k transpositions, b fixed letters negated and s the parity of the
negated transpositions when k = 4."""


def all_involutions():
    """Every involution of H but +-1, from a matching and a sign on each
    transposition and each fixed letter, as Involution records."""
    for k in range(5):
        for pairs in matchings(k):
            moved = [i for pair in pairs for i in pair]
            fixed = [i for i in range(8) if i not in moved]
            for pair_signs in product((1, -1), repeat=k):
                for fixed_signs in product((1, -1), repeat=len(fixed)):
                    b = fixed_signs.count(-1)
                    if b % 2 or (k == 0 and b in (0, 8)):
                        continue
                    image = [0] * 8
                    for (i, j), s in zip(pairs, pair_signs):
                        image[i], image[j] = s * (j + 1), s * (i + 1)
                    for i, s in zip(fixed, fixed_signs):
                        image[i] = s * (i + 1)
                    v = SignedPerm(tuple(image))
                    parity = pair_signs.count(-1) % 2 if k == 4 else 0
                    yield Involution(v, reference_trace(v.image), reference_parity_witness(v),
                                     (k, b, parity), reference_shape(v.image))


@pytest.fixture(scope="session")
def involutions():
    """The 17038 involutions of H but +-1 with their reference values,
    enumerated once per session."""
    return tuple(all_involutions())


# ---------------------------------------------------------------------------
# the Lemma 4.5 witnesses


Witnesses = namedtuple("Witnesses", "e_inputs witnesses")


@pytest.fixture(scope="session")
def witness_inputs():
    """The Lemma 4.5 witnesses as (p, RepDecomp, f-basis matrix), one per
    census entry, and the (e-coordinate matrix, scale) pairs that
    coxeter_witness hands to matrix_in_f_basis (scale 4 for the integer
    Coxeter words)."""
    seen = []
    original = e8.matrix_in_f_basis

    def record(m_e, scale=1):
        seen.append((m_e, scale))
        return original(m_e, scale)

    e8.matrix_in_f_basis = record
    try:
        witnesses = [(p, d, reps.coxeter_witness(p, (d.r, d.s, d.t)))
                     for p in (3, 5, 7) for d in reps.lemma45_census(p)]
    finally:
        e8.matrix_in_f_basis = original
    return Witnesses(seen, witnesses)
