import random
from math import gcd

import pytest
import sympy

from k3census import kummer as km
from k3census.errors import CheckFailure
from k3census.kummer import exceptional, fiber_class, pair, transform
from k3census.record import record


def test_exceptional_pairings():
    assert pair(exceptional(1, 1, 1, 1), exceptional(1, 1, 1, 1)) == -2
    assert pair(exceptional(1, 1, 1, 1), exceptional(1, 1, 1, -1)) == 0


def test_transform_pairings():
    assert pair(transform(2, 1, 1), transform(3, 1, 1)) == -1
    assert pair(transform(2, 1, 1), transform(3, -1, 1)) == 0
    assert pair(transform(2, 1, 1), transform(2, 1, -1)) == 0
    assert pair(transform(2, 1, 1), transform(2, 1, 1)) == -2
    # transform meets an exceptional sphere iff base and fiber signs agree
    assert pair(transform(2, 1, 1), exceptional(1, -1, 1, 1)) == 1
    assert pair(transform(2, 1, 1), exceptional(1, -1, -1, 1)) == 0
    assert pair(transform(2, 1, 1), exceptional(-1, -1, 1, 1)) == 0


def test_fiber_class_expansion_and_identities():
    t2 = fiber_class(2)
    want = transform(2, 1, 1).scaled(2) + exceptional(1, 1, 1, 1) + \
        exceptional(1, 1, 1, -1) + exceptional(1, -1, 1, 1) + exceptional(1, -1, 1, -1)
    assert t2 == want
    tori = [fiber_class(j) for j in (1, 2, 3)]
    for a in tori:
        for b in tori:
            assert pair(a, b) == 0


def test_pairing_symmetric_on_random_classes():
    rng = random.Random(8)
    gens = [exceptional(*[rng.choice((1, -1)) for _ in range(4)]) for _ in range(4)]
    gens += [transform(rng.randint(1, 3), rng.choice((1, -1)), rng.choice((1, -1)))
             for _ in range(4)]
    for _ in range(30):
        x = sum((g.scaled(rng.randint(-2, 2)) for g in gens), km.KummerClass({}))
        y = sum((g.scaled(rng.randint(-2, 2)) for g in gens), km.KummerClass({}))
        assert pair(x, y) == pair(y, x)
        assert isinstance(pair(x, y), int)


def test_verify_e8_bases():
    rep = km.verify_e8_bases()
    assert rep.gram_first == rep.gram_second
    assert rep.gram_first == tuple(map(tuple, km.minus_e8_matrix()))
    assert rep.cross_pairings_zero
    assert rep.torus_orthogonal
    assert rep.span_rank == 16 and rep.radical_is_torus_span


def test_radical_of_the_19_classes_matches_sympy():
    classes = list(km.e8_basis(1)) + list(km.e8_basis(-1)) + [fiber_class(j) for j in (1, 2, 3)]
    gram = sympy.Matrix([[pair(a, b) for b in classes] for a in classes])
    null = sympy.Matrix.hstack(*gram.nullspace())
    assert gram.rank() == km.verify_e8_bases().span_rank == 16
    # the radical is the span of e17, e18, e19
    assert null[:16, :].is_zero_matrix and null[16:, :].rank() == 3


def test_wrong_gram_raises_check_failure(monkeypatch):
    genuine = km.e8_basis

    def swapped(side):
        b = list(genuine(side))
        b[0], b[1] = b[1], b[0]
        return tuple(b)

    monkeypatch.setattr(km, "e8_basis", swapped)
    with pytest.raises(CheckFailure, match="first basis has wrong Gram entries"):
        km.verify_e8_bases()


def test_sign_conventions_consistent():
    from k3census import e8
    neg = km.minus_e8_matrix()
    pos = e8.cartan_matrix()
    assert [[-x for x in row] for row in neg] == pos


# ---------------------------------------------------------------------------
# basic classes and the degree-triple rigidity argument
#
# The Seiberg-Witten degree-triple argument lives here and nowhere in the
# package: no subcommand runs it.


@record(frozen=True)
class BasicClass:
    b: tuple[int, int, int]       # coefficients against 2 d_j [T_j]
    degrees: tuple[int, int, int]
    sw_coefficient: int           # coefficient in the invariant's expansion

    @property
    def is_canonical(self) -> bool:
        return self.b == (1, 1, 1)

    def pairing_with_dual(self, i: int) -> int:
        """Value against the dual class v_i (v_i . [T_j] = delta_ij)."""
        return 2 * self.b[i] * self.degrees[i]


def check_degree_triple(d) -> tuple[int, int, int]:
    d = tuple(d)
    if len(d) != 3 or not (1 < d[0] < d[1] < d[2]):
        raise ValueError("degrees must satisfy 1 < d1 < d2 < d3")
    for i in range(3):
        for j in range(i + 1, 3):
            if gcd(d[i], d[j]) != 1:
                raise ValueError("degrees must be pairwise relatively prime")
    return d


def basic_classes(d) -> tuple[BasicClass, ...]:
    """The 27 classes 2 sum b_j d_j [T_j], b_j in {-1,0,1}; the invariant's
    coefficient at a class is (-1)^(number of nonzero b_j)."""
    d = check_degree_triple(d)
    out = []
    for b1 in (-1, 0, 1):
        for b2 in (-1, 0, 1):
            for b3 in (-1, 0, 1):
                b = (b1, b2, b3)
                nz = sum(1 for x in b if x)
                out.append(BasicClass(b, d, (-1) ** nz))
    return tuple(out)


@record(frozen=True)
class RigidityResult:
    compatible: bool
    assignment: tuple[tuple[int, int], ...] | None  # (target j, sign) per source index
    reason: str


def rigidity_check(d, d_prime) -> RigidityResult:
    """Divisibility argument: a diffeomorphism would match basic-class sets,
    sending each 2 d'_j [T'_j] to some 2 sum b_k d_k [T_k]; pairing with the
    dual classes shows d'_j divides every d_k with b_k nonzero, which by
    coprimality pins exactly one k, and running the same argument backwards
    forces d'_j = d_k.  Compatible iff the triples agree, with signs free."""
    d = check_degree_triple(d)
    dp = check_degree_triple(d_prime)
    assignment = []
    for j, dj in enumerate(dp):
        targets = [k for k, dk in enumerate(d) if dk % dj == 0]
        if len(targets) != 1:
            return RigidityResult(False, None,
                                  "degree %d divides %d target degrees" % (dj, len(targets)))
        k = targets[0]
        # reverse divisibility: d_k must divide some d'_l, and the ascending
        # order then forces equality
        back = [l for l, dl in enumerate(dp) if d[k] % dl == 0]
        if d[k] != dj or back != [j]:
            return RigidityResult(False, None,
                                  "degree %d is not matched by %d" % (d[k], dj))
        assignment.append((k, 1))
    if [k for k, _ in assignment] != [0, 1, 2]:
        return RigidityResult(False, None, "assignment is not a bijection")
    return RigidityResult(True, tuple(assignment),
                          "triples agree; fiber classes match up to sign")


def test_basic_classes():
    bcs = basic_classes((2, 3, 5))
    assert len(bcs) == 27
    canon = [b for b in bcs if b.is_canonical]
    assert len(canon) == 1 and canon[0].b == (1, 1, 1)
    zero = next(b for b in bcs if b.b == (0, 0, 0))
    assert zero.sw_coefficient == 1
    assert canon[0].pairing_with_dual(2) == 2 * 5
    with pytest.raises(ValueError):
        basic_classes((2, 4, 5))  # not pairwise coprime
    with pytest.raises(ValueError):
        basic_classes((1, 2, 3))


def test_rigidity():
    ok = rigidity_check((2, 3, 5), (2, 3, 5))
    assert ok.compatible and ok.assignment == ((0, 1), (1, 1), (2, 1))
    assert not rigidity_check((2, 3, 5), (2, 3, 7)).compatible
    assert not rigidity_check((2, 3, 5), (3, 4, 5)).compatible
    with pytest.raises(ValueError):
        rigidity_check((2, 3, 5), (3, 2, 5))
