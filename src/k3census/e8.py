"""The positive definite E8 lattice: vectors, the 240 roots, reflections.

Vectors are stored with doubled integer coordinates (true coordinate d_i/2),
so every lattice element, including the half-integer roots, is an 8-tuple of
ints.  The pairing is the standard Euclidean one, (e_i, e_j) = delta_ij.

The sign convention here is positive definite.  The topology-facing Kummer
module carries the negative form -E8; the two Gram matrices are asserted to
be exact negatives of each other (see kummer.verify_e8_bases).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from operator import attrgetter, mul, neg

from . import linalg
from .errors import CheckFailure

Doubled = tuple[int, ...]


class LatticeVec:
    """E8 lattice vector; d holds doubled coordinates.  Immutable; equality,
    hash and order are those of the tuple (d,)."""

    __slots__ = ("d",)

    def __init__(self, d: Doubled):
        if len(d) != 8:
            raise ValueError("need 8 coordinates")
        if not all(isinstance(x, int) for x in d):
            raise TypeError("doubled coordinates must be ints")
        parities = {x & 1 for x in d}
        if len(parities) != 1:
            raise ValueError("not an E8 vector: mixed coordinate parity")
        if sum(d) % 4:
            raise ValueError("not an E8 vector: coordinate sum is odd")
        object.__setattr__(self, "d", d)

    def __setattr__(self, *a):
        raise AttributeError("LatticeVec is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (LatticeVec, (self.d,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.d == other.d
        return NotImplemented

    def __hash__(self):
        return hash((self.d,))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.d < other.d
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self.d <= other.d
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self.d > other.d
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self.d >= other.d
        return NotImplemented

    def __add__(self, other: "LatticeVec") -> "LatticeVec":
        return LatticeVec(tuple(a + b for a, b in zip(self.d, other.d)))

    def __sub__(self, other: "LatticeVec") -> "LatticeVec":
        return LatticeVec(tuple(a - b for a, b in zip(self.d, other.d)))

    def __neg__(self) -> "LatticeVec":
        return LatticeVec(tuple(-a for a in self.d))

    def scaled(self, k: int) -> "LatticeVec":
        return LatticeVec(tuple(k * a for a in self.d))

    def halves(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, 2) for x in self.d)

    def __repr__(self):
        if all(x % 2 == 0 for x in self.d):
            return "LatticeVec(%s)" % (tuple(x // 2 for x in self.d),)
        return "LatticeVec(1/2*%s)" % (self.d,)


Root = LatticeVec  # a LatticeVec of norm 2


def _dot(du: Doubled, dv: Doubled) -> int:
    """Four times the pairing of two doubled tuples."""
    return sum(map(mul, du, dv))


def raw_inner(du: Doubled, dv: Doubled):
    """Pairing on raw doubled tuples: int if integral, else Fraction."""
    q = _dot(du, dv)
    if q % 4 == 0:
        return q // 4
    return Fraction(q, 4)


def inner(u, v):
    """Euclidean pairing; integer on lattice vectors."""
    du = u.d if isinstance(u, LatticeVec) else tuple(u)
    dv = v.d if isinstance(v, LatticeVec) else tuple(v)
    return raw_inner(du, dv)


def is_root(v) -> bool:
    d = v.d if isinstance(v, LatticeVec) else tuple(v)
    if len(d) != 8:
        return False
    if sum(x * x for x in d) != 8:  # doubled norm of a root
        return False
    try:
        LatticeVec(d)
    except (ValueError, TypeError):
        return False
    return True


@lru_cache(maxsize=None)
def enumerate_roots() -> tuple[Root, ...]:
    """All 240 roots: +-e_i +- e_j and the even-sign half-sum vectors."""
    roots: set[Doubled] = set()
    for i, j in combinations(range(8), 2):
        for si, sj in product((2, -2), repeat=2):
            d = [0] * 8
            d[i], d[j] = si, sj
            roots.add(tuple(d))
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.add(signs)
    out = tuple(map(LatticeVec, sorted(roots)))  # LatticeVec order is tuple order
    if len(out) != 240:
        raise CheckFailure("found %d roots, not 240" % len(out))
    return out


@lru_cache(maxsize=None)
def root_set() -> frozenset[Doubled]:
    return frozenset(r.d for r in enumerate_roots())


def reflect(r: Root, x: LatticeVec) -> LatticeVec:
    """w_r(x) = x - (r, x) r, the reflection through the hyperplane r-perp."""
    if r.d not in root_set():
        raise ValueError("reflection axis must be a root")
    c = raw_inner(r.d, x.d)  # integer for lattice x
    if not c:
        return x
    return LatticeVec(tuple(xd - c * rd for xd, rd in zip(x.d, r.d)))


def _e(i: int, sign: int = 1) -> Doubled:
    d = [0] * 8
    d[i] = 2 * sign
    return tuple(d)


@lru_cache(maxsize=None)
def standard_basis() -> tuple[Root, ...]:
    """The basis f1..f8: f_i = e_i - e_{i+1} for i <= 6, f7 = e7 + e8,
    f8 = (1/2)(-e1-e2-e3-e4-e5+e6+e7-e8)."""
    fs = [LatticeVec(tuple(a - b for a, b in zip(_e(i), _e(i + 1)))) for i in range(6)]
    fs.append(LatticeVec(tuple(a + b for a, b in zip(_e(6), _e(7)))))
    fs.append(LatticeVec((-1, -1, -1, -1, -1, 1, 1, -1)))
    basis = tuple(fs)
    if not all(is_root(f) for f in basis):
        raise CheckFailure("a basis vector f_i is not a root")
    # det(F)^2 = det(F^T F) = det C = 1 for the E8 Cartan matrix C; the
    # products of doubled tuples are 4 times the pairings
    ds = [f.d for f in basis]
    doubled_gram = [[_dot(u, v) for v in ds] for u in ds]
    if doubled_gram != [[4 * x for x in row] for row in expected_cartan()]:
        raise CheckFailure("f1..f8 do not span the lattice: their Gram matrix is not "
                           "the E8 Cartan matrix")
    return basis


def f7_prime() -> Root:
    """The root e7 - e8, giving the second conjugacy class of 4-reflection
    involutions."""
    return LatticeVec(tuple(a - b for a, b in zip(_e(6), _e(7))))


# edges of the Dynkin graph on f1..f8 (1-based): a chain f1..f7 with f8
# attached at f5
DYNKIN_EDGES: tuple[tuple[int, int], ...] = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8))


def cartan_matrix() -> list[list[int]]:
    """Gram matrix of f1..f8 in the positive convention: 2 on the diagonal,
    -1 on Dynkin edges.  The pairings of lattice vectors are integers, a
    quarter of the products of their doubled tuples."""
    ds = [f.d for f in standard_basis()]
    return [[_dot(u, v) // 4 for v in ds] for u in ds]


def expected_cartan() -> list[list[int]]:
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = 2
    for i, j in DYNKIN_EDGES:
        m[i - 1][j - 1] = m[j - 1][i - 1] = -1
    return m


# ---------------------------------------------------------------------------
# root subsystem detection


def _normalized_mod_sign(roots) -> list[Root]:
    """The roots sorted by their doubled tuples, keeping the first of each
    pair +-r."""
    seen = set()
    out = []
    for r in sorted(roots, key=attrgetter("d")):
        d = r.d
        if d in seen or tuple(map(neg, d)) in seen:
            continue
        seen.add(d)
        out.append(r)
    return out


def _find_a_chain(roots: list[Root], n: int, avoid=()) -> tuple[Root, ...] | None:
    """A subset realizing the A_n diagram: a path r1..rn with |(r_i,r_j)| = 1
    for consecutive roots and 0 otherwise, all orthogonal to `avoid`.

    Runs on the doubled tuples, where (r, s) = +-1 is |r.d . s.d| = 4 and
    (r, s) = 0 is r.d . s.d = 0.  No root of the chain passes both tests of
    a new root, as r.d . r.d = 8."""
    avoid = [a.d for a in avoid]
    by_d = {r.d: r for r in roots if not any(_dot(r.d, a) for a in avoid)}
    pool = list(by_d)

    def extend(chain):
        if len(chain) == n:
            return tuple(by_d[d] for d in chain)
        last, earlier = chain[-1], chain[:-1]
        for d in pool:
            if abs(sum(map(mul, last, d))) != 4:
                continue
            if any(sum(map(mul, c, d)) for c in earlier):
                continue
            got = extend(chain + [d])
            if got:
                return got
        return None

    for start in pool:
        got = extend([start])
        if got:
            return got
    return None


def _find_d4(roots: list[Root]) -> tuple[Root, ...] | None:
    """Central root plus three mutually orthogonal neighbours."""
    pool = roots
    for center in pool:
        nbrs = [r for r in pool if r.d != center.d and abs(inner(center, r)) == 1]
        for trio in combinations(nbrs, 3):
            if all(inner(a, b) == 0 for a, b in combinations(trio, 2)):
                return (center,) + trio
    return None


def _find_a2_plus_a2(roots: list[Root]) -> tuple[Root, ...] | None:
    # try every A2 as the first copy; the second must be orthogonal to it
    for a, b in combinations(roots, 2):
        if abs(inner(a, b)) != 1:
            continue
        second = _find_a_chain(roots, 2, avoid=(a, b))
        if second:
            return (a, b) + second
    return None


def root_subsystem_type(roots, requested: str):
    """Search `roots` for a subset realizing the requested diagram.

    requested is one of "A1".."A8", "D4", "A2+A2".  Returns a witness tuple
    of roots, or None.  The search is exhaustive over the (deduplicated,
    sign-normalized) input set, which in this package never exceeds a few
    dozen roots.
    """
    rs = [r if isinstance(r, LatticeVec) else LatticeVec(tuple(r)) for r in roots]
    for r in rs:
        if not is_root(r):
            raise ValueError("input contains a non-root: %r" % (r,))
    pool = _normalized_mod_sign(rs)
    if requested == "D4":
        return _find_d4(pool)
    if requested == "A2+A2":
        return _find_a2_plus_a2(pool)
    if requested.startswith("A"):
        n = int(requested[1:])
        return _find_a_chain(pool, n)
    raise ValueError("unsupported subsystem label %r" % requested)


# ---------------------------------------------------------------------------
# matrices acting on the lattice


def reflection_matrix(r: Root) -> list[list[Fraction]]:
    """Matrix of w_r in the e-coordinates (true values, may be quarter-integral)."""
    h = r.halves()
    return [[Fraction(int(i == j)) - h[i] * h[j] for j in range(8)] for i in range(8)]


def scaled_word_matrix(word) -> list[list[int]]:
    """4 times the product of reflections, leftmost applied last: an integer
    matrix, since 4 w_r is 4I - d d^T on doubled coordinates d, and a
    product of reflections maps the lattice into itself, so its
    e-coordinate entries are quarter-integral.  For the simple roots of
    mutually orthogonal chains it is 4 times the product of their Coxeter
    elements.

    w_r sends a row to row - (row . d) d / 4.  An integral root has d = 2e
    with some e_j = +-1 and a half-integral one has every d_j = +-1, so
    (row . d) d / 4 is integral exactly when 2, resp. 4, divides row . d;
    CheckFailure otherwise."""
    m4 = [[4 * (i == j) for j in range(8)] for i in range(8)]
    for r in word:
        if not is_root(r):
            raise ValueError("reflection axis must be a root")
        d = r.d
        step, e = (2, [y // 2 for y in d]) if d[0] % 2 == 0 else (4, d)
        out = []
        for row in m4:
            c, rem = divmod(sum(map(mul, row, d)), step)
            if rem:
                raise CheckFailure("product of reflections left the quarter-integral matrices")
            out.append([x - c * y for x, y in zip(row, e)])
        m4 = out
    return m4


@lru_cache(maxsize=None)
def _basis_inverse() -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(2, B) with B / 2 the inverse of the basis matrix F (columns f1..f8 in
    e-coordinates) and B integral.

    F^T F is the Cartan matrix C, which is unimodular, so F^-1 = C^-1 F^T.
    C^-1 = v u comes from the integer Smith form u C v = I, and with D = 2F
    the doubled coordinates, B = C^-1 D^T.  Certified by B D = 4 I."""
    d, u, v = linalg.smith_normal_form(cartan_matrix())
    if d != [[int(i == j) for j in range(8)] for i in range(8)]:
        raise CheckFailure("the Cartan matrix has Smith form %r, not I" % (d,))
    ds = [f.d for f in standard_basis()]  # the columns of D, so the rows of D^T
    b = tuple(map(tuple, linalg.mat_mul(linalg.mat_mul(v, u), ds)))
    if any(_dot(row, dj) != 4 * (i == j) for i, row in enumerate(b) for j, dj in enumerate(ds)):
        raise CheckFailure("B D is not 4 I: the Cartan inverse is wrong")
    return 2, b


def f_coordinates(v: LatticeVec) -> tuple[int, ...]:
    """Coordinates of a lattice vector on the basis f1..f8."""
    s, inv = _basis_inverse()
    out = []
    for row in inv:
        c, rem = divmod(sum(map(mul, row, v.d)), 2 * s)  # v.d is twice v
        if rem:
            raise CheckFailure("f1..f8 do not span the lattice vector %r" % (v,))
        out.append(c)
    return tuple(out)


def matrix_in_f_basis(m_e, scale: int = 1) -> list[list[int]]:
    """Rewrite the e-coordinate action M = m_e / scale as an integer matrix
    on the f-basis; m_e has int or Fraction entries (scaled_word_matrix
    output goes in with scale 4, with no Fraction formed).

    The matrix is F^-1 M F for the basis matrix F, computed as the integer
    product B (t M) D divided by 2 s t, where F^-1 = B / s, D = 2F holds the
    doubled coordinates and t is scale times the lcm of the denominators of
    m_e, so t M is integral.  Each row of (t M) D and of B (t M) D is one
    packed integer (linalg.pack), so a row of a product is one sum over
    packed rows.  Every entry of B (t M) D is at most 2 b m in absolute
    value, for b and m the largest absolute row sums of B and t M, as D has
    entries of size at most 2; that bound certifies the lanes
    (linalg.lane_width)."""
    s, inv = _basis_inverse()
    t = lcm(*(x.denominator for row in m_e for x in row))
    tm = [[x.numerator * (t // x.denominator) for x in row] for row in m_e]
    bound = 2 * max(sum(map(abs, row)) for row in inv) * max(sum(map(abs, row)) for row in tm)
    bits = linalg.lane_width(bound, "e8.matrix_in_f_basis")
    md = [sum(map(mul, row, _packed_basis(bits))) for row in tm]
    scale *= 2 * s * t
    out = []
    for row in inv:
        out_row = []
        for x in linalg.unpack(sum(map(mul, row, md)), 8, bits):
            c, rem = divmod(x, scale)
            if rem:
                raise ValueError("matrix does not preserve the lattice")
            out_row.append(c)
        out.append(out_row)
    return out


@lru_cache(maxsize=None)
def _packed_basis(bits: int) -> tuple[int, ...]:
    """Row i of D (the doubled coordinates f_j.d[i] of f1..f8), packed in
    lanes of the given width."""
    return tuple(linalg.pack([f.d[i] for f in standard_basis()], bits) for i in range(8))


@lru_cache(maxsize=None)
def _root_pool():
    """The 240 roots up to sign, normalized once for both chain searches,
    and a function v -> the integer whose byte i is 8 + pool[i].d . v.

    For doubled tuples of roots |pool[i].d . v| <= 8, so each byte holds
    one value in 0..16, and every pairing with v comes from one sum over 8
    packed columns: column j holds pool[i].d[j] + 2 >= 0 in byte i, so the
    sum with weights v holds pool[i].d . v + 2 sum(v) there, and adding
    8 - 2 sum(v) to every byte moves it to 8 + pool[i].d . v."""
    pool = tuple(_normalized_mod_sign(enumerate_roots()))
    ds = [r.d for r in pool]
    cols = [int.from_bytes(bytes(x + 2 for x in col), "little") for col in zip(*ds)]
    ones = (256 ** len(pool) - 1) // 255
    return pool, lambda v: sum(map(mul, v, cols)) + (8 - 2 * sum(v)) * ones


def _orthogonal_pool(chains) -> list[Root]:
    """The roots of the normalized pool orthogonal to every root of the
    given chains, in pool order.  Orthogonality is blind to sign, so this
    is the normalized pool of the orthogonal roots."""
    pool, pairing = _root_pool()
    eights = 8 * (256 ** len(pool) - 1) // 255
    off = 0  # byte i is nonzero once pool root i meets a root of a chain
    for c in chains:
        for r in c:
            off |= pairing(r.d) ^ eights
    return [r for r, b in zip(pool, off.to_bytes(len(pool), "little")) if not b]


@lru_cache(maxsize=None)
def orthogonal_a4_pair() -> tuple[tuple[Root, ...], tuple[Root, ...]]:
    """Two mutually orthogonal A4 chains inside the root system."""
    first = _find_a_chain(_root_pool()[0], 4)
    if first is None:
        raise CheckFailure("no A4 chain among the roots")
    second = _find_a_chain(_orthogonal_pool([first]), 4)
    if second is None:
        raise CheckFailure("no A4 chain orthogonal to %r" % (first,))
    return first, second


@lru_cache(maxsize=None)
def orthogonal_a2_quadruple() -> tuple[tuple[Root, ...], ...]:
    """Four mutually orthogonal A2 chains inside the root system."""
    chains: list[tuple[Root, ...]] = []
    for _ in range(4):
        nxt = _find_a_chain(_orthogonal_pool(chains), 2)
        if nxt is None:
            raise CheckFailure("no A2 chain orthogonal to %d earlier chains" % len(chains))
        chains.append(nxt)
    return tuple(chains)
