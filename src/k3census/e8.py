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
from operator import mul

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

    @classmethod
    def from_halves(cls, halves) -> "LatticeVec":
        """Build from true coordinates given as ints/Fractions."""
        d = []
        for h in halves:
            v = Fraction(h) * 2
            if v.denominator != 1:
                raise ValueError("coordinate %s is not half-integral" % h)
            d.append(int(v))
        return cls(tuple(d))

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


def raw_inner(du: Doubled, dv: Doubled):
    """Pairing on raw doubled tuples: int if integral, else Fraction."""
    q = sum(a * b for a, b in zip(du, dv))
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
    out = tuple(sorted(LatticeVec(d) for d in roots))
    if len(out) != 240:
        raise CheckFailure("found %d roots, not 240" % len(out))
    return out


@lru_cache(maxsize=None)
def root_set() -> frozenset[Doubled]:
    return frozenset(r.d for r in enumerate_roots())


def reflect(r: Root, x: LatticeVec) -> LatticeVec:
    """w_r(x) = x - (r, x) r, the reflection through the hyperplane r-perp."""
    if not is_root(r):
        raise ValueError("reflection axis must be a root")
    c = raw_inner(r.d, x.d)  # integer for lattice x
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
    if abs(linalg.det([[Fraction(x, 2) for x in f.d] for f in basis])) != 1:
        raise CheckFailure("f1..f8 do not span the lattice")
    return basis


def f7_prime() -> Root:
    """The root e7 - e8, giving the second conjugacy class of 4-reflection
    involutions."""
    return LatticeVec(tuple(a - b for a, b in zip(_e(6), _e(7))))


# edges of the Dynkin graph on f1..f8 (1-based): a chain f1..f7 with f8
# attached at f5
DYNKIN_EDGES: tuple[tuple[int, int], ...] = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8))


def gram(vectors) -> list[list]:
    return [[inner(u, v) for v in vectors] for u in vectors]


def cartan_matrix() -> list[list[int]]:
    """Gram matrix of f1..f8 in the positive convention: 2 on the diagonal,
    -1 on Dynkin edges."""
    return gram(standard_basis())


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
    seen = set()
    out = []
    for r in sorted(roots):
        if r.d in seen or tuple(-x for x in r.d) in seen:
            continue
        seen.add(r.d)
        out.append(r)
    return out


def _find_a_chain(roots: list[Root], n: int, avoid=()) -> tuple[Root, ...] | None:
    """A subset realizing the A_n diagram: a path r1..rn with |(r_i,r_j)| = 1
    for consecutive roots and 0 otherwise, all orthogonal to `avoid`."""
    pool = [r for r in roots if all(inner(r, a) == 0 for a in avoid)]

    def extend(chain):
        if len(chain) == n:
            return tuple(chain)
        for r in pool:
            if any(r.d == c.d for c in chain):
                continue
            if abs(inner(chain[-1], r)) != 1:
                continue
            if any(inner(c, r) != 0 for c in chain[:-1]):
                continue
            got = extend(chain + [r])
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


def word_matrix(word) -> list[list[Fraction]]:
    """Product of reflections, leftmost applied last.

    Runs on 4 times the product, which is an integer matrix: 4 w_r is
    4I - d d^T on doubled coordinates d, and a product of reflections maps
    the lattice into itself, so its e-coordinate entries are quarter-integral."""
    m4 = [[4 * (i == j) for j in range(8)] for i in range(8)]
    for r in word:
        if not is_root(r):
            raise ValueError("reflection axis must be a root")
        d = r.d
        m16 = []
        for row in m4:
            c = sum(map(mul, row, d))
            m16.append([4 * x - c * y for x, y in zip(row, d)])
        if any(x % 4 for row in m16 for x in row):
            raise CheckFailure("product of reflections left the quarter-integral matrices")
        m4 = [[x // 4 for x in row] for row in m16]
    return [[Fraction(x, 4) for x in row] for row in m4]


def apply_matrix(m, x: LatticeVec) -> LatticeVec:
    vals = linalg.mat_vec(m, list(x.halves()))
    return LatticeVec.from_halves(vals)


@lru_cache(maxsize=None)
def _basis_matrix() -> list[list[Fraction]]:
    """Columns are f1..f8 in e-coordinates."""
    fs = standard_basis()
    return [[fs[j].halves()[i] for j in range(8)] for i in range(8)]


@lru_cache(maxsize=None)
def _basis_inverse() -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(s, B) with B / s the inverse of the basis matrix and B integral."""
    f = _basis_matrix()
    n = 8
    aug = [list(f[i]) + linalg.identity(n)[i] for i in range(n)]
    red, pivots = linalg._echelon(aug)
    if pivots != list(range(n)):
        raise CheckFailure("f1..f8 are linearly dependent")
    inv = [row[n:] for row in red]
    s = lcm(*(x.denominator for row in inv for x in row))
    return s, tuple(tuple(int(x * s) for x in row) for row in inv)


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


def matrix_in_f_basis(m_e) -> list[list[int]]:
    """Rewrite an e-coordinate action as an integer matrix on the f-basis.

    The matrix is F^-1 M F for the basis matrix F, computed as the integer
    product B (t M) (2 F) divided by 2 s t, where F^-1 = B / s and t clears
    the denominators of M."""
    s, inv = _basis_inverse()
    t = lcm(*(x.denominator for row in m_e for x in row))
    m_cols = list(zip(*([x.numerator * (t // x.denominator) for x in row] for row in m_e)))
    bm = [[sum(map(mul, row, col)) for col in m_cols] for row in inv]
    scale = 2 * s * t
    out = []
    for row in bm:
        out_row = []
        for f in standard_basis():
            c, rem = divmod(sum(map(mul, row, f.d)), scale)
            if rem:
                raise ValueError("matrix does not preserve the lattice")
            out_row.append(c)
        out.append(out_row)
    return out


def coxeter_matrix(simple_roots) -> list[list[Fraction]]:
    """Product of the reflections in the given simple roots (a Coxeter
    element of the subsystem they span; for mutually orthogonal chains this
    is the product of their Coxeter elements)."""
    return word_matrix(list(simple_roots))


def orthogonal_a4_pair() -> tuple[tuple[Root, ...], tuple[Root, ...]]:
    """Two mutually orthogonal A4 chains inside the root system."""
    all_roots = list(enumerate_roots())
    first = _find_a_chain(_normalized_mod_sign(all_roots), 4)
    if first is None:
        raise CheckFailure("no A4 chain among the roots")
    rest = [r for r in all_roots if all(inner(r, a) == 0 for a in first)]
    second = _find_a_chain(_normalized_mod_sign(rest), 4)
    if second is None:
        raise CheckFailure("no A4 chain orthogonal to %r" % (first,))
    return first, second


def orthogonal_a2_quadruple() -> tuple[tuple[Root, ...], ...]:
    """Four mutually orthogonal A2 chains inside the root system."""
    chains: list[tuple[Root, ...]] = []
    pool = list(enumerate_roots())
    for _ in range(4):
        avoid = tuple(r for c in chains for r in c)
        nxt = _find_a_chain(_normalized_mod_sign(pool), 2, avoid=avoid)
        if nxt is None:
            raise CheckFailure("no A2 chain orthogonal to %d earlier chains" % len(chains))
        chains.append(nxt)
    return tuple(chains)
