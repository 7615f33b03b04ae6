"""Symbolic second homology of the Kummer surface.

The generators are the 16 exceptional (-2)-spheres S(e0,e1,e2,e3),
indexed by the 2-torsion points of the 4-torus, and the 12 proper-transform
(-2)-spheres P_j(kappa,tau) coming from the four singular fibers of each of
the three elliptic fibrations (j = 1, 2, 3 is the fibration, kappa the base
coordinate shared with the z0 direction, tau the fiber coordinate).

Intersection rules:
  * distinct exceptional spheres are disjoint; each has self-pairing -2;
  * P_j(k,t) . exceptional(e0..e3) = 1 iff e0 = k and e_j = t, else 0;
  * same-fibration proper transforms are disjoint unless equal (then -2);
  * cross-fibration proper transforms: 0 when the base coordinates differ,
    -1 when they agree (forced by [T_j] . [T_j'] = 0).

The fiber class of fibration j is 2 P_j(1,1) plus the four exceptional
spheres it meets.
"""

from __future__ import annotations

from math import gcd

from . import linalg
from .record import record

Gen = tuple  # ("E", e0, e1, e2, e3) or ("P", j, kappa, tau)


def exceptional(e0: int, e1: int, e2: int, e3: int) -> "KummerClass":
    for s in (e0, e1, e2, e3):
        if s not in (1, -1):
            raise ValueError("signs must be +-1")
    return KummerClass({("E", e0, e1, e2, e3): 1})


def transform(j: int, kappa: int, tau: int) -> "KummerClass":
    if j not in (1, 2, 3) or kappa not in (1, -1) or tau not in (1, -1):
        raise ValueError("bad proper-transform index")
    return KummerClass({("P", j, kappa, tau): 1})


class KummerClass:
    """Formal integer combination of the 28 generators.  Immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        object.__setattr__(self, "coeffs", tuple(sorted(
            (g, c) for g, c in coeffs.items() if c != 0)))

    def __setattr__(self, *a):
        raise AttributeError("KummerClass is immutable")

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def __add__(self, other: "KummerClass") -> "KummerClass":
        d = self.as_dict()
        for g, c in other.coeffs:
            d[g] = d.get(g, 0) + c
        return KummerClass(d)

    def __sub__(self, other: "KummerClass") -> "KummerClass":
        return self + (-other)

    def __neg__(self) -> "KummerClass":
        return KummerClass({g: -c for g, c in self.coeffs})

    def scaled(self, k: int) -> "KummerClass":
        return KummerClass({g: k * c for g, c in self.coeffs})

    def __eq__(self, other):
        return isinstance(other, KummerClass) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for g, c in self.coeffs:
            name = ("S(%d,%d,%d,%d)" % g[1:]) if g[0] == "E" else ("P%d(%d,%d)" % (g[1], g[2], g[3]))
            parts.append(name if c == 1 else "-%s" % name if c == -1 else "%d*%s" % (c, name))
        return " + ".join(parts).replace("+ -", "- ")


def _pair_gens(a: Gen, b: Gen) -> int:
    if a[0] == "E" and b[0] == "E":
        return -2 if a == b else 0
    if a[0] == "P" and b[0] == "P":
        _, j, k, t = a
        _, j2, k2, t2 = b
        if j == j2:
            return -2 if (k, t) == (k2, t2) else 0
        return 0 if k != k2 else -1
    if a[0] == "E":
        a, b = b, a
    _, j, k, t = a
    _, e0, e1, e2, e3 = b
    es = (e0, e1, e2, e3)
    return 1 if (e0 == k and es[j] == t) else 0


def pair(x: KummerClass, y: KummerClass) -> int:
    """Bilinear extension of the generator intersection rules."""
    total = 0
    for g1, c1 in x.coeffs:
        for g2, c2 in y.coeffs:
            if c1 and c2:
                total += c1 * c2 * _pair_gens(g1, g2)
    return total


def fiber_class(j: int) -> KummerClass:
    """[T_j] = 2 P_j(1,1) + the four exceptional spheres in that fiber."""
    out = transform(j, 1, 1).scaled(2)
    for s1 in (1, -1):
        for s2 in (1, -1):
            es = [1, 0, 0, 0]
            es[j] = 1
            rest = [k for k in (1, 2, 3) if k != j]
            es[rest[0]], es[rest[1]] = s1, s2
            out = out + exceptional(*es)
    return out


def e8_basis(side: int) -> tuple[KummerClass, ...]:
    """One of the two disjoint geometric -E8 bases; side = +1 or -1 selects
    the base coordinate on which the whole configuration lives."""
    if side not in (1, -1):
        raise ValueError("side must be +-1")
    k = side
    f1 = -(transform(3, k, -1) + exceptional(k, -1, -1, -1) + exceptional(k, 1, -1, -1))
    f2 = exceptional(k, 1, -1, -1)
    f3 = transform(2, k, -1) + exceptional(k, -1, -1, -1)
    f4 = exceptional(k, 1, -1, 1)
    f5 = transform(3, k, 1) + exceptional(k, -1, -1, 1)
    f6 = exceptional(k, 1, 1, 1)
    f7 = -(transform(2, k, 1) + exceptional(k, 1, 1, -1) + exceptional(k, 1, 1, 1))
    f8 = transform(1, k, -1) + exceptional(k, -1, 1, 1)
    return (f1, f2, f3, f4, f5, f6, f7, f8)


@record(frozen=True)
class E8BasesReport:
    gram_first: tuple
    gram_second: tuple
    cross_pairings_zero: bool
    torus_orthogonal: bool
    torus_gram_zero: bool
    span_rank: int
    radical_is_torus_span: bool


def minus_e8_matrix() -> list[list[int]]:
    from . import e8 as e8mod

    return [[-x for x in row] for row in e8mod.expected_cartan()]


def verify_e8_bases() -> E8BasesReport:
    """Check both bases have Gram matrix -E8 (in the graph convention with
    +1 on edges), are mutually orthogonal, and are orthogonal to the three
    fiber classes; also check the 19-class span has rank 16 with radical
    exactly the span of the fiber classes."""
    first, second = e8_basis(1), e8_basis(-1)
    target = minus_e8_matrix()
    g1 = [[pair(a, b) for b in first] for a in first]
    g2 = [[pair(a, b) for b in second] for a in second]
    for name, g in (("first", g1), ("second", g2)):
        if g != target:
            bad = [(i + 1, j + 1) for i in range(8) for j in range(8) if g[i][j] != target[i][j]]
            raise AssertionError("%s basis has wrong Gram entries at %s" % (name, bad))
    cross = all(pair(a, b) == 0 for a in first for b in second)
    tori = [fiber_class(j) for j in (1, 2, 3)]
    torus_orth = all(pair(f, t) == 0 for f in list(first) + list(second) for t in tori)
    torus_gram = all(pair(a, b) == 0 for a in tori for b in tori)
    allcls = list(first) + list(second) + tori
    gram = [[pair(a, b) for b in allcls] for a in allcls]
    rk = linalg.rank(gram)
    null = linalg.nullspace(gram)
    # the radical must be spanned by the three torus coordinate vectors
    radical_ok = len(null) == 3 and all(
        all(v[i] == 0 for i in range(16)) for v in null)
    return E8BasesReport(tuple(map(tuple, g1)), tuple(map(tuple, g2)),
                         cross, torus_orth, torus_gram, rk, radical_ok)


# ---------------------------------------------------------------------------
# basic classes and the degree-triple rigidity argument


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
