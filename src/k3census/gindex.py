"""Fixed-point index formulas for cyclic actions on 4-manifolds.

Inputs are fixed-point data: isolated points carry a pair of rotation
numbers (a, b) mod p, fixed surfaces carry (genus, self-intersection,
normal rotation number c).  Everything is evaluated exactly in Q(mu_p).

Two conventions coexist.  For the signature formulas the pair (a, b) only
matters up to order and simultaneous sign.  For the Dirac character the
almost-complex convention fixes (a, b) and c absolutely in (0, p); the
contribution of a point is then

    I_m = mu^r / ((1 - mu^-a)(1 - mu^-b)),   2 r + a + b = 0 mod p,

and of a surface Y

    I_Y = (-1)^k(Y) * (Y.Y)/4 * csc(c pi/p) cot(c pi/p),
    k(Y) p = 2 r_Y + c,  0 < r_Y < p,

the latter written through the exact csc*cot element of Q(mu_p).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CycNum, cot_product, csc_squared, csc_cot, cyc_make
from .errors import CheckFailure
from .record import record


@record(frozen=True)
class FixedPointData:
    """A multiset of isolated fixed points and fixed surface components."""

    p: int
    isolated: tuple[tuple[int, int], ...] = ()
    surfaces: tuple[tuple[int, int, int], ...] = ()  # (genus, selfint, c)
    power: int = 1

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be at least 2")
        iso = []
        for a, b in self.isolated:
            a %= self.p
            b %= self.p
            if a == 0 or b == 0:
                raise ValueError("rotation numbers must be nonzero mod p")
            iso.append((min(a, b), max(a, b)))
        surf = []
        for g, si, c in self.surfaces:
            c %= self.p
            if c == 0:
                raise ValueError("normal rotation number must be nonzero mod p")
            if g < 0:
                raise ValueError("genus must be nonnegative")
            surf.append((g, si, c))
        object.__setattr__(self, "isolated", tuple(sorted(iso)))
        object.__setattr__(self, "surfaces", tuple(sorted(surf)))
        if self.power % self.p == 0:
            raise ValueError("power must be nonzero mod p")

    def at_power(self, k: int) -> "FixedPointData":
        """The same fixed set seen by g^k: all rotation numbers scale by k."""
        return FixedPointData(
            self.p,
            tuple((k * a, k * b) for a, b in self.isolated),
            tuple((g, si, k * c) for g, si, c in self.surfaces),
            power=self.power * k,
        )

    def euler_characteristic(self) -> int:
        return len(self.isolated) + sum(2 - 2 * g for g, _, _ in self.surfaces)

    def is_pseudofree(self) -> bool:
        return not self.surfaces


def lefschetz(trace_h2: int) -> int:
    """Euler characteristic of the fixed set of a homeomorphism of a
    simply-connected 4-manifold with b1 = b3 = 0: 2 + trace on H^2."""
    return 2 + trace_h2


def signature_g(data: FixedPointData) -> CycNum:
    """Sign(g, M) = sum of -cot(a pi/p) cot(b pi/p) over points plus
    csc^2(c pi/p) (Y.Y) over surfaces; exact, real, rational in practice."""
    p = data.p
    total = CycNum.rational(0)
    for a, b in data.isolated:
        total = total + cot_product(p, a, b)
    for _, selfint, c in data.surfaces:
        if selfint:
            total = total + csc_squared(p, c) * selfint
    return total


def signature_defect(p: int, q: int) -> Fraction:
    """def_m for the local representation (z1, z2) -> (mu^k z1, mu^kq z2):
    sum over k of (1+mu^k)(1+mu^kq) / ((1-mu^k)(1-mu^kq)); always rational."""
    if q % p == 0:
        raise ValueError("q must be nonzero mod p")
    total = CycNum.rational(0)
    for k in range(1, p):
        total = total + cot_product(p, k, k * q)
    val = total.as_rational()
    if val is None:
        raise CheckFailure("defect of I_%d_%d failed to be rational" % (p, q))
    return val


def point_defect(p: int, a: int, b: int) -> Fraction:
    """Signature defect of an isolated point with rotation numbers (a, b);
    equals signature_defect(p, a^-1 b)."""
    total = CycNum.rational(0)
    for k in range(1, p):
        total = total + cot_product(p, k * a, k * b)
    val = total.as_rational()
    if val is None:
        raise CheckFailure("defect of the point (%d, %d) mod %d failed to be rational"
                           % (a, b, p))
    return val


def surface_defect(p: int, selfint: int) -> Fraction:
    return Fraction((p * p - 1), 3) * selfint


def orbifold_signature(p: int, sign_m: int, data: FixedPointData) -> Fraction:
    """Sign(M/G) from the averaged signature formula:
    |G| Sign(M/G) = Sign(M) + sum def_m + sum def_Y.  Raises CheckFailure
    unless the result is an integer."""
    total = Fraction(sign_m)
    for a, b in data.isolated:
        total += point_defect(p, a, b)
    for _, selfint, c in data.surfaces:
        total += surface_defect(p, selfint)
    out = total / p
    if out.denominator != 1:
        raise CheckFailure("averaged signature %s is not an integer" % out)
    return out


# ---------------------------------------------------------------------------
# Dirac character


@record(frozen=True)
class SpinVector:
    """Equivariant Dirac index character sum d_k mu^k with d_0 even and
    d_k = d_{p-k} (quaternionic symmetry)."""

    p: int
    d: tuple[int, ...]

    def __post_init__(self):
        if len(self.d) != self.p:
            raise ValueError("need one entry per residue")
        if self.d[0] % 2:
            raise ValueError("d_0 must be even")
        for k in range(1, self.p):
            if self.d[k] != self.d[self.p - k]:
                raise ValueError("d_k must equal d_{p-k}")

    def total(self) -> int:
        return sum(self.d)

    def value(self) -> CycNum:
        out = CycNum.rational(self.d[0])
        for k in range(1, self.p):
            out = out + cyc_make(self.p, k) * self.d[k]
        return out


@lru_cache(maxsize=None)
def _point_term(p: int, a: int, b: int) -> CycNum:
    """mu^r / ((1 - mu^-a)(1 - mu^-b)) with 2 r + a + b = 0 mod p: the Dirac
    character contribution of an isolated point with rotation numbers (a, b)."""
    r = next(r for r in range(p) if (2 * r + a + b) % p == 0)
    one = CycNum.rational(1)
    return cyc_make(p, r) / ((one - cyc_make(p, -a)) * (one - cyc_make(p, -b)))


def spin_value(data: FixedPointData) -> CycNum:
    """Exact Dirac character of g on the given fixed-point data, almost
    complex convention (absolute rotation numbers)."""
    p = data.p
    total = CycNum.rational(0)
    for a, b in data.isolated:
        total = total + _point_term(p, a, b)
    for _, selfint, c in data.surfaces:
        if selfint == 0:
            continue
        r_y = next(r for r in range(1, p) if (2 * r + c) % p == 0)
        k_y = (2 * r_y + c) // p
        total = total + csc_cot(p, c) * Fraction((-1) ** k_y * selfint, 4)
    return total


def spin_number(data: FixedPointData, ind_dirac: int = 2) -> SpinVector:
    """The character as an integer vector (d_0, ..., d_{p-1}); the vector is
    only defined up to adding multiples of (1, ..., 1), and the stated total
    index of the Dirac operator (2 for K3-type input, i.e. -Sign/8) fixes
    the normalization."""
    p = data.p
    val = spin_value(data)
    if val.n == 1:
        coeffs = [val.coeffs[0]] + [Fraction(0)] * (p - 2)
    elif val.n == p:
        coeffs = list(val.coeffs)
    else:
        raise CheckFailure("character lies in conductor %d, not %d" % (val.n, p))
    if any(c.denominator != 1 for c in coeffs):
        raise CheckFailure("character has non-integral coefficients %r" % (coeffs,))
    ints = [int(c) for c in coeffs] + [0]  # coefficient of mu^{p-1} is 0 in the power basis
    shift = Fraction(ind_dirac - sum(ints), p)
    if shift.denominator != 1:
        raise CheckFailure("character does not normalize to the stated index")
    d = tuple(x + int(shift) for x in ints)
    return SpinVector(p, d)


# ---------------------------------------------------------------------------
# obstruction tests


def fang_test(d: SpinVector, b2plus: int, sw_nonzero_mod_p: bool = True) -> str:
    """Mod-p vanishing constraint: if 2 d_k <= b2plus - 1 for every k then
    the corresponding invariant must vanish mod p; a known nonzero value is
    then a contradiction.  Returns "ruled_out" or "survives"."""
    if all(2 * dk <= b2plus - 1 for dk in d.d) and sw_nonzero_mod_p:
        return "ruled_out"
    return "survives"


def furuta_test(ind_d: int, b2plus_quot: int, b2minus_quot: int) -> str:
    """Quotient-orbifold Dirac index constraint: ind D = 0 or strictly
    between -b2-(M/G) and b2+(M/G)."""
    if ind_d == 0 or (-b2minus_quot < ind_d < b2plus_quot):
        return "survives"
    return "ruled_out"


@record(frozen=True)
class KsResult:
    ks: int
    sign_n: int
    rochlin_sum: int
    congruence_value: int  # (sign_n + rochlin_sum) mod 16
    smoothable: bool


_ROCHLIN: dict[tuple[int, int], tuple[int, str]] | None = None


def rochlin_table() -> dict[tuple[int, int], tuple[int, str]]:
    global _ROCHLIN
    if _ROCHLIN is None:
        # imported here: on Python 3.12+ importlib.resources pulls in inspect,
        # and only the census filters read the table
        import json
        from importlib import resources

        raw = json.loads(resources.files("k3census").joinpath("data/rochlin_lens.json").read_text())
        _ROCHLIN = {(e["p"], e["q"]): (e["value"], e["source"]) for e in raw["entries"]}
    return _ROCHLIN


def rochlin(p: int, q: int) -> int:
    table = rochlin_table()
    key = (p, q % p)
    if key not in table:
        raise KeyError("no tabulated Rochlin value for L(%d,%d)" % key)
    return table[key][0]


def lens_space(p: int, a: int, b: int) -> tuple[int, int]:
    """Oriented lens-space label of the link of a fixed point with rotation
    numbers (a, b): L(p, q) with q = b * a^-1 mod p."""
    a %= p
    b %= p
    if a == 0 or b == 0:
        raise ValueError("rotation numbers must be nonzero mod p")
    q = (b * pow(a, -1, p)) % p
    return (p, q)


def ks_rochlin_test(lens_spaces, sign_n: int) -> KsResult:
    """Kirby-Siebenmann from the boundary congruence
    8 ks(N) = Sign(N) + sum roc(boundary) mod 16; smoothability of the
    action needs ks = 0."""
    roc_sum = sum(rochlin(p, q) for p, q in lens_spaces)
    residue = (sign_n + roc_sum) % 16
    if residue == 0:
        ks = 0
    elif residue == 8:
        ks = 1
    else:
        raise ValueError("congruence value %d mod 16 is not 0 or 8; "
                         "input is not consistent spin boundary data" % residue)
    return KsResult(ks, sign_n, roc_sum, residue, ks == 0)
