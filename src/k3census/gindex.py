"""Fixed-point index formulas for cyclic actions on 4-manifolds.

Inputs are fixed-point data: isolated points carry a pair of rotation
numbers (a, b) mod p, fixed surfaces carry (genus, self-intersection,
normal rotation number c).  Everything is evaluated exactly in Q(mu_p);
the rational traces (signature defects of points, the eta form of the
Rochlin invariant) are summed as integers through Dedekind sums instead.

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
from math import gcd

from .cyclotomic import (CycNum, cot_product, csc_squared, csc_cot, cyc_make,
                         inv_one_minus_zeta)
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


def dedekind_sum(h: int, k: int) -> Fraction:
    """The Dedekind sum s(h, k) = sum_{j=1}^{k-1} ((j/k)) ((hj/k)) for k >= 1,
    with ((x)) = x - floor(x) - 1/2 off the integers and 0 on them.

    For 0 < j < k, ((j/k)) = (2j - k)/(2k), so the sum is taken over the
    integers (2j - k)(2r - k) with r = hj mod k, skipping r = 0, and divided
    by 4k^2 once at the end."""
    if k < 1:
        raise ValueError("need k >= 1, got %d" % k)
    total = 0
    for j in range(1, k):
        r = h * j % k
        if r:
            total += (2 * j - k) * (2 * r - k)
    return Fraction(total, 4 * k * k)


def signature_defect(p: int, q: int) -> Fraction:
    """def_m for the local representation (z1, z2) -> (mu^k z1, mu^kq z2):
    sum over k of (1+mu^k)(1+mu^kq) / ((1-mu^k)(1-mu^kq)), which is the
    rational -4 p s(q, p) (Hirzebruch-Zagier, "The Atiyah-Singer theorem and
    elementary number theory", 1974); the field sum is the test oracle."""
    if q % p == 0:
        raise ValueError("q must be nonzero mod p")
    return -4 * p * dedekind_sum(q, p)


def point_defect(p: int, a: int, b: int) -> Fraction:
    """Signature defect of an isolated point with rotation numbers (a, b);
    equals signature_defect(p, a^-1 b)."""
    if a % p == 0:
        raise ValueError("rotation numbers must be nonzero mod p")
    return signature_defect(p, b * pow(a, -1, p) % p)


def surface_defect(p: int, selfint: int) -> Fraction:
    return Fraction((p * p - 1), 3) * selfint


def galois_trace(x: CycNum, p: int) -> Fraction:
    """Tr(x) from Q(zeta_p) to Q for prime p, the sum of the p - 1 Galois
    conjugates of x: Tr(zeta^i) = p - 1 for i = 0 and -1 for 0 < i < p - 1,
    so on the power basis Tr(x) = p c_0 - (c_0 + ... + c_(p-2))."""
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError("need a prime, got %d" % p)
    if x.n == 1:
        return (p - 1) * x.as_rational()
    if x.n != p:
        raise ValueError("conductor %d is not %d" % (x.n, p))
    c = x.coeffs
    return p * c[0] - sum(c)


def orbifold_signature(p: int, sign_m: int, data: FixedPointData) -> Fraction:
    """Sign(M/G) from the averaged signature formula for G of prime order p:
    |G| Sign(M/G) = Sign(M) + sum def_m + sum def_Y.

    The defects (Dedekind sums) are certified against the field: g^k acts
    on the same fixed set with its rotation numbers times k, so
    Sign(g^k, M) is the Galois conjugate of Sign(g, M) = signature_g(data),
    and the defects must sum to its trace.  Raises CheckFailure if they do
    not, or unless the result is an integer."""
    total = Fraction(0)
    for a, b in data.isolated:
        total += point_defect(p, a, b)
    for _, selfint, c in data.surfaces:
        total += surface_defect(p, selfint)
    trace = galois_trace(signature_g(data), p)
    if total != trace:
        raise CheckFailure("defects of %r sum to %s, the trace of Sign(g, M) is %s"
                           % (data, total, trace))
    out = (sign_m + total) / p
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
    return cyc_make(p, r) * inv_one_minus_zeta(p, -a) * inv_one_minus_zeta(p, -b)


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


def spin_number(data: FixedPointData, val: CycNum, ind_dirac: int = 2) -> SpinVector:
    """The character val = spin_value(data) as an integer vector
    (d_0, ..., d_{p-1}); the vector is only defined up to adding multiples
    of (1, ..., 1), and the stated total index of the Dirac operator (2 for
    K3-type input, i.e. -Sign/8) fixes the normalization."""
    p = data.p
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


def point_spin_trace(p: int, q: int) -> Fraction:
    """T(p, q) = sum_{k=1}^{p-1} I(k, kq), the Dirac character terms of a
    point with rotation numbers (1, q) summed over the nontrivial powers of
    g, for odd p coprime to q.

    With r = k t, t = -(1 + q)/2 mod p, and 1/(1 - x) = -(1/p) sum_j j x^j
    for x != 1, x^p = 1, the sum over k of the double sum in i, j keeps
    p i j where i = t - q j mod p and loses the k = 0 term (sum_j j)^2:
    T = (p sum_{j<p} j ((t - q j) mod p) - (p(p-1)/2)^2) / p^2, a
    Fourier-Dedekind sum (Beck-Robins, "Computing the Continuous
    Discretely", ch. 8).  The sum of field elements is the test oracle."""
    t = -(1 + q) * pow(2, -1, p) % p
    total = sum(j * ((t - q * j) % p) for j in range(1, p))
    return Fraction(p * total - (p * (p - 1) // 2) ** 2, p * p)


@lru_cache(maxsize=None)
def rochlin(p: int, q: int) -> int:
    """Rochlin invariant mu(L(p, q)) mod 16 for odd p, with the unique spin
    structure (Neumann, "An invariant of plumbed homology spheres", 1980).

    L(p, q) bounds the linear plumbing P with weights -a_1, ..., -a_n, where
    p/q = a_1 - 1/(a_2 - ... - 1/a_n) with every a_i >= 2.  Its form Q is
    tridiagonal with det Q = +-p odd, so exactly one 0/1 vector w solves
    Q w = diag Q over F_2 (the characteristic class), and
    mu(L(p, q)) = sign(P) - w.w mod 16.

    The plumbing value is certified against the eta-invariant form
    mu = -(-4 p s(q, p) + 8 T(p, q)) / p mod 16 (Atiyah-Patodi-Singer II,
    1975), from signature_defect and point_spin_trace; CheckFailure if that
    value is not an integer or disagrees mod 16.  Memoized per (p, q)."""
    if p < 1 or p % 2 == 0 or gcd(p, q) != 1:
        raise ValueError("need odd p >= 1 coprime to q, got L(%d,%d)" % (p, q))
    if p == 1:
        return 0  # L(1, q) is the 3-sphere
    a, num, den = [], p, q % p
    while den:
        c = -(-num // den)
        a.append(c)
        num, den = den, c * den - num
    # row i of Q w = diag Q mod 2 reads a_i w_i + w_{i-1} + w_{i+1} = a_i;
    # w_1 fixes the rest, and the last row decides which w_1 is right
    fits = []
    for first in (0, 1):
        w = [0, first]
        for i in range(len(a) - 1):
            w.append((a[i] * (1 + w[-1]) + w[-2]) % 2)
        if (a[-1] * (1 + w[-1]) + w[-2]) % 2 == 0:
            fits.append(w[1:])
    if len(fits) != 1:
        raise CheckFailure("L(%d,%d) has %d characteristic classes" % (p, q, len(fits)))
    w = fits[0]
    square = sum(-ai * wi + 2 * wi * wj for ai, wi, wj in zip(a, w, w[1:] + [0]))
    # sign(P) by Jacobi: sign changes along the leading principal minors
    minors = [1, -a[0]]
    for i in range(1, len(a)):
        minors.append(-a[i] * minors[-1] - minors[-2])
    if abs(minors[-1]) != p or 0 in minors:
        raise CheckFailure("plumbing of L(%d,%d) has minors %r" % (p, q, minors))
    negative = sum(1 for x, y in zip(minors, minors[1:]) if x * y < 0)
    mu = (len(a) - 2 * negative - square) % 16
    eta = -(signature_defect(p, q) + 8 * point_spin_trace(p, q)) / p
    if eta.denominator != 1 or eta.numerator % 16 != mu:
        raise CheckFailure("L(%d,%d): the plumbing gives mu = %d but the eta form gives %s"
                           % (p, q, mu, eta))
    return mu


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
