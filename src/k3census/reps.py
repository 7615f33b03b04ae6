"""Integral representations of Z_p on lattices.

For p < 23 an integral Z_p-representation splits as a direct sum of copies
of the group ring Z[Z_p] (rank p), the cyclotomic module Z[mu_p] (rank p-1,
the augmentation kernel) and the trivial module Z (rank 1).  The triple
(r, s, t) of multiplicities is pinned down by rational invariants plus one
integral invariant:

    rank      = p r + (p-1) s + t
    trace     = t - s
    fix rank  = r + t
    t         = dim_{F_p} ( L^g / N(L) ),   N = 1 + g + ... + g^{p-1}

The rational system alone is singular (x^p - 1 = (x-1) Phi_p makes the
characteristic polynomial blind to r vs s+t trades), hence the cokernel
computation.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from . import e8, linalg
from .cyclotomic import cyclotomic_polynomial, poly_mul
from .errors import CheckFailure
from .record import record
from .sgnperm import SignedPerm


@record(frozen=True, order=True)
class RepDecomp:
    """Multiplicities (r, s, t) of regular, cyclotomic and trivial summands."""

    p: int
    r: int
    s: int
    t: int

    def __post_init__(self):
        if min(self.r, self.s, self.t) < 0:
            raise ValueError("multiplicities must be nonnegative")

    def rank(self) -> int:
        return self.p * self.r + (self.p - 1) * self.s + self.t

    def trace(self) -> int:
        return self.t - self.s

    def fixed_rank(self) -> int:
        return self.r + self.t

    def as_rts(self) -> tuple[int, int, int]:
        """(r, t, s) ordering used throughout the census tables."""
        return (self.r, self.t, self.s)


def lemma45_census(p: int, rank: int = 8) -> tuple[RepDecomp, ...]:
    """All decompositions realizable on the E8 form: p r + (p-1) s + t = 8
    with s even, excluding the trivial representation and, because the form
    does not split an orthogonal pair of proper pieces, excluding r = 0 with
    both s > 0 and t > 0."""
    if p not in (3, 5, 7):
        raise ValueError("census is stated for p in {3, 5, 7}")
    out = []
    for r in range(rank // p + 1):
        for s in range(0, (rank - p * r) // (p - 1) + 1, 2):
            t = rank - p * r - (p - 1) * s
            if t < 0:
                continue
            if (r, s, t) == (0, 0, rank):
                continue
            if r == 0 and s > 0 and t > 0:
                continue
            out.append(RepDecomp(p, r, s, t))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# decomposing concrete lattice actions


def decompose_matrix(m, p: int, charpoly_hint=None) -> RepDecomp:
    """Decompose an order-p integral action given by an integer matrix.

    charpoly_hint, when given, must be the characteristic polynomial of the
    action (it is basis independent, so a caller with a cheaper formula can
    pass it in); otherwise it is computed exactly from the matrix."""
    n = len(m)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    if m == ident:
        raise ValueError("element has order 1, not %d" % p)
    mcols = list(zip(*m))
    power = [list(row) for row in m]
    norm = ident
    for _ in range(p - 1):
        norm = [list(map(add, a, b)) for a, b in zip(norm, power)]
        power = [[sum(map(mul, row, col)) for col in mcols] for row in power]
    if power != ident:
        raise ValueError("element does not have order %d" % p)
    trace = sum(m[i][i] for i in range(n))
    g_minus_1 = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    fix_rank = n - len(linalg.elementary_divisors(g_minus_1))
    if (n - fix_rank) % (p - 1):
        raise ValueError("rational invariants inconsistent with a Z_p action")
    m_reg_cyc = (n - fix_rank) // (p - 1)  # r + s
    # t = dim_{F_p} L^g / N(L).  g^p = 1 gives (g - 1) N = 0, so N(L) lies in
    # the fixed sublattice L^g (no separate check needed once the order is
    # checked); L^g is saturated, hence a direct summand of L, so the torsion
    # of coker N is exactly L^g / N(L) and the nonzero elementary divisors of
    # N are its invariant factors.
    divisors = linalg.elementary_divisors(norm)
    if len(divisors) != fix_rank:
        raise CheckFailure("norm image has rank %d in the fixed sublattice of rank %d"
                           % (len(divisors), fix_rank))
    if any(d not in (1, p) for d in divisors):
        raise CheckFailure("norm cokernel has elementary divisors %s, not 1 or %d"
                           % (divisors, p))
    t = divisors.count(p)
    r = fix_rank - t
    s = m_reg_cyc - r
    dec = RepDecomp(p, r, s, t)
    if dec.trace() != trace:
        raise CheckFailure("decomposition %r has trace %d, the matrix %d"
                           % (dec, dec.trace(), trace))
    _check_charpoly(m, p, dec, charpoly_hint)
    return dec


def _check_charpoly(m, p: int, dec: RepDecomp, hint=None):
    """(x^p - 1)^r Phi_p^s (x - 1)^t must equal det(xI - M)."""
    poly = [1]
    for factor, count in (([-1] + [0] * (p - 1) + [1], dec.r),
                          (cyclotomic_polynomial(p), dec.s), ([-1, 1], dec.t)):
        for _ in range(count):
            poly = poly_mul(poly, factor)
    cp = list(hint) if hint is not None else linalg.charpoly(m)
    if poly != cp:
        raise CheckFailure("characteristic polynomial %s does not match %r" % (cp, dec))


def decompose_element(g: SignedPerm, p: int) -> RepDecomp:
    """Decomposition of the E8 lattice under an order-p signed permutation."""
    if g.order() != p:
        raise ValueError("element has order %d, expected %d" % (g.order(), p))
    m = e8.matrix_in_f_basis(g.matrix_e())
    return decompose_matrix(m, p, charpoly_hint=g.charpoly())


# ---------------------------------------------------------------------------
# lifting summands through torsion-free quotients


@record(frozen=True)
class LiftResult:
    kind: str                       # "trivial", "regular", "cyclotomic"
    generators: tuple[tuple[int, ...], ...] | None  # None means no lift
    reason: str

    @property
    def lifted(self) -> bool:
        return self.generators is not None


def lift_summand(action, sub_basis, quotient_gen, kind: str | None = None) -> LiftResult:
    """Try to lift a quotient summand through L -> L / U.

    action       integer matrix (column convention: (action @ x) is g.x)
    sub_basis    rows spanning the invariant, saturated sublattice U
    quotient_gen an integer vector in L projecting to a generator of the
                 summand of L/U to lift
    kind         "trivial" | "regular" | "cyclotomic"; inferred from the
                 quotient action on the generator when omitted

    Trivial summands lift iff some preimage is honestly fixed; cyclotomic
    summands lift iff some preimage satisfies the norm relation
    (1 + g + ... + g^{p-1}) v = 0; a regular summand lifts off any preimage.
    Failure is a value, not an error.
    """
    n = len(action)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]

    def act(vec):
        return [sum(action[i][j] * vec[j] for j in range(n)) for i in range(n)]

    def in_sub(vec):
        if not sub_basis:
            return all(x == 0 for x in vec)
        sol = linalg.solve([[Fraction(sub_basis[r][c]) for r in range(len(sub_basis))]
                            for c in range(n)], vec)
        return sol is not None and all(x.denominator == 1 for x in sol)

    # invariance of U and torsion-freeness of the quotient
    for row in sub_basis:
        if not in_sub(act(list(row))):
            raise ValueError("sublattice is not invariant")
    if sub_basis:
        divs = linalg.elementary_divisors([list(r) for r in sub_basis])
        if any(d != 1 for d in divs):
            raise ValueError("quotient has torsion")

    # order of the quotient action on the generator determines p
    orbit = [list(quotient_gen)]
    while True:
        nxt = act(orbit[-1])
        diff = [a - b for a, b in zip(nxt, orbit[0])]
        if in_sub(diff):
            break
        orbit.append(nxt)
        if len(orbit) > 64:
            raise ValueError("quotient orbit does not close")
    p = len(orbit)

    if kind is None:
        if p == 1:
            kind = "trivial"
        else:
            # the summand is cyclotomic iff the norm kills the generator
            total = [sum(vals) for vals in zip(*orbit)]
            kind = "cyclotomic" if in_sub(total) else "regular"

    if kind == "regular":
        gens = [list(quotient_gen)]
        for _ in range(p - 1):
            gens.append(act(gens[-1]))
        mat = [list(v) for v in gens]
        if len(linalg.elementary_divisors(mat)) != p:
            return LiftResult(kind, None, "orbit of the preimage is not free")
        return LiftResult(kind, tuple(tuple(v) for v in gens),
                          "orbit of any preimage generates a free module")

    # trivial: solve (g - 1)(y + U c) = 0; cyclotomic: N (y + U c) = 0
    if kind == "trivial":
        cond = [[action[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
        label = "fixed preimage"
    elif kind == "cyclotomic":
        power = [row[:] for row in ident]
        total = [[0] * n for _ in range(n)]
        for _ in range(p):
            total = [[total[i][j] + power[i][j] for j in range(n)] for i in range(n)]
            power = [[sum(power[i][k] * action[k][j] for k in range(n)) for j in range(n)]
                     for i in range(n)]
        cond = total
        label = "norm-annihilated preimage"
    else:
        raise ValueError("unknown summand kind %r" % kind)

    rhs = [-x for x in ( [sum(cond[i][j] * quotient_gen[j] for j in range(n)) for i in range(n)] )]
    if not sub_basis:
        if all(x == 0 for x in rhs):
            sol_vec = list(quotient_gen)
        else:
            return LiftResult(kind, None, "no %s exists" % label)
    else:
        cols = [[sum(cond[i][j] * sub_basis[b][j] for j in range(n)) for b in range(len(sub_basis))]
                for i in range(n)]
        c = linalg.integer_solve(cols, rhs)
        if c is None:
            return LiftResult(kind, None, "no %s exists" % label)
        sol_vec = [quotient_gen[j] + sum(c[b] * sub_basis[b][j] for b in range(len(sub_basis)))
                   for j in range(n)]
    if kind == "trivial":
        return LiftResult(kind, (tuple(sol_vec),), "fixed lift found")
    gens = [sol_vec]
    for _ in range(p - 2):
        gens.append(act(gens[-1]))
    return LiftResult(kind, tuple(tuple(v) for v in gens), "norm-annihilated lift found")


# ---------------------------------------------------------------------------
# deterministic witnesses for the census entries


def coxeter_witness(p: int, rst: tuple[int, int, int]):
    """An explicit order-p isometry of the lattice realizing the census
    entry with multiplicities (r, s, t), built from coordinate cycles and
    Coxeter elements of orthogonal chain subsystems.  Returns an integer
    matrix on the f-basis, or None when no deterministic recipe is coded."""
    r, s, t = rst
    if p == 5 and rst == (1, 0, 3):
        return e8.matrix_in_f_basis(SignedPerm.from_cycles([(1, 2, 3, 4, 5)]).matrix_e())
    if p == 7 and rst == (1, 0, 1):
        return e8.matrix_in_f_basis(SignedPerm.from_cycles([(1, 2, 3, 4, 5, 6, 7)]).matrix_e())
    if p == 5 and rst == (0, 2, 0):
        a, b = e8.orthogonal_a4_pair()
        return e8.matrix_in_f_basis(e8.coxeter_matrix(a + b))
    if p == 3 and rst == (1, 0, 5):
        return e8.matrix_in_f_basis(SignedPerm.from_cycles([(1, 2, 3)]).matrix_e())
    if p == 3 and rst == (2, 0, 2):
        return e8.matrix_in_f_basis(SignedPerm.from_cycles([(1, 2, 3), (4, 5, 6)]).matrix_e())
    if p == 3 and rst == (0, 4, 0):
        chains = e8.orthogonal_a2_quadruple()
        return e8.matrix_in_f_basis(e8.coxeter_matrix(sum(chains, ())))
    if p == 3 and rst == (1, 2, 1):
        chains = e8.orthogonal_a2_quadruple()
        return e8.matrix_in_f_basis(e8.coxeter_matrix(sum(chains[:3], ())))
    return None
