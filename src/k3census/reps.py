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

An order-p element of the signed-permutation subgroup H is decomposed
through its conjugacy class: conjugation by h in H is a Z[Z_p]-isomorphism,
so decompose_element carries each element to its class representative by a
conjugator checked at run time and decomposes each representative once.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul

from . import e8, linalg
from .cyclotomic import cyclotomic_polynomial, poly_mul
from .errors import CheckFailure
from .record import record
from .sgnperm import SignedPerm, class_representative


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


def lemma45_census(p: int) -> tuple[RepDecomp, ...]:
    """All decompositions realizable on the E8 form: p r + (p-1) s + t = 8,
    the E8 rank, with s even, excluding the trivial representation and,
    because the form does not split an orthogonal pair of proper pieces,
    excluding r = 0 with both s > 0 and t > 0."""
    if p not in (3, 5, 7):
        raise ValueError("census is stated for p in {3, 5, 7}")
    out = []
    for r in range(8 // p + 1):
        for s in range(0, (8 - p * r) // (p - 1) + 1, 2):
            t = 8 - p * r - (p - 1) * s
            if t < 0:
                continue
            if (r, s, t) == (0, 0, 8):
                continue
            if r == 0 and s > 0 and t > 0:
                continue
            out.append(RepDecomp(p, r, s, t))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# decomposing concrete lattice actions


def decompose_matrix(m, p: int) -> RepDecomp:
    """Decompose an order-p integral action given by an integer matrix.

    One pass of packed powers g, g^2, ..., g^p gives the norm N, the check
    g^p = 1 and the traces tr(g^k) (_norm_and_traces).  (r, s, t) is read
    off the ranks and the elementary divisors of g - 1 and N, then
    certified three ways: the norm image has the rank of the fixed
    sublattice and elementary divisors in {1, p}, the trace of the
    decomposition is tr(g), and its characteristic polynomial is det(xI - g)
    (CheckFailure otherwise).  det(xI - g) comes from the traces by Newton's
    identities (linalg.charpoly_from_traces): g^p = 1 makes tr(g^j)
    periodic in j with period p, and tr(g^p) = n, so the p traces give
    tr(g^j) for every j = 1..n."""
    n = len(m)
    if m == [[int(i == j) for j in range(n)] for i in range(n)]:
        raise ValueError("element has order 1, not %d" % p)
    norm, traces = _norm_and_traces(m, p)
    trace = traces[0]
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
    cp = linalg.charpoly_from_traces([traces[j % p] for j in range(n)])
    if tuple(cp) != _expected_charpoly(p, r, s, t):
        raise CheckFailure("characteristic polynomial %s does not match %r" % (list(cp), dec))
    return dec


def norm_matrix(m, p: int) -> list[list[int]]:
    """N = 1 + g + ... + g^(p-1) for the integer matrix g = m, after checking
    g^p = 1 (ValueError otherwise)."""
    return _norm_and_traces(m, p)[0]


def _norm_and_traces(m, p: int) -> tuple[list[list[int]], list[int]]:
    """norm_matrix(m, p) and the traces tr(g^k) for k = 1..p, from the
    packed powers of linalg.packed_powers.  With rho the largest absolute
    row sum of m (at least 1), every entry of g^k for k <= p is at most
    rho^k and every entry of N at most p rho^(p-1) in absolute value, so
    that bound certifies the lanes, and packed rows are equal exactly when
    the matrices are."""
    n = len(m)
    rho = max(1, max((sum(map(abs, row)) for row in m), default=0))
    bits = linalg.lane_width(max(rho ** p, p * rho ** (p - 1)), "reps.norm_matrix")
    norm, traces = [0] * n, []
    for power, trace in linalg.packed_powers(m, p, bits):
        norm = list(map(add, norm, power))
        traces.append(trace)
    # g^p = 1 makes g + ... + g^p the norm 1 + g + ... + g^(p-1)
    if tuple(power) != _packed_identity(n, bits):
        raise ValueError("element does not have order %d" % p)
    return [linalg.unpack(x, n, bits) for x in norm], traces


@lru_cache(maxsize=None)
def _packed_identity(n: int, bits: int) -> tuple[int, ...]:
    """The rows of the n x n identity packed in lanes of the given width,
    built once per (n, bits), as packing them on every call cost more
    than one packed power."""
    return tuple(linalg.pack([int(i == j) for j in range(n)], bits) for i in range(n))


@lru_cache(maxsize=None)
def _expected_charpoly(p: int, r: int, s: int, t: int) -> tuple[int, ...]:
    """(x^p - 1)^r Phi_p^s (x - 1)^t, low degree first."""
    poly = [1]
    for factor, count in (([-1] + [0] * (p - 1) + [1], r),
                          (cyclotomic_polynomial(p), s), ([-1, 1], t)):
        for _ in range(count):
            poly = poly_mul(poly, factor)
    return tuple(poly)


def decompose_element(g: SignedPerm, p: int) -> RepDecomp:
    """Decomposition of the E8 lattice under an order-p signed permutation.

    Conjugation by h in H, a subgroup of Aut(E8), is an isomorphism of
    Z[Z_p]-modules from E8 under g to E8 under h g h^-1, so (r, s, t) is
    constant on the conjugacy class of g in H.  g.class_conjugator() gives
    the class key and that h; the product h g h^-1 is checked to be the
    key's representative (CheckFailure otherwise; the constructor of h has
    checked its sign product, so h is in H), and the representative's
    decomposition is computed once per class by decompose_matrix with all
    its certificates.  ValueError if g does not have order p, or if all its
    cycles have even length (an odd p has an odd-length cycle)."""
    key, h = g.class_conjugator()
    if key[0].order != p:
        raise ValueError("element has order %d, expected %d" % (key[0].order, p))
    if p % 2 == 0 and not any(length % 2 for length, _ in key[0]):
        raise ValueError("signed cycle type %s has no odd-length cycle" % (key[0],))
    if g.conjugated_by(h) != class_representative(key):
        raise CheckFailure("the conjugator %r does not carry %r to the representative "
                           "of its class" % (h, g))
    return _class_decomposition(key, p)


@lru_cache(maxsize=None)
def _class_decomposition(key, p: int) -> RepDecomp:
    """decompose_matrix on the f-basis matrix of class_representative(key);
    H has at most four classes of order 3, 5 or 7."""
    rep = class_representative(key)
    m = e8.matrix_in_f_basis(rep.matrix_e())
    return decompose_matrix(m, p)


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
        return linalg.integer_solve([list(col) for col in zip(*sub_basis)], vec) is not None

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
        try:
            cond = norm_matrix(action, p)
        except ValueError:
            return LiftResult(kind, None, "the action does not have order %d on the lattice" % p)
        label = "norm-annihilated preimage"
    else:
        raise ValueError("unknown summand kind %r" % kind)

    rhs = [-sum(map(mul, row, quotient_gen)) for row in cond]
    if not sub_basis:
        if all(x == 0 for x in rhs):
            sol_vec = list(quotient_gen)
        else:
            return LiftResult(kind, None, "no %s exists" % label)
    else:
        cols = linalg.mat_mul(cond, list(zip(*sub_basis)))
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
        return e8.matrix_in_f_basis(e8.scaled_word_matrix(a + b), 4)
    if p == 3 and rst == (1, 0, 5):
        return e8.matrix_in_f_basis(SignedPerm.from_cycles([(1, 2, 3)]).matrix_e())
    if p == 3 and rst == (2, 0, 2):
        return e8.matrix_in_f_basis(SignedPerm.from_cycles([(1, 2, 3), (4, 5, 6)]).matrix_e())
    if p == 3 and rst == (0, 4, 0):
        chains = e8.orthogonal_a2_quadruple()
        return e8.matrix_in_f_basis(e8.scaled_word_matrix(sum(chains, ())), 4)
    if p == 3 and rst == (1, 2, 1):
        chains = e8.orthogonal_a2_quadruple()
        return e8.matrix_in_f_basis(e8.scaled_word_matrix(sum(chains[:3], ())), 4)
    return None
