"""Exact linear algebra over Q and Z for small matrices.

Everything here works on plain nested lists of integers (or, for solve,
rationals).  One elimination loop, _smith_reduce, does all the work:
smith_normal_form carries the two unimodular transforms through it,
elementary_divisors only reduces the matrix, and the rank of a matrix is the
number of its elementary divisors.  solve takes a rational system to an
integer one by scaling each equation by the lcm of its denominators and
reads its answer off the Smith form; integer_solve keeps that answer when it
is integral.

Integer rows packed into signed lanes of one integer are this module's
alone: lane_width certifies a width against an entry bound, pack and
unpack convert, and packed_powers is the one packed matrix-power loop.
charpoly is Newton's identities (charpoly_from_traces) on its traces.
Matrix sizes in this package are at most 22x22, so no attempt is made at
asymptotic cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import lshift, mul

from .errors import CheckFailure


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch: %d columns times %d rows" % (len(a[0]), len(b)))
    bcols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bcols] for row in a]


# ---------------------------------------------------------------------------
# signed lanes: a row of integers as one integer, so that a combination of
# rows is one sum of integers


def _lane_bits(bound: int) -> int:
    """Lane width in bits for signed entries of absolute value at most bound."""
    return bound.bit_length() + 1


def lane_width(bound: int, site: str) -> int:
    """The lane width B for entries of absolute value at most bound,
    certified: 2^(B-1) exceeds bound (CheckFailure naming site otherwise),
    so such rows pack one to one."""
    bits = _lane_bits(bound)
    if bound >> (bits - 1):
        raise CheckFailure("%s: lanes of %d bits cannot hold entries up to %d"
                           % (site, bits, bound))
    return bits


def pack(row, bits: int) -> int:
    """The integer holding row, entry j in a signed lane at bit bits*j."""
    return sum(map(lshift, row, range(0, bits * len(row), bits)))


def unpack(x: int, n: int, bits: int) -> list[int]:
    """The n signed lanes of x, lowest first; CheckFailure if a carry is
    left past the top lane."""
    mask, half, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
    out = []
    for _ in range(n):
        lane = x & mask
        if lane >= half:
            lane -= full
        out.append(lane)
        x = (x - lane) >> bits
    if x:
        raise CheckFailure("packed row carries %d past its %d lanes" % (x, n))
    return out


def packed_powers(a, k: int, bits: int):
    """Yield (rows, trace) for A^1, ..., A^k: rows[i] is row i of the power
    packed in lanes of the given width, and trace its trace.

    Row i of A^(j+1) is the single sum over l of A[i][l] times row l of A^j.
    The caller certifies the width for every entry of the powers.  Adding
    2^(B-1) to every lane of a row makes each lane nonnegative, so the
    diagonal lane is read by a shift and a mask."""
    n = len(a)
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    shifts = range(0, bits * n, bits)
    bias = sum(half << s for s in shifts)
    rows = [1 << s for s in shifts]
    for _ in range(k):
        rows = [sum(map(mul, arow, rows)) for arow in a]
        yield rows, sum((x + bias) >> s & mask for x, s in zip(rows, shifts)) - n * half


def charpoly(a) -> list[int]:
    """Characteristic polynomial det(xI - A) of an integer matrix,
    coefficients low degree first: Newton's identities on the traces of
    A^1..A^n from packed_powers.  With rho the largest absolute row sum of
    A (at least 1), every entry of A^k is at most rho^k in absolute value,
    so rho^n bounds the lanes."""
    n = len(a)
    am = [[int(x) for x in row] for row in a]
    if any(x != y for ra, rb in zip(am, a) for x, y in zip(ra, rb)):
        raise ValueError("charpoly needs an integer matrix")
    rho = max(1, max((sum(map(abs, row)) for row in am), default=0))
    bits = lane_width(rho ** n, "linalg.charpoly")
    return charpoly_from_traces([trace for _, trace in packed_powers(am, n, bits)])


def charpoly_from_traces(traces) -> list[int]:
    """det(xI - A), low degree first, from the power traces
    traces[j - 1] = tr(A^j), j = 1..n, of an n x n integer matrix A.

    Newton's identities: with c_n = 1, k c_(n-k) = -sum_(i=1..k) c_(n-k+i)
    tr(A^i) for k = 1..n.  For an integer matrix every c is an integer, so
    each division by k is exact; a remainder means the traces are not those
    of an integer matrix and raises CheckFailure."""
    n = len(traces)
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        c, r = divmod(-sum(map(mul, coeffs[n - k + 1:], traces)), k)
        if r:
            raise CheckFailure("Newton's identity %d: power-trace sum not divisible by %d" % (k, k))
        coeffs[n - k] = c
    return coeffs


# ---------------------------------------------------------------------------
# integer lattice routines


def _smith_reduce(m, u=None, v=None) -> None:
    """Reduce the integer matrix m in place to Smith normal form.

    When u and v are given, every row operation on m is also applied to u
    and every column operation to v, so identities passed in come back as
    unimodular u and v with u*a*v = m.  Without them only m is reduced."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    t = 0
    while t < min(rows, cols):
        # pivot: smallest nonzero entry in the remaining block, first in
        # row-major order (no entry is smaller than 1, so one ends the scan)
        piv, bi = 0, t
        for i in range(t, rows):
            low = min(map(abs, filter(None, m[i][t:])), default=0)
            if low and (not piv or low < piv):
                piv, bi = low, i
                if low == 1:
                    break
        if not piv:
            break
        bj = list(map(abs, m[bi])).index(piv, t)
        m[t], m[bi] = m[bi], m[t]
        if u is not None:
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for row in m:
                row[t], row[bj] = row[bj], row[t]
            if v is not None:
                for row in v:
                    row[t], row[bj] = row[bj], row[t]
        pivot_row = m[t]
        if pivot_row[t] < 0:
            m[t] = pivot_row = [-x for x in pivot_row]
            if u is not None:
                u[t] = [-x for x in u[t]]
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = -(m[i][t] // piv)
                m[i] = [x + q * y for x, y in zip(m[i], pivot_row)]
                if u is not None:
                    u[i] = [x + q * y for x, y in zip(u[i], u[t])]
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if pivot_row[j]:
                q = -(pivot_row[j] // piv)
                for row in m:
                    row[j] += q * row[t]
                if v is not None:
                    for row in v:
                        row[j] += q * row[t]
                if pivot_row[j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of later entries by the pivot
        bad = None
        if piv != 1:
            bad = next((i for i in range(t + 1, rows)
                        if any(x % piv for x in m[i][t + 1:])), None)
        if bad is not None:
            m[t] = [x + y for x, y in zip(m[t], m[bad])]
            if u is not None:
                u[t] = [x + y for x, y in zip(u[t], u[bad])]
            continue
        t += 1


def smith_normal_form(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (d, u, v) with u*a*v = d diagonal, u and v unimodular."""
    m = [[int(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    _smith_reduce(m, u, v)
    return m, u, v


def elementary_divisors(a) -> list[int]:
    """The nonzero diagonal of the Smith normal form of a, each dividing the
    next.  The unimodular transforms are not formed."""
    m = [[int(x) for x in row] for row in a]
    _smith_reduce(m)
    return [m[i][i] for i in range(min(len(m), len(m[0]) if m else 0)) if m[i][i]]


def solve(a, b) -> list[Fraction] | None:
    """One exact solution of A x = b over Q, or None if inconsistent.

    Each equation is scaled by the lcm of its denominators, which leaves the
    solution set alone and makes the system integral.  With u A v = d from
    smith_normal_form, x = v y where y_i = (u b)_i / d_i on the nonzero
    diagonal and every free y_i is 0; a zero diagonal entry (or a row past
    the diagonal) that meets a nonzero (u b)_i means there is no solution.
    """
    rows, rhs = [], []
    for row, bv in zip(a, b):
        s = lcm(bv.denominator, *(x.denominator for x in row))
        rows.append([x.numerator * (s // x.denominator) for x in row])
        rhs.append(bv.numerator * (s // bv.denominator))
    d, u, v = smith_normal_form(rows)
    cols = len(v)
    y = [Fraction(0)] * cols
    for i, ub in enumerate(sum(map(mul, row, rhs)) for row in u):
        di = d[i][i] if i < cols else 0
        if di:
            y[i] = Fraction(ub, di)
        elif ub:
            return None
    return [sum(map(mul, row, y)) for row in v]


def integer_solve(a, b) -> list[int] | None:
    """One integer solution of A x = b, or None if there is none.

    This is solve's answer when it is integral, which is exact: v is
    unimodular, and any integer solution x' gives an integral y' = v^-1 x'
    that agrees with solve's y on the nonzero diagonal, so solve's y (free
    coordinates 0), and with it x = v y, is integral too."""
    x = solve(a, b)
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return [int(c) for c in x]
