"""Exact linear algebra over Q and Z for small matrices.

Everything here works on plain nested lists of integers (or, for solve,
rationals).  One elimination loop, _smith_reduce, does all the work:
smith_normal_form carries the two unimodular transforms through it,
elementary_divisors only reduces the matrix, and the rank of a matrix is the
number of its elementary divisors.  solve takes a rational system to an
integer one by scaling each equation by the lcm of its denominators and
reads its answer off the Smith form; integer_solve keeps that answer when it
is integral.  charpoly is Faddeev-LeVerrier over Z, on rows packed into
lane integers; charpoly_from_traces is Newton's identities on the power
traces, for a caller that already holds them.  Matrix sizes in this
package are at most 22x22, so no attempt is made at asymptotic
cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import CheckFailure


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch: %d columns times %d rows" % (len(a[0]), len(b)))
    bcols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bcols] for row in a]


def _lane_bits(bound: int) -> int:
    """Lane width in bits for signed entries of absolute value at most bound."""
    return bound.bit_length() + 1


def _unpack(x: int, n: int, bits: int) -> list[int]:
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


def charpoly(a) -> list[int]:
    """Characteristic polynomial det(xI - A) of an integer matrix,
    coefficients low degree first.

    Faddeev-LeVerrier over Z: with M_1 = I, step k = 1..n forms A M_k, reads
    c_(n-k) = -tr(A M_k) / k and sets M_(k+1) = A M_k + c_(n-k) I.  Every
    division by k is exact for an integer matrix, and each one is checked.

    Each row of M_k is kept as one integer holding its entries in signed
    lanes of B bits, entry j at bit B*j, as reps.norm_matrix keeps its
    rows, so row i of A M_k is the single sum over l of A[i][l] times row l
    of M_k.  With rho the largest absolute row sum of A (at least 1), every
    eigenvalue is at most rho in absolute value, so |c_(n-j)| <= C(n, j)
    rho^j; M_k = sum_(j<k) c_(n-j) A^(k-1-j) then has row sums at most
    2^n rho^(k-1), and A M_k at most 2^n rho^k.  So (2 rho)^n bounds every
    entry, and B is chosen so that 2^(B-1) exceeds it.  Adding 2^(B-1) to
    every lane makes each lane of a row nonnegative, so lane i of row i, the
    diagonal entry, is read by a shift and a mask; a carry left past the
    top lane raises CheckFailure.
    """
    n = len(a)
    am = [[int(x) for x in row] for row in a]
    if any(x != y for ra, rb in zip(am, a) for x, y in zip(ra, rb)):
        raise ValueError("charpoly needs an integer matrix")
    rho = max(1, max((sum(map(abs, row)) for row in am), default=0))
    bits = _lane_bits((2 * rho) ** n)
    half, mask, top = 1 << (bits - 1), (1 << bits) - 1, bits * n
    shifts = [bits * i for i in range(n)]
    bias = sum(half << s for s in shifts)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    rows = [1 << s for s in shifts]
    for k in range(1, n + 1):
        rows = [sum(map(mul, arow, rows)) for arow in am]
        biased = [row + bias for row in rows]
        if any(b >> top for b in biased):
            raise CheckFailure("packed row carries past its %d lanes" % n)
        trace = sum(b >> s & mask for b, s in zip(biased, shifts)) - n * half
        c, r = divmod(-trace, k)
        if r:
            raise CheckFailure("Faddeev-LeVerrier trace not divisible by %d" % k)
        coeffs[n - k] = c
        rows = [row + (c << s) for row, s in zip(rows, shifts)]
    return coeffs


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
