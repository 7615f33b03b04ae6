"""Exact linear algebra over Q and Z for small matrices.

Everything here works on plain nested lists.  Rational routines use
fractions.Fraction; integer routines (characteristic polynomial, Smith
normal form, integer solutions) never leave Z.  One elimination loop,
_smith_reduce, serves the Smith form: smith_normal_form and integer_solve
carry the two unimodular transforms through it, elementary_divisors only
reduces the matrix.  Matrix sizes in this package are at most 22x22, so no
attempt is made at asymptotic cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import CheckFailure

Vec = list[Fraction]
Mat = list[list[Fraction]]


def frac_matrix(rows) -> Mat:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(n: int, m: int) -> Mat:
    return [[Fraction(0)] * m for _ in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("shape mismatch: %d columns times %d rows" % (len(a[0]), k))
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        for j in range(m):
            out[i][j] = sum(ai[l] * b[l][j] for l in range(k))
    return out


def _echelon(a: Mat) -> tuple[Mat, list[int]]:
    """Row reduce a copy of `a`; return (rref, pivot column indices)."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Mat) -> int:
    if not a:
        return 0
    return len(_echelon(frac_matrix(a))[1])


def solve(a: Mat, b) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent.

    For underdetermined systems the free variables are set to zero.
    """
    aug = [list(map(Fraction, row)) + [Fraction(bv)] for row, bv in zip(a, b)]
    red, pivots = _echelon(aug)
    ncols = len(a[0])
    for row in red:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    # in rref each row is supported on its pivot and free columns only, so
    # setting free variables to zero reads off a solution directly
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[r][ncols]
    return x


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the rational kernel of A (as row vectors)."""
    red, pivots = _echelon(frac_matrix(a))
    ncols = len(a[0]) if a else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def charpoly(a) -> list[int]:
    """Characteristic polynomial det(xI - A) of an integer matrix,
    coefficients low degree first.

    Faddeev-LeVerrier over Z: every division by k is exact for an integer
    matrix, and each one is checked.
    """
    n = len(a)
    am = [[int(x) for x in row] for row in a]
    if any(x != y for ra, rb in zip(am, a) for x, y in zip(ra, rb)):
        raise ValueError("charpoly needs an integer matrix")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mcols = list(zip(*m))
        m = [[sum(map(mul, row, col)) for col in mcols] for row in am]
        c, r = divmod(-sum(m[i][i] for i in range(n)), k)
        if r:
            raise CheckFailure("Faddeev-LeVerrier trace not divisible by %d" % k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
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


def integer_solve(a, b) -> list[int] | None:
    """One integer solution of A x = b, or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d, u, v = smith_normal_form(a)
    ub = [sum(u[i][j] * b[j] for j in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(min(rows, cols)):
        if d[i][i] != 0:
            if ub[i] % d[i][i] != 0:
                return None
            y[i] = ub[i] // d[i][i]
        elif ub[i] != 0:
            return None
    for i in range(min(rows, cols), rows):
        if ub[i] != 0:
            return None
    return [sum(v[i][j] * y[j] for j in range(cols)) for i in range(cols)]
