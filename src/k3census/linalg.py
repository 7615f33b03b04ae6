"""Exact linear algebra over Q and Z for small matrices.

Everything here works on plain nested lists.  Rational routines use
fractions.Fraction; integer routines (characteristic polynomial, Smith
normal form, integer solutions) never leave Z.  Matrix sizes in this
package are at most 22x22, so no attempt is made at asymptotic cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import CheckFailure

Vec = list[Fraction]
Mat = list[list[Fraction]]


def frac_matrix(rows) -> Mat:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


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


def mat_vec(a: Mat, x) -> Vec:
    return [sum(Fraction(a[i][j]) * x[j] for j in range(len(x))) for i in range(len(a))]


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


def det(a: Mat) -> Fraction:
    m = [list(map(Fraction, row)) for row in a]
    n = len(m)
    sign = 1
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        d *= m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d * sign


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


def smith_normal_form(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (d, u, v) with u*a*v = d diagonal, u and v unimodular."""
    m = [[int(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row dst += q * row src
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # pivot: smallest nonzero entry in the remaining block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if m[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of later entries by m[t][t]
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return m, u, v


def elementary_divisors(a) -> list[int]:
    d, _, _ = smith_normal_form(a)
    out = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    return [x for x in out if x != 0]


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
