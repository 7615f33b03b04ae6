"""`gindex.rochlin` against an independent plumbing computation and the
eta-invariant formula.

The oracle expands p/q as a negative continued fraction with `Fraction`
arithmetic, writes out the dense intersection form Q of the linear plumbing,
finds the characteristic class by brute force over every 0/1 vector (by an
exact rational solve of Q x = diag Q for chains longer than ten, whose odd
determinant makes x mod 2 the class), checks the class against every basis
vector, and reads the signature off the pivots of a rational LDL^T
elimination.

The orientation check feeds the oracle the plumbing of p/(p - q), a
different chain from the one `gindex.rochlin` builds for p/q, and compares
mu(L(p, p - q)) = -mu(L(p, q)) for every odd p <= 31.

The third route needs no plumbing: for every odd p <= 51 (542 lens spaces),
-(def(1, q) + 8 sum_k I(k, k q)) / p, from the point signature defect and the
Dirac character term summed over Q(zeta_p), must be an integer congruent to
mu(L(p, q)) mod 16.  (`gindex.rochlin` checks the same identity at run time
on its Dedekind-sum forms; the field sums here are independent of those.)
No check uses `assert`, so the file also runs under `python -O`.
"""

from fractions import Fraction
from itertools import product
from math import ceil, gcd

import pytest

from conftest import LENS_P
from k3census import gindex as gi

ODD_P = range(3, 32, 2)
ETA_P = LENS_P


def continued_fraction(p: int, q: int) -> list[int]:
    """a_1, ..., a_n >= 2 with p/q = a_1 - 1/(a_2 - ... - 1/a_n)."""
    x, out = Fraction(p, q), []
    while True:
        a = ceil(x)
        out.append(a)
        if a == x:
            return out
        x = 1 / (a - x)


def plumbing_form(a: list[int]) -> list[list[int]]:
    n = len(a)
    return [[-a[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


def is_characteristic(form, w) -> bool:
    n = len(form)
    return all(sum(form[j][i] * w[i] for i in range(n)) % 2 == form[j][j] % 2
               for j in range(n))


def characteristic_class(form) -> tuple[int, ...]:
    n = len(form)
    if n <= 10:
        found = [w for w in product((0, 1), repeat=n) if is_characteristic(form, w)]
        if len(found) != 1:
            pytest.fail("%d characteristic 0/1 vectors for %r" % (len(found), form))
        return found[0]
    # Q x = diag Q over Q: x has odd denominators, so x mod 2 is the class
    rows = [[Fraction(v) for v in row] + [Fraction(row[i])] for i, row in enumerate(form)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    x = [rows[i][n] / rows[i][i] for i in range(n)]
    if any(v.denominator % 2 == 0 for v in x):
        pytest.fail("even denominator in the solution for %r" % (form,))
    return tuple(v.numerator % 2 for v in x)


def signature(form) -> int:
    """Sylvester: the signs of the pivots of a symmetric LDL^T elimination."""
    m = [[Fraction(v) for v in row] for row in form]
    n, sig = len(m), 0
    for k in range(n):
        if m[k][k] == 0:
            pytest.fail("zero pivot in %r" % (form,))
        sig += 1 if m[k][k] > 0 else -1
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return sig


def oracle_mu(p: int, q: int) -> int:
    a = continued_fraction(p, q)
    value = Fraction(a[-1])
    for ai in reversed(a[:-1]):
        value = ai - 1 / value
    if value != Fraction(p, q) or min(a) < 2:
        pytest.fail("bad expansion %r of %d/%d" % (a, p, q))
    form = plumbing_form(a)
    w = characteristic_class(form)
    if not is_characteristic(form, w):
        pytest.fail("%r is not characteristic for L(%d,%d)" % (w, p, q))
    square = sum(w[i] * form[i][j] * w[j] for i in range(len(a)) for j in range(len(a)))
    return (signature(form) - square) % 16


def coprime(p: int):
    return [q for q in range(1, p) if gcd(p, q) == 1]


def test_pinned_lens_spaces():
    got = {q: gi.rochlin(5, q) for q in (1, 2, 3)}
    if got != {1: 4, 2: 0, 3: 0}:
        pytest.fail("mu(L(5, q)) = %r, the fixtures are L(5,1) = 4, L(5,2) = L(5,3) = 0" % got)


@pytest.mark.parametrize("p", ODD_P)
def test_orientation_reversal_against_dual_plumbing(p):
    # L(p, p - q) is L(p, q) with the orientation reversed, bounded by a
    # different plumbing chain
    for q in coprime(p):
        dual = oracle_mu(p, p - q)
        if gi.rochlin(p, q) != (-dual) % 16:
            pytest.fail("mu(L(%d,%d)) = %d but the plumbing of %d/%d gives %d"
                        % (p, q, gi.rochlin(p, q), p, p - q, dual))


@pytest.mark.parametrize("p", ODD_P)
def test_same_plumbing_oracle(p):
    for q in coprime(p):
        if gi.rochlin(p, q) != oracle_mu(p, q):
            pytest.fail("L(%d,%d): %d against %d" % (p, q, gi.rochlin(p, q), oracle_mu(p, q)))


@pytest.mark.parametrize("p", ODD_P)
def test_inverse_residue_gives_the_same_invariant(p):
    for q in coprime(p):
        inverse = pow(q, -1, p)
        if gi.rochlin(p, q) != gi.rochlin(p, inverse):
            pytest.fail("mu(L(%d,%d)) != mu(L(%d,%d))" % (p, q, p, inverse))


def test_values_are_even_residues_mod_16():
    for p in ODD_P:
        for q in coprime(p):
            mu = gi.rochlin(p, q)
            if not (0 <= mu < 16 and mu % 2 == 0):
                pytest.fail("mu(L(%d,%d)) = %r" % (p, q, mu))
    if gi.rochlin(1, 1) != 0 or gi.rochlin(7, 8) != gi.rochlin(7, 1):
        pytest.fail("S^3 or the residue of q mod p handled wrongly")


@pytest.mark.parametrize("p, q", [(6, 1), (2, 1), (5, 0), (9, 3), (15, 10), (0, 1), (-3, 1)])
def test_rejects_even_or_non_coprime_input(p, q):
    with pytest.raises(ValueError):
        gi.rochlin(p, q)


# ---------------------------------------------------------------------------
# a third route: the eta-invariant form of the Rochlin invariant
# (Atiyah-Patodi-Singer II, Math. Proc. Cambridge Philos. Soc. 78, 1975)

def eta_mu(traces, p: int, q: int) -> Fraction:
    """-(def(1, q) + 8 sum_{k=1}^{p-1} I(k, k q)) / p, with def the signature
    defect of a point and I its Dirac character term, both summed over
    Q(zeta_p) (the lens_field_traces fixture); an integer congruent to
    mu(L(p, q)) mod 16."""
    defect, spin = traces[p, q]
    return -(defect + 8 * spin) / p


def test_eta_route_covers_542_lens_spaces(lens_field_traces):
    n = sum(len(coprime(p)) for p in ETA_P)
    if n != 542 or len(lens_field_traces) != 542:
        pytest.fail("%d lens spaces L(p, q) with odd p <= 51 (%d traced), not 542"
                    % (n, len(lens_field_traces)))


@pytest.mark.parametrize("p", ETA_P)
def test_eta_invariant_formula(p, lens_field_traces):
    for q in coprime(p):
        value = eta_mu(lens_field_traces, p, q)
        if value.denominator != 1:
            pytest.fail("L(%d,%d): the eta route gives %s, not an integer" % (p, q, value))
        if value.numerator % 16 != gi.rochlin(p, q):
            pytest.fail("L(%d,%d): the eta route gives %d mod 16, the plumbing %d"
                        % (p, q, value.numerator % 16, gi.rochlin(p, q)))
