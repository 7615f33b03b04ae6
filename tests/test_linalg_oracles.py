"""sympy's Smith normal form as an independent reference for the integer
elimination in linalg."""

import random

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from k3census import linalg


def sympy_divisors(a):
    d = sympy_snf(Matrix(a), domain=ZZ)
    return [abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i]]


def seeded_matrix(rng, rows, cols):
    """A random integer matrix of the given shape: full, of deficient rank
    (a product through a thinner middle), or with zero rows and columns."""
    kind = rng.choice(("full", "low rank", "zero lines"))
    if kind == "low rank":
        k = rng.randrange(min(rows, cols))
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
        return [[sum(row[l] * right[l][j] for l in range(k)) for j in range(cols)]
                for row in left]
    a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero lines":
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            a[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in a:
                row[j] = 0
    return a


def test_elementary_divisors_match_sympy_on_every_shape():
    rng = random.Random(1902)
    kinds = {"rank deficient": 0, "zero line": 0}
    for rows in range(1, 10):
        for cols in range(1, 10):
            for _ in range(4):
                a = seeded_matrix(rng, rows, cols)
                got = linalg.elementary_divisors(a)
                assert got == sympy_divisors(a), a
                assert all(y % x == 0 for x, y in zip(got, got[1:]))
                kinds["rank deficient"] += len(got) < min(rows, cols)
                kinds["zero line"] += any(not any(r) for r in a) or any(not any(c) for c in zip(*a))
    assert min(kinds.values()) > 50, kinds


def test_elementary_divisors_of_known_forms():
    assert linalg.elementary_divisors([[0]]) == []
    assert linalg.elementary_divisors([[-7]]) == [7]
    assert linalg.elementary_divisors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert linalg.elementary_divisors([[0, 0, 0], [0, 0, 0]]) == []
    assert linalg.elementary_divisors([[0, -3, 0], [0, 6, 0]]) == [3]
