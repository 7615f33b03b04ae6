"""The e8 certificates that no genuine input reaches, made to fire: the
root count of enumerate_roots, the root test of standard_basis, the
quarter-integrality of scaled_word_matrix, the span check of f_coordinates
and the chain searches of orthogonal_a4_pair and orthogonal_a2_quadruple.
Each test corrupts one memo, pool or generator input by monkeypatching and
expects CheckFailure; the memos are emptied before and after, so that
nothing computed from a corrupted input outlives the test.

They check with pytest.raises and pytest.fail, never with the assert
statement, so they keep their meaning under `python -O -m pytest`."""

from itertools import combinations

import pytest

from k3census import e8
from k3census.e8 import LatticeVec
from k3census.errors import CheckFailure

MEMOS = (e8.enumerate_roots, e8.root_set, e8.standard_basis, e8._root_pool,
         e8.orthogonal_a4_pair, e8.orthogonal_a2_quadruple)


@pytest.fixture(autouse=True)
def empty_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


def test_genuine_inputs_pass():
    if len(e8.enumerate_roots()) != 240 or len(e8.standard_basis()) != 8:
        pytest.fail("%d roots, %d basis vectors"
                    % (len(e8.enumerate_roots()), len(e8.standard_basis())))
    f1 = e8.standard_basis()[0]
    if e8.f_coordinates(f1) != (1, 0, 0, 0, 0, 0, 0, 0):
        pytest.fail("f1 has f-coordinates %r" % (e8.f_coordinates(f1),))
    if len(e8.orthogonal_a4_pair()) != 2 or len(e8.orthogonal_a2_quadruple()) != 4:
        pytest.fail("chains %r, %r" % (e8.orthogonal_a4_pair(), e8.orthogonal_a2_quadruple()))


def test_missing_coordinate_pair_raises(monkeypatch):
    """The pair of coordinates (1, 2) left out of the integral roots: the
    four roots +-e1 +- e2 are missing."""
    monkeypatch.setattr(e8, "combinations", lambda items, k: list(combinations(items, k))[1:])
    with pytest.raises(CheckFailure, match="found 236 roots, not 240"):
        e8.enumerate_roots()


def test_basis_vector_that_is_no_root_raises(monkeypatch):
    monkeypatch.setattr(e8, "is_root", lambda v: False)
    with pytest.raises(CheckFailure, match="a basis vector f_i is not a root"):
        e8.standard_basis()


def test_reflection_in_a_non_lattice_vector_raises(monkeypatch):
    """e1 / 2 passed off as a root: the first reflection in it leaves the
    row 3 e1 in the scaled matrix, which the second one cannot divide."""
    half_e1 = object.__new__(LatticeVec)
    object.__setattr__(half_e1, "d", (1, 0, 0, 0, 0, 0, 0, 0))
    monkeypatch.setattr(e8, "is_root", lambda v: True)
    with pytest.raises(CheckFailure, match="left the quarter-integral matrices"):
        e8.scaled_word_matrix([half_e1, half_e1])


def test_corrupted_basis_inverse_raises(monkeypatch):
    """One entry of the memoized inverse B off by one: the doubled f1 has
    d[0] = 2, so its first coordinate is no longer an integer."""
    s, b = e8._basis_inverse()
    wrong = ((b[0][0] + 1,) + b[0][1:],) + b[1:]
    monkeypatch.setattr(e8, "_basis_inverse", lambda: (s, wrong))
    with pytest.raises(CheckFailure, match="do not span the lattice vector"):
        e8.f_coordinates(e8.standard_basis()[0])


def test_empty_root_pool_has_no_a4_chain(monkeypatch):
    pairing = e8._root_pool()[1]
    monkeypatch.setattr(e8, "_root_pool", lambda: ((), pairing))
    with pytest.raises(CheckFailure, match="no A4 chain among the roots"):
        e8.orthogonal_a4_pair()


def test_empty_orthogonal_pool_has_no_second_a4_chain(monkeypatch):
    monkeypatch.setattr(e8, "_orthogonal_pool", lambda chains: [])
    with pytest.raises(CheckFailure, match="no A4 chain orthogonal to"):
        e8.orthogonal_a4_pair()


def test_orthogonal_pool_emptied_after_three_a2_chains_raises(monkeypatch):
    genuine = e8._orthogonal_pool
    monkeypatch.setattr(e8, "_orthogonal_pool",
                        lambda chains: genuine(chains) if len(chains) < 3 else [])
    with pytest.raises(CheckFailure, match="no A2 chain orthogonal to 3 earlier chains"):
        e8.orthogonal_a2_quadruple()
