"""The division-free kernels rest on certificates checked when they run: the
closed-form 1 / (1 - z^c) must multiply back to 1, the Cartan matrix of
f1..f8 must have Smith form I, the f-basis inverse B must satisfy
B D = 4 I for the doubled basis matrix D, and the Gram matrix of f1..f8
must be the E8 Cartan matrix.  These tests hand each one a broken input and
expect CheckFailure, directly and through the command line, where it is
exit 1 with no traceback.

They check with pytest.raises and pytest.fail, never with the assert
statement, so they keep their meaning under `python -O -m pytest`."""

import pytest

from k3census import cli, cyclotomic as cy, e8, linalg
from k3census.errors import CheckFailure

MEMOS = (cy.inv_one_minus_zeta, cy._cot_unit, cy.cot_product, e8._basis_inverse,
         e8.standard_basis)


@pytest.fixture(autouse=True)
def empty_memos():
    """Each broken kernel must run, not be served from a memo; nothing
    computed while it is broken may outlive the test."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


def off_by_one(original):
    def broken(n, c):
        return original(n, c) + 1
    return broken


def expect_cli_failure(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if code != 1:
        pytest.fail("exit %r, not 1" % (code,))
    if out or not err.startswith("FAIL: ") or "Traceback" in err:
        pytest.fail("unexpected output %r / %r" % (out, err))


def test_genuine_kernels_pass():
    if (1 - cy.CycNum.zeta(12, 4)) * cy.inv_one_minus_zeta(12, 4) != 1:
        pytest.fail("the closed form does not invert 1 - z^4 in Q(zeta_12)")
    s, b = e8._basis_inverse()
    if s != 2 or len(b) != 8:
        pytest.fail("basis inverse has scale %r" % (s,))


def test_corrupted_closed_form_raises(monkeypatch):
    monkeypatch.setattr(cy, "_closed_form_inverse", off_by_one(cy._closed_form_inverse))
    with pytest.raises(CheckFailure, match="closed-form inverse"):
        cy.inv_one_minus_zeta(7, 3)
    with pytest.raises(CheckFailure, match="closed-form inverse"):
        cy.cot_product(5, 1, 2)


def test_cli_fails_on_a_corrupted_closed_form(monkeypatch, capsys):
    monkeypatch.setattr(cy, "_closed_form_inverse", off_by_one(cy._closed_form_inverse))
    expect_cli_failure(["verify", "lemma-6.4"], capsys)


def test_corrupted_cartan_inverse_raises(monkeypatch):
    # I is unimodular, so the Smith check passes and B D = 4 C must fail
    monkeypatch.setattr(e8, "cartan_matrix", lambda: [[int(i == j) for j in range(8)]
                                                     for i in range(8)])
    with pytest.raises(CheckFailure, match="B D is not 4 I"):
        e8._basis_inverse()


def test_corrupted_smith_transform_raises(monkeypatch):
    genuine = linalg.smith_normal_form

    def wrong_u(a):
        d, u, v = genuine(a)
        u[0] = [x + y for x, y in zip(u[0], u[1])]
        return d, u, v

    monkeypatch.setattr(linalg, "smith_normal_form", wrong_u)
    with pytest.raises(CheckFailure, match="B D is not 4 I"):
        e8._basis_inverse()


def test_corrupted_smith_diagonal_raises(monkeypatch):
    genuine = linalg.smith_normal_form

    def wrong_d(a):
        d, u, v = genuine(a)
        d[7][7] = 2
        return d, u, v

    monkeypatch.setattr(linalg, "smith_normal_form", wrong_d)
    with pytest.raises(CheckFailure, match="Smith form"):
        e8._basis_inverse()


def test_cli_fails_on_a_corrupted_smith_diagonal(monkeypatch, capsys):
    genuine = linalg.smith_normal_form

    def wrong_d(a):
        d, u, v = genuine(a)
        d[0][0] = 3
        return d, u, v

    monkeypatch.setattr(linalg, "smith_normal_form", wrong_d)
    expect_cli_failure(["verify", "lemma-4.5"], capsys)


def test_wrong_cartan_span_check_raises(monkeypatch):
    def cartan_with_a_cut_edge():
        m = [[2 * (i == j) for j in range(8)] for i in range(8)]
        for i, j in e8.DYNKIN_EDGES[:-1]:
            m[i - 1][j - 1] = m[j - 1][i - 1] = -1
        return m

    monkeypatch.setattr(e8, "expected_cartan", cartan_with_a_cut_edge)
    with pytest.raises(CheckFailure, match="do not span"):
        e8.standard_basis()
