"""The four CheckFailure sites of sgnperm.classify_order4, made to fire.

No square root of d0 or pperm reaches them, so each test corrupts the
square roots that `verify lemma-5.2` classifies (sgnperm.square_roots) and
makes the memoized 4A' test of their squares (sgnperm._is_4a_prime) pass
every element.  Each runs the command line and expects exit 1, exactly
one `FAIL:` line naming the site and no traceback.

They check with pytest.fail, never with the assert statement, so they keep
their meaning under `python -O -m pytest`."""

from k3census import sgnperm as sp
from k3census.sgnperm import SignedPerm
from test_refutation_sites import ShiftedTrace, expect_failure


def expect_site(monkeypatch, capsys, element, message):
    """verify lemma-5.2 with every square root replaced by `element`."""
    monkeypatch.setattr(sp, "square_roots", lambda c: (element,))
    monkeypatch.setattr(sp, "_is_4a_prime", lambda v: True)
    expect_failure(capsys, message, "verify", "lemma-5.2")


def test_trace_out_of_range_fails(monkeypatch, capsys):
    """No order-4 element of H has trace +-6, so the root is e1 -> e2 -> -e1
    with e3..e7 negated (trace -4), read 2 low."""
    root = ShiftedTrace((2, -1, -3, -4, -5, -6, -7, 8))
    expect_site(monkeypatch, capsys, root, "has trace -6")


def test_one_four_cycle_fails(monkeypatch, capsys):
    """The 4-cycle (1 2 3 4) with four fixed letters."""
    root = SignedPerm.from_cycles([(1, 2, 3, 4)])
    expect_site(monkeypatch, capsys, root, "has cycle lengths [1, 1, 1, 1, 4]")


def test_signs_varying_along_a_four_cycle_fail(monkeypatch, capsys):
    """e1 -> e2 -> -e3 -> e4 -> e1 (sign product +1) and (5 6 7 8)."""
    root = SignedPerm((2, -3, -4, 1, 6, 7, 8, 5))
    expect_site(monkeypatch, capsys, root, "has signs that vary along a 4-cycle")


def test_one_transposition_fails(monkeypatch, capsys):
    """e1 -> e2 -> -e1 with e3 negated: order 4 from one transposition."""
    root = SignedPerm((2, -1, -3, 4, 5, 6, 7, 8))
    expect_site(monkeypatch, capsys, root, "has 1 transpositions")
