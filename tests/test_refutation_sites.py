"""The checks that would refute a statement of the paper, made to fire.

Each test corrupts one input by monkeypatching and runs the command line
that reaches the check: the Kirby-Siebenmann residue against 8 d_0
(`census p5`), the (Z2)^4 and Q8 searches (`verify theorem-1.7`,
`census q8`) and the Q8 fixed-point solver (`verify lemma-5.3`).  Each
expects exit 1, one `FAIL:` line naming the check and no traceback.

They check with pytest.fail, never with the assert statement, so they keep
their meaning under `python -O -m pytest`."""

from itertools import combinations

import pytest

from k3census import census, cli, gindex, sgnperm as sp
from k3census.sgnperm import SignedPerm


@pytest.fixture(autouse=True)
def fresh_caches():
    """Clear the certified even-pairing atoms, from which the searches take
    their starts, around each test."""
    sp.four_a_prime_elements.cache_clear()
    yield
    sp.four_a_prime_elements.cache_clear()


def expect_failure(capsys, message, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    if code != 1:
        pytest.fail("exit %r, not 1, for %r" % (code, argv))
    if out or not err.startswith("FAIL: ") or err.count("\n") != 1 or "Traceback" in err:
        pytest.fail("unexpected output %r / %r" % (out, err))
    if message not in err:
        pytest.fail("%r does not name %r" % (err, message))


def test_ks_residue_off_by_four_fails(monkeypatch, capsys):
    """Every Rochlin invariant 4 too large: the residue Sign(N) + sum roc
    no longer matches 8 d_0.  Without the check the shift would flip a KS
    verdict, or end in ks_rochlin_test's ValueError where the residue is
    neither 0 nor 8."""
    genuine = gindex.rochlin
    monkeypatch.setattr(gindex, "rochlin", lambda p, q: genuine(p, q) + 4)
    expect_failure(capsys, "not 8 d0 mod 16", "census", "p5")


def test_all_even_pairing_z2_4_fails(monkeypatch, capsys):
    """The 28 diagonal elements with two -1 entries added to the atoms: the
    diagonal (Z2)^4 generated by the sign changes on 1234, 1235, 1245 and
    1345 then has all its involutions among them.  The patch replaces the
    certified atoms themselves, so their certificate does not run."""
    genuine = sp.four_a_prime_elements
    extra = tuple(SignedPerm.diagonal(tuple(-1 if i in minus else 1 for i in range(8)))
                  for minus in combinations(range(8), 2))
    monkeypatch.setattr(sp, "four_a_prime_elements", lambda: genuine() + extra)
    expect_failure(capsys, "found an all-even-pairing (Z2)^4", "verify", "theorem-1.7")


def test_no_commuting_pair_fails(monkeypatch, capsys):
    """No second generator to try: every level-1 orbit list is empty."""
    monkeypatch.setattr(sp, "conjugation_orbits", lambda points, gens, center: [])
    expect_failure(capsys, "no commuting pair", "verify", "theorem-1.7")


class ShiftedTrace(SignedPerm):
    """An element whose trace reads 2 less than it is."""

    __slots__ = ()

    def trace(self):
        return SignedPerm.trace(self) - 2


def test_q8_obstruction_failing_fails(monkeypatch, capsys):
    """Square roots whose traces read 2 low: the realizable triple (0, 0, 0)
    becomes (-2, -2, -2), and two of it sum to (-4, -4, -4)."""
    genuine = sp.square_roots
    monkeypatch.setattr(sp, "square_roots",
                        lambda c: tuple(ShiftedTrace(v.image) for v in genuine(c)))
    expect_failure(capsys, "OBSTRUCTION FAILED", "census", "q8")


def test_forced_fixed_point_count_other_than_4_fails(monkeypatch, capsys):
    """Only the 6-point branch consistent."""
    monkeypatch.setattr(census, "_q8_points_consistent", lambda n, s_minus: (n == 6, "patched"))
    expect_failure(capsys, "forced fixed-point count is 6, not 4", "verify", "lemma-5.3")


def test_two_consistent_branches_fail(monkeypatch, capsys):
    """Every branch consistent."""
    monkeypatch.setattr(census, "_q8_points_consistent", lambda n, s_minus: (True, "patched"))
    expect_failure(capsys, "more than one consistent branch", "verify", "lemma-5.3")
