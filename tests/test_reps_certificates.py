"""The packed norm powers of reps.norm_matrix rest on two certificates of
linalg checked when they run: the lane width holds the certified entry
bound, and decoding leaves no carry past the top lane.  These tests hand
each one a broken input and expect CheckFailure, directly and through the
command line, where it is exit 1 with no traceback.

They check with pytest.raises and pytest.fail, never with the assert
statement, so they keep their meaning under `python -O -m pytest`."""

import pytest

from k3census import cli, e8, linalg, reps, sgnperm as sp
from k3census.errors import CheckFailure


@pytest.fixture(autouse=True)
def cold_class_decompositions():
    """decompose_element computes each class decomposition once; clear that
    cache around every test here, so the kernels under test really run and
    no result computed under a broken kernel outlives its test."""
    reps._class_decomposition.cache_clear()
    yield
    reps._class_decomposition.cache_clear()


def narrow_lanes(bound):
    """One bit short: 2^(B-1) no longer exceeds the bound."""
    return bound.bit_length()


def test_genuine_lanes_pass():
    got = reps.decompose_element(sp.std_cycle(5), 5)
    if got.as_rts() != (1, 3, 0):
        pytest.fail("std_cycle(5) decomposes as %r" % (got,))
    if linalg.unpack((-128) + (127 << 8), 3, 8) != [-128, 127, 0]:
        pytest.fail("signed lanes decode wrongly")


def test_lane_width_below_the_bound_raises(monkeypatch):
    # built before the patch: matrix_in_f_basis has lanes of its own
    seven_cycle = e8.matrix_in_f_basis(sp.std_cycle(7).matrix_e())
    monkeypatch.setattr(linalg, "_lane_bits", narrow_lanes)
    with pytest.raises(CheckFailure, match="reps.norm_matrix: lanes .* cannot hold entries"):
        reps.norm_matrix([[0, 1], [1, 0]], 2)
    with pytest.raises(CheckFailure, match="reps.norm_matrix: lanes .* cannot hold entries"):
        reps.decompose_matrix(seven_cycle, 7)


def test_carry_past_the_top_lane_raises():
    with pytest.raises(CheckFailure, match="carries"):
        linalg.unpack(1 << 24, 3, 8)
    with pytest.raises(CheckFailure, match="carries"):
        linalg.unpack(-(1 << 24), 3, 8)


def test_cli_fails_on_narrow_lanes(monkeypatch, capsys):
    """lemma-4.5 puts each witness in the f-basis before it decomposes it,
    so the first lane width to fail is matrix_in_f_basis's."""
    monkeypatch.setattr(linalg, "_lane_bits", narrow_lanes)
    code = cli.main(["verify", "lemma-4.5"])
    out, err = capsys.readouterr()
    if code != 1:
        pytest.fail("exit %r, not 1" % (code,))
    if out or not err.startswith("FAIL: e8.matrix_in_f_basis: lanes ") or "Traceback" in err:
        pytest.fail("unexpected output %r / %r" % (out, err))
