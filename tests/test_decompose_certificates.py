"""The certificates of reps.decompose_matrix, of the Newton charpoly from
power traces, and of the lane widths of census.refine and
e8.matrix_in_f_basis, each fired on purpose.  No genuine input reaches
them, so each test breaks one input: the packed norm pass, the traces,
the Newton step or the lane width, and expects the site's own
message, directly and, for one of them, through the command line as exit 1
with no traceback.

They check with pytest.raises and pytest.fail, never with the assert
statement, so they keep their meaning under `python -O -m pytest`."""

import pytest

from k3census import census, cli, e8, linalg, reps, sgnperm as sp
from k3census.errors import CheckFailure


@pytest.fixture(autouse=True)
def cold_decompositions():
    """Nothing computed while an input is broken may outlive its test."""
    reps._class_decomposition.cache_clear()
    yield
    reps._class_decomposition.cache_clear()


def five_cycle():
    """The f-basis matrix of the 5-cycle, (r, s, t) = (1, 0, 3)."""
    return e8.matrix_in_f_basis(sp.std_cycle(5).matrix_e())


def broken_norm_pass(monkeypatch, change):
    """_norm_and_traces with change(norm, traces) applied to its output."""
    genuine = reps._norm_and_traces

    def broken(m, p):
        norm, traces = genuine(m, p)
        return change(norm, traces)

    monkeypatch.setattr(reps, "_norm_and_traces", broken)


def test_genuine_inputs_pass():
    got = reps.decompose_matrix(five_cycle(), 5)
    if got.as_rts() != (1, 3, 0):
        pytest.fail("the 5-cycle decomposes as %r" % (got,))
    if linalg.charpoly_from_traces([3, 3, 3]) != [-1, 3, -3, 1]:
        pytest.fail("Newton's identities give a wrong charpoly for the identity")


def test_norm_rank_below_the_fixed_rank_raises(monkeypatch):
    broken_norm_pass(monkeypatch, lambda norm, traces: ([[0] * 8 for _ in norm], traces))
    with pytest.raises(CheckFailure, match="norm image has rank 0 in the fixed sublattice"):
        reps.decompose_matrix(five_cycle(), 5)


def test_elementary_divisor_outside_one_and_p_raises(monkeypatch):
    broken_norm_pass(monkeypatch, lambda norm, traces: ([[2 * x for x in row] for row in norm],
                                                       traces))
    with pytest.raises(CheckFailure, match="elementary divisors .* not 1 or 5"):
        reps.decompose_matrix(five_cycle(), 5)


def test_trace_mismatch_raises(monkeypatch):
    broken_norm_pass(monkeypatch, lambda norm, traces: (norm, [traces[0] + 5] + traces[1:]))
    with pytest.raises(CheckFailure, match="has trace 3, the matrix 8"):
        reps.decompose_matrix(five_cycle(), 5)


def test_newton_charpoly_mismatch_raises(monkeypatch):
    genuine = linalg.charpoly_from_traces
    monkeypatch.setattr(linalg, "charpoly_from_traces",
                        lambda traces: [c + 1 for c in genuine(traces)[:-1]] + [1])
    with pytest.raises(CheckFailure, match="characteristic polynomial .* does not match"):
        reps.decompose_matrix(five_cycle(), 5)


def test_newton_division_not_exact_raises(monkeypatch):
    with pytest.raises(CheckFailure, match="Newton's identity 2: .* not divisible by 2"):
        linalg.charpoly_from_traces([1, 0])
    # an odd tr(g^2) makes 2 c_6 = tr(g)^2 - tr(g^2) odd
    broken_norm_pass(monkeypatch, lambda norm, traces: (norm, traces[:1] + [traces[1] + 1]
                                                       + traces[2:]))
    with pytest.raises(CheckFailure, match="Newton's identity 2"):
        reps.decompose_matrix(five_cycle(), 5)


def narrow_lanes(bound):
    """One bit short: 2^(B-1) no longer exceeds the bound."""
    return bound.bit_length()


def test_refine_lane_width_below_the_bound_raises(monkeypatch):
    profile = census.nontrivial_profiles(7)[0]
    counts = census.stage1(profile)[0]
    monkeypatch.setattr(linalg, "_lane_bits", narrow_lanes)
    with pytest.raises(CheckFailure, match="census.refine: lanes .* cannot hold entries"):
        census.refine(profile, counts)


def test_f_basis_lane_width_below_the_bound_raises(monkeypatch):
    monkeypatch.setattr(linalg, "_lane_bits", narrow_lanes)
    with pytest.raises(CheckFailure, match="e8.matrix_in_f_basis: lanes .* cannot hold entries"):
        five_cycle()


def test_cli_fails_on_a_broken_trace(monkeypatch, capsys):
    broken_norm_pass(monkeypatch, lambda norm, traces: (norm, [traces[0] + 1] + traces[1:]))
    code = cli.main(["verify", "lemma-4.5"])
    out, err = capsys.readouterr()
    if code != 1:
        pytest.fail("exit %r, not 1" % (code,))
    if out or not err.startswith("FAIL: ") or "Traceback" in err:
        pytest.fail("unexpected output %r / %r" % (out, err))
