"""The integer routes of the census path against the routes they replaced.

- Point signature defects are -4p s(q, p) with s the Dedekind sum; the
  reference is the sum of p - 1 cot products over Q(zeta_p), on all 542
  lens spaces L(p, q) with odd p <= 51 and on every rotation pair for
  p = 5 and 7.  The Dedekind sums also obey reciprocity.
- The Dirac trace T(p, q) of `gindex.point_spin_trace` is a closed form;
  the reference sums `gindex._point_term` over Q(zeta_p).
- `census.stage1` compares scaled integer defect sums; the reference sums
  the Fraction defects.
- `gindex.galois_trace` is the closed-form trace from Q(zeta_p) to Q; the
  reference sums the p - 1 Galois conjugates.

The field sums come from the session fixture `lens_field_traces`, shared
with the eta-invariant test of `test_rochlin_oracles.py`.  The negative
tests break the Dirac trace or the Dedekind sum and expect CheckFailure
from the Rochlin eta certificate and from the trace certificates of
`census.group_defect` and `gindex.orbifold_signature`, directly and
through the command line (exit 1, one FAIL line, no traceback).  No check
uses the assert statement, so the file keeps its meaning under
`python -O -m pytest`."""

import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from conftest import field_trace
from k3census import census, cli, gindex as gi
from k3census.cyclotomic import CycNum, cot_product
from k3census.errors import CheckFailure


@pytest.fixture(autouse=True)
def cold_certificates():
    """rochlin and census.group_defect are memoized; clear them around every
    test here, so their certificates really run and no value outlives a
    broken trace or Dedekind sum."""
    gi.rochlin.cache_clear()
    census.group_defect.cache_clear()
    yield
    gi.rochlin.cache_clear()
    census.group_defect.cache_clear()


# ---------------------------------------------------------------------------
# Dedekind sums and the Dirac trace


def test_dedekind_defect_matches_field_sum_on_542_lens_spaces(lens_field_traces):
    if len(lens_field_traces) != 542:
        pytest.fail("%d lens spaces traced, not 542" % len(lens_field_traces))
    for (p, q), (defect, _) in lens_field_traces.items():
        if gi.signature_defect(p, q) != defect or gi.point_defect(p, 1, q) != defect:
            pytest.fail("L(%d,%d): Dedekind defect %s, field sum %s"
                        % (p, q, gi.signature_defect(p, q), defect))


@pytest.mark.parametrize("p", (5, 7))
def test_point_defect_matches_field_sum_on_every_pair(p):
    for a, b in product(range(1, p), repeat=2):
        want = field_trace(p, (cot_product(p, k * a, k * b) for k in range(1, p)))
        if gi.point_defect(p, a, b) != want:
            pytest.fail("point (%d,%d) mod %d: %s, field sum %s"
                        % (a, b, p, gi.point_defect(p, a, b), want))


def test_dedekind_reciprocity(lens_field_traces):
    for p, q in lens_field_traces:
        lhs = gi.dedekind_sum(q, p) + gi.dedekind_sum(p, q)
        rhs = (Fraction(q, p) + Fraction(p, q) + Fraction(1, p * q)) / 12 - Fraction(1, 4)
        if lhs != rhs:
            pytest.fail("s(%d,%d) + s(%d,%d) = %s, reciprocity gives %s"
                        % (q, p, p, q, lhs, rhs))


def test_dedekind_sum_values():
    # s(1, k) = (k - 1)(k - 2) / (12 k); s(h, k) depends on h mod k only
    for k in range(1, 30):
        if gi.dedekind_sum(1, k) != Fraction((k - 1) * (k - 2), 12 * k):
            pytest.fail("s(1,%d) = %s" % (k, gi.dedekind_sum(1, k)))
        if gi.dedekind_sum(k + 1, k) != gi.dedekind_sum(1, k):
            pytest.fail("s(%d,%d) != s(1,%d)" % (k + 1, k, k))
    if gi.dedekind_sum(2, 4) != 0 or gi.dedekind_sum(0, 5) != 0:
        pytest.fail("terms with hj = 0 mod k must vanish")
    with pytest.raises(ValueError):
        gi.dedekind_sum(1, 0)
    with pytest.raises(ValueError):
        gi.point_defect(5, 5, 1)
    with pytest.raises(ValueError):
        gi.point_defect(5, 1, 10)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_galois_trace_matches_sum_of_conjugates(p):
    rng = random.Random(p)
    samples = [CycNum(p, [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                          for _ in range(p - 1)]) for _ in range(30)]
    samples += [CycNum.rational(Fraction(-7, 3)), CycNum.rational(0)]
    for x in samples:
        want = field_trace(p, (x.galois(k) for k in range(1, p)))
        if gi.galois_trace(x, p) != want:
            pytest.fail("Tr(%r) = %s, sum of conjugates %s" % (x, gi.galois_trace(x, p), want))
    for bad_p in (1, 4, 9):
        with pytest.raises(ValueError):
            gi.galois_trace(CycNum.rational(1), bad_p)
    with pytest.raises(ValueError):
        gi.galois_trace(CycNum.zeta(13), 11)


def test_spin_trace_matches_point_term_sum(lens_field_traces):
    for (p, q), (_, spin) in lens_field_traces.items():
        if gi.point_spin_trace(p, q) != spin:
            pytest.fail("T(%d,%d) = %s, field sum %s" % (p, q, gi.point_spin_trace(p, q), spin))


# ---------------------------------------------------------------------------
# integer stage 1


def fraction_stage1(profile):
    """The group counts of census.stage1, with the signature equation
    compared as a sum of Fraction defects."""
    p = profile.p
    types = list(census.GROUP_TYPES[p])
    euler = [census.group_data(p, t, 1).euler_characteristic() for t in types]
    defect = [census.group_defect(p, t) for t in types]
    chi = profile.lefschetz_total()
    rhs = 16 - p * (profile.first.fixed_rank() + profile.second.fixed_rank())
    return tuple(n for n in product(*(range(chi // e + 1) for e in euler))
                 if sum(map(mul, n, euler)) == chi
                 and sum((d * k for d, k in zip(defect, n)), Fraction(0)) == rhs)


@pytest.mark.parametrize("p", (5, 7))
def test_integer_stage1_matches_fraction_sums(p):
    found = 0
    for profile in census.nontrivial_profiles(p):
        got, want = census.stage1(profile), fraction_stage1(profile)
        if got != want:
            pytest.fail("%s: stage 1 gives %r, the Fraction sums %r"
                        % (profile.label(), got, want))
        found += len(got)
    if not found:
        pytest.fail("no stage-1 solutions for p = %d" % p)


# ---------------------------------------------------------------------------
# the Rochlin eta certificate


def shifted(original, delta):
    return lambda *args: original(*args) + delta


@pytest.mark.parametrize("delta", (5, Fraction(1, 3)))
def test_corrupted_spin_trace_fires_rochlin(monkeypatch, delta):
    # T off by p moves the eta value by 8; off by 1/3 it is no integer
    monkeypatch.setattr(gi, "point_spin_trace", shifted(gi.point_spin_trace, delta))
    with pytest.raises(CheckFailure, match="eta form"):
        gi.rochlin(5, 1)


@pytest.mark.parametrize("delta", (2, Fraction(1, 8)))
def test_corrupted_dedekind_sum_fires_rochlin(monkeypatch, delta):
    # s off by 2 moves the eta value by 8; off by 1/8 it is no integer
    monkeypatch.setattr(gi, "dedekind_sum", shifted(gi.dedekind_sum, delta))
    with pytest.raises(CheckFailure, match="eta form"):
        gi.rochlin(7, 3)


def test_genuine_rochlin_passes():
    if {q: gi.rochlin(5, q) for q in (1, 2, 3, 4)} != {1: 4, 2: 0, 3: 0, 4: 12}:
        pytest.fail("mu(L(5, q)) = %r" % ({q: gi.rochlin(5, q) for q in range(1, 5)},))


@pytest.mark.parametrize("delta", (2, Fraction(1, 8)))
def test_corrupted_dedekind_sum_fires_trace_certificates(monkeypatch, delta):
    monkeypatch.setattr(gi, "dedekind_sum", shifted(gi.dedekind_sum, delta))
    with pytest.raises(CheckFailure, match="trace of its signature"):
        census.group_defect(5, "3")
    data = gi.FixedPointData(5, ((1, 2), (1, 4), (2, 2)))
    with pytest.raises(CheckFailure, match="trace of Sign"):
        gi.orbifold_signature(5, -16, data)


def test_genuine_defects_pass_trace_certificates():
    for p in (5, 7):
        for typ in census.GROUP_TYPES[p]:
            census.group_defect(p, typ)
    for cand in census.run_p5().candidates:
        data = cand.fixed_point_data()
        if not data.surfaces:
            gi.orbifold_signature(5, -16, data)


def expect_one_fail_line(code, out, err):
    if code != 1:
        pytest.fail("exit %r, not 1" % (code,))
    lines = err.splitlines()
    if out or len(lines) != 1 or not lines[0].startswith("FAIL: ") or "Traceback" in err:
        pytest.fail("unexpected output %r / %r" % (out, err))


def test_cli_census_fails_on_corrupted_spin_trace(monkeypatch, capsys):
    monkeypatch.setattr(gi, "point_spin_trace", shifted(gi.point_spin_trace, 5))
    code = cli.main(["census", "p5"])
    out, err = capsys.readouterr()
    expect_one_fail_line(code, out, err)
    if "eta form" not in err:
        pytest.fail("the failure is not the eta certificate: %r" % err)


def test_cli_census_fails_under_optimized_python(run_optimized):
    res = run_optimized("-c", "import sys\n"
                        "from k3census import cli, gindex as gi\n"
                        "trace = gi.point_spin_trace\n"
                        "gi.point_spin_trace = lambda p, q: trace(p, q) + p\n"
                        "sys.exit(cli.main(['census', 'p5']))")
    expect_one_fail_line(res.returncode, res.stdout, res.stderr)


def test_cli_census_fails_on_corrupted_dedekind_sum(monkeypatch, capsys):
    monkeypatch.setattr(gi, "dedekind_sum", shifted(gi.dedekind_sum, 2))
    code = cli.main(["census", "p5"])
    out, err = capsys.readouterr()
    expect_one_fail_line(code, out, err)
    if "trace of its signature" not in err:
        pytest.fail("the failure is not the defect certificate: %r" % err)


def test_cli_census_fails_without_stage1_solutions(monkeypatch, capsys):
    monkeypatch.setattr(census, "stage1", lambda profile: ())
    code = cli.main(["census", "p5"])
    out, err = capsys.readouterr()
    expect_one_fail_line(code, out, err)
