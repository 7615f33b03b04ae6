"""Each symmetry reduction of the sgnperm searches rests on a certificate
checked when it runs.  These tests hand each certificate a broken input and
expect CheckFailure, both directly and through the command line, where it
is exit 1 with no traceback.

They check with pytest.raises and pytest.fail, never with the assert
statement, so they keep their meaning under `python -O -m pytest`."""

import pytest

from k3census import cli, sgnperm as sp
from k3census.errors import CheckFailure

D0 = (-1, -2, -3, -4, 5, 6, 7, 8)
SWAP_4_5 = (1, 2, 3, 5, 4, 6, 7, 8)    # does not commute with d0


@pytest.fixture
def fresh_caches():
    """Clear the certified tables around a test that swaps their inputs."""
    cached = (sp.involution_classes, sp.even_pairing_starts)
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
        f.cache_clear()


def expect_cli_failure(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    if code != 1:
        pytest.fail("exit %r, not 1, for %r" % (code, argv))
    if out or not err.startswith("FAIL: ") or err.count("\n") != 1 or "Traceback" in err:
        pytest.fail("unexpected output %r / %r" % (out, err))


def off_by_one_table():
    table = list(sp._involution_class_table())
    v, n = table[5]
    table[5] = (v, n + 1)
    return tuple(table)


def atoms():
    return [v.image for v in sp.four_a_prime_elements()]


def test_genuine_certificates_pass():
    sp.check_involution_classes(sp._involution_class_table())
    sp.check_start_classes(atoms(), (D0, sp._PPERM))
    sp.conjugation_orbits([D0], sp.centralizer_generators(D0), D0)


def test_class_size_off_by_one_raises():
    with pytest.raises(CheckFailure, match="add up to 17039"):
        sp.check_involution_classes(off_by_one_table())


def test_missing_class_raises():
    with pytest.raises(CheckFailure, match="add up to"):
        sp.check_involution_classes(sp._involution_class_table()[1:])


def test_two_representatives_of_one_type_raise():
    table = list(sp._involution_class_table())
    (v, n), (_, m) = table[0], table[1]
    table[0:2] = [(v, n + m - 1), (sp.SignedPerm((1, 2, 3, 4, 5, 6, -8, -7)), 1)]
    with pytest.raises(CheckFailure, match="share a type"):
        sp.check_involution_classes(table)


def test_non_involution_representative_raises():
    table = list(sp._involution_class_table())
    table[0] = (sp.SignedPerm((2, 3, 1, 4, 5, 6, 7, 8)), table[0][1])
    with pytest.raises(CheckFailure, match="not an involution"):
        sp.check_involution_classes(table)


def test_atom_list_missing_an_atom_raises():
    with pytest.raises(CheckFailure, match="atoms per class"):
        sp.check_start_classes(atoms()[1:], (D0, sp._PPERM))


def test_atom_of_an_uncovered_class_raises():
    with pytest.raises(CheckFailure, match="conjugate to no starting element"):
        sp.check_start_classes(atoms() + [(-1, -2, 3, 4, 5, 6, 7, 8)], (D0, sp._PPERM))


def test_missing_start_raises():
    with pytest.raises(CheckFailure, match="conjugate to no starting element"):
        sp.check_start_classes(atoms(), (D0,))


def test_generator_not_commuting_with_center_raises():
    with pytest.raises(CheckFailure, match="does not commute"):
        sp.conjugation_orbits([D0], [SWAP_4_5], D0)


def test_point_set_not_closed_under_conjugation_raises():
    roots = [v.image for v in sp.square_roots(sp.SignedPerm(D0))]
    with pytest.raises(CheckFailure, match="leaves the point set"):
        sp.conjugation_orbits(roots[1:], sp.centralizer_generators(D0), D0)


def test_cli_fails_on_a_bad_class_table(monkeypatch, capsys, fresh_caches):
    table = off_by_one_table()
    monkeypatch.setattr(sp, "_involution_class_table", lambda: table)
    expect_cli_failure(capsys, "verify", "lemma-5.2")


def test_cli_fails_on_a_missing_atom(monkeypatch, capsys, fresh_caches):
    short = sp.four_a_prime_elements()[1:]
    monkeypatch.setattr(sp, "four_a_prime_elements", lambda: short)
    expect_cli_failure(capsys, "verify", "theorem-1.7")


def test_cli_fails_on_a_non_commuting_generator(monkeypatch, capsys, fresh_caches):
    monkeypatch.setattr(sp, "centralizer_generators", lambda c: [SWAP_4_5])
    expect_cli_failure(capsys, "census", "q8")
