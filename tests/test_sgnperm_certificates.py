"""Each symmetry reduction of the sgnperm searches rests on a certificate
checked when it runs: the class table of H (class_table), its
involution rows (against d8_involution_count), the start classes and the
conjugation orbits.  These tests hand each certificate a broken input and
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
    cached = (sp.class_table, sp.involution_classes, sp.even_pairing_starts)
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
    rows = sp._class_rows()
    key, v, n = rows[5]
    rows[5] = (key, v, n + 1)
    return rows


def certify(monkeypatch, rows):
    """class_table() built from the rows `rows`, with its certificate."""
    monkeypatch.setattr(sp, "_class_rows", lambda: rows)
    return sp.class_table()


def row_of(rows, want):
    """Index of the first row whose representative has the image `want`."""
    return next(i for i, (_, v, _) in enumerate(rows) if v.image == want)


def atoms():
    return [v.image for v in sp.four_a_prime_elements()]


def test_genuine_certificates_pass(monkeypatch, fresh_caches):
    certify(monkeypatch, sp._class_rows())
    sp.check_start_classes(atoms(), (D0, sp._PPERM))
    sp.conjugation_orbits([D0], sp.centralizer_generators(D0), D0)


def test_class_size_off_by_one_raises(monkeypatch, fresh_caches):
    with pytest.raises(CheckFailure, match="add up to 5160961"):
        certify(monkeypatch, off_by_one_table())


def test_missing_class_raises(monkeypatch, fresh_caches):
    with pytest.raises(CheckFailure, match="99 rows"):
        certify(monkeypatch, sp._class_rows()[1:])


def test_two_representatives_of_one_type_raise(monkeypatch, fresh_caches):
    """Two rows with one class key: 100 rows, 99 keys."""
    rows = sp._class_rows()
    rows[1] = (rows[0][0],) + rows[1][1:]
    with pytest.raises(CheckFailure, match="100 rows with 99 distinct keys"):
        certify(monkeypatch, rows)


def test_non_involution_representative_raises(monkeypatch, fresh_caches):
    """A 3-cycle in the row of the involution (1 2)(3 4)."""
    rows = sp._class_rows()
    i = row_of(rows, (2, 1, 4, 3, 5, 6, 7, 8))
    rows[i] = (rows[i][0], sp.SignedPerm((2, 3, 1, 4, 5, 6, 7, 8)), rows[i][2])
    with pytest.raises(CheckFailure, match="has key"):
        certify(monkeypatch, rows)


def test_representative_of_the_other_split_class_raises(monkeypatch, fresh_caches):
    """The two classes of four transpositions with their representatives
    swapped: right type, wrong split bit."""
    rows = sp._class_rows()
    i, j = row_of(rows, sp._PPERM), row_of(rows, (-2, -1, 4, 3, 6, 5, 8, 7))
    rows[i], rows[j] = (rows[i][0], rows[j][1], rows[i][2]), (rows[j][0], rows[i][1], rows[j][2])
    with pytest.raises(CheckFailure, match="has key"):
        certify(monkeypatch, rows)


def test_involution_count_off_by_one_raises(monkeypatch, fresh_caches):
    """The involution rows against a count of one more involution."""
    count = sp.d8_involution_count() + 1
    monkeypatch.setattr(sp, "d8_involution_count", lambda: count)
    with pytest.raises(CheckFailure, match="involution class sizes add up to 17038, not 17039"):
        sp.involution_classes()


def test_repeated_atom_raises():
    with pytest.raises(CheckFailure, match="not among distinct atoms"):
        sp.check_start_classes(atoms() + atoms()[:1], (D0, sp._PPERM))


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
    rows = off_by_one_table()
    monkeypatch.setattr(sp, "_class_rows", lambda: rows)
    expect_cli_failure(capsys, "verify", "lemma-5.2")


def test_cli_fails_on_a_bad_involution_count(monkeypatch, capsys, fresh_caches):
    count = sp.d8_involution_count() + 1
    monkeypatch.setattr(sp, "d8_involution_count", lambda: count)
    expect_cli_failure(capsys, "verify", "lemma-5.2")


def test_cli_fails_on_a_missing_atom(monkeypatch, capsys, fresh_caches):
    short = sp.four_a_prime_elements()[1:]
    monkeypatch.setattr(sp, "four_a_prime_elements", lambda: short)
    expect_cli_failure(capsys, "verify", "theorem-1.7")


def test_cli_fails_on_a_non_commuting_generator(monkeypatch, capsys, fresh_caches):
    monkeypatch.setattr(sp, "centralizer_generators", lambda c: [SWAP_4_5])
    expect_cli_failure(capsys, "census", "q8")
