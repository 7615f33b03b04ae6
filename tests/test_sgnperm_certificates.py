"""Each symmetry reduction of the sgnperm searches rests on a certificate
checked when it runs: the class table of H (class_table), its
involution rows (against d8_involution_count), the even-pairing atoms
closed from the search starts d0 and pperm (four_a_prime_elements, against
the involution rows of the 4A' shape) and the conjugation orbits.  These
tests hand each certificate a broken input and expect CheckFailure, both
directly and through the command line, where it is exit 1 with no
traceback.

They check with pytest.raises and pytest.fail, never with the assert
statement, so they keep their meaning under `python -O -m pytest`."""

import pytest

from k3census import cli, sgnperm as sp
from k3census.errors import CheckFailure
from k3census.sgnperm import SignedPerm

D0, PPERM = sp._D0, sp._PPERM
SWAP_4_5 = SignedPerm((1, 2, 3, 5, 4, 6, 7, 8))    # does not commute with d0
IDENTITY = SignedPerm(tuple(range(1, 9)))


@pytest.fixture
def fresh_caches():
    """Clear the certified tables and atoms around a test that swaps their
    inputs."""
    cached = (sp.class_table, sp.involution_classes, sp.four_a_prime_elements)
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


def test_genuine_certificates_pass(monkeypatch, fresh_caches):
    certify(monkeypatch, sp._class_rows())
    if sp.even_pairing_starts() != (D0, PPERM):
        pytest.fail("starts %r" % (sp.even_pairing_starts(),))
    if len(sp.four_a_prime_elements()) != 910:
        pytest.fail("%d atoms" % len(sp.four_a_prime_elements()))
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
    i, j = row_of(rows, PPERM.image), row_of(rows, (-2, -1, 4, 3, 6, 5, 8, 7))
    rows[i], rows[j] = (rows[i][0], rows[j][1], rows[i][2]), (rows[j][0], rows[i][1], rows[j][2])
    with pytest.raises(CheckFailure, match="has key"):
        certify(monkeypatch, rows)


def test_involution_count_off_by_one_raises(monkeypatch, fresh_caches):
    """The involution rows against a count of one more involution."""
    count = sp.d8_involution_count() + 1
    monkeypatch.setattr(sp, "d8_involution_count", lambda: count)
    with pytest.raises(CheckFailure, match="involution class sizes add up to 17038, not 17039"):
        sp.involution_classes()


def test_start_orbits_are_the_classes_of_d0_and_pperm():
    """The 910 atoms split under conjugation_orbits into two orbits, with
    the class_table sizes of the class keys of d0 and pperm."""
    orbits = sp.conjugation_orbits(sp.four_a_prime_elements(), sp._conjugators(), IDENTITY)
    size = {key: n for key, _, n in sp.class_table()}
    for start in (D0, PPERM):
        got = [len(orbit) for orbit in orbits if start in orbit]
        want = size[start.class_conjugator()[0]]
        if got != [want]:
            pytest.fail("%r lies in orbits of sizes %r, its class has %d" % (start, got, want))
    if sorted(map(len, orbits)) != [70, 840]:
        pytest.fail("orbit sizes %r" % sorted(map(len, orbits)))


def atoms_from(monkeypatch, name, value):
    """four_a_prime_elements() certified with the module attribute `name`
    (a start, the conjugators or the involution rows) replaced by `value`."""
    monkeypatch.setattr(sp, name, value)
    return sp.four_a_prime_elements()


def test_start_outside_the_atoms_raises(monkeypatch, fresh_caches):
    """pperm replaced by the 4A involution of its signed cycle type: d0 and
    it are not one start per class of the 4A' shape."""
    with pytest.raises(CheckFailure, match=r"starts \[.*\(-2, -1, 4, .*not one per 4A'-shaped class"):
        atoms_from(monkeypatch, "_PPERM", SignedPerm((-2, -1, 4, 3, 6, 5, 8, 7)))


def test_missing_start_raises(monkeypatch, fresh_caches):
    """pperm replaced by an atom of d0's class: no start in pperm's."""
    other = SignedPerm.diagonal((1, 1, 1, 1, -1, -1, -1, -1))
    with pytest.raises(CheckFailure, match="not one per 4A'-shaped class"):
        atoms_from(monkeypatch, "_PPERM", other)


def test_transpositions_alone_raise(monkeypatch, fresh_caches):
    """The conjugators cut to the 7 adjacent transpositions: pperm's orbit
    is its 105 perfect matchings, not its class of 840."""
    cut = sp._conjugators()[:7]
    with pytest.raises(CheckFailure, match=r"have \[70, 105\] elements, their classes \[70, 840\]"):
        atoms_from(monkeypatch, "_conjugators", lambda: cut)


def test_third_shaped_row_raises(monkeypatch, fresh_caches):
    """One more involution row, of the 4A' shape: d0 and pperm no longer
    cover every shaped class."""
    rows = sp.involution_classes() + ((SignedPerm.diagonal((1, 1, 1, 1, -1, -1, -1, -1)), 70),)
    with pytest.raises(CheckFailure, match="3 involution classes have the 4A' shape, not 2"):
        atoms_from(monkeypatch, "involution_classes", lambda: rows)


def test_generator_not_commuting_with_center_raises():
    with pytest.raises(CheckFailure, match="does not commute"):
        sp.conjugation_orbits([D0], [SWAP_4_5], D0)


def test_point_set_not_closed_under_conjugation_raises():
    roots = sp.square_roots(D0)
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
    """The conjugators cut to the 7 adjacent transpositions: the closure of
    pperm misses 735 atoms of its class."""
    cut = sp._conjugators()[:7]
    monkeypatch.setattr(sp, "_conjugators", lambda: cut)
    expect_cli_failure(capsys, "verify", "theorem-1.7")


def test_cli_fails_on_a_non_commuting_generator(monkeypatch, capsys, fresh_caches):
    monkeypatch.setattr(sp, "centralizer_generators", lambda c: [SWAP_4_5])
    expect_cli_failure(capsys, "census", "q8")
