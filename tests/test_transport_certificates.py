"""reps.decompose_element carries each element of H to its class
representative and decomposes the representative once.  The transport rests
on a certificate checked when it runs: h g h^-1, for the conjugator h that
SignedPerm.class_conjugator returns, must be exactly the representative.
These tests hand that certificate a broken conjugator and a broken
representative and expect CheckFailure, directly and through the command
line, where it is exit 1 with no traceback.

They check with pytest.raises and pytest.fail, never with the assert
statement, so they keep their meaning under `python -O -m pytest`."""

import random

import pytest

from k3census import cli, reps, sgnperm as sp
from k3census.errors import CheckFailure
from k3census.sgnperm import SignedPerm
from conftest import rand_element

FLIP_1_2 = SignedPerm.diagonal((-1, -1, 1, 1, 1, 1, 1, 1))
SWAP_1_8 = SignedPerm.from_cycles([(1, 8)])


def elements():
    """The standard p-cycles and a conjugate of each with signs in its cycle."""
    out = []
    for p in (3, 5, 7):
        g = sp.std_cycle(p)
        out += [(g, p), (g.conjugated_by(SignedPerm((-2, -3, 1, 8, 7, 6, 5, 4))), p)]
    return out


@pytest.fixture(autouse=True)
def cold_class_decompositions():
    """Start and end every test with no cached class decomposition."""
    reps._class_decomposition.cache_clear()
    yield
    reps._class_decomposition.cache_clear()


def corrupt_conjugator(monkeypatch):
    """class_conjugator followed by the sign change on e1 and e2, which
    commutes with no representative of order 3, 5 or 7: each starts with
    the cycle e1 -> e2 -> e3 -> ..."""
    genuine = SignedPerm.class_conjugator

    def flipped(self):
        ctype, h = genuine(self)
        return ctype, FLIP_1_2 * h

    monkeypatch.setattr(SignedPerm, "class_conjugator", flipped)


def corrupt_representative(monkeypatch):
    """The genuine representative relabelled by the transposition (1 8): in
    the same class, but not where the conjugator lands."""
    genuine = sp.class_representative
    monkeypatch.setattr(reps, "class_representative",
                        lambda ctype: genuine(ctype).conjugated_by(SWAP_1_8))


def test_genuine_transport_passes():
    want = {3: (1, 5, 0), 5: (1, 3, 0), 7: (1, 1, 0)}
    for g, p in elements():
        got = reps.decompose_element(g, p).as_rts()
        if got != want[p]:
            pytest.fail("%r decomposes as %r, not %r" % (g, got, want[p]))


def test_corrupted_conjugator_raises(monkeypatch):
    corrupt_conjugator(monkeypatch)
    for g, p in elements():
        with pytest.raises(CheckFailure, match="does not carry"):
            reps.decompose_element(g, p)


def test_corrupted_representative_raises(monkeypatch):
    corrupt_representative(monkeypatch)
    for g, p in elements():
        with pytest.raises(CheckFailure, match="does not carry"):
            reps.decompose_element(g, p)


@pytest.mark.parametrize("corrupt", [corrupt_conjugator, corrupt_representative])
def test_cli_fails_on_a_broken_transport(monkeypatch, capsys, corrupt):
    corrupt(monkeypatch)
    code = cli.main(["verify", "lemma-6.5"])
    out, err = capsys.readouterr()
    if code != 1:
        pytest.fail("exit %r, not 1" % (code,))
    if out or not err.startswith("FAIL: ") or "Traceback" in err:
        pytest.fail("unexpected output %r / %r" % (out, err))


def conjugate_by_minus_e1(g):
    """d g d for d = diag(-1, 1, ..., 1), which lies outside H: the entry
    g(e_i) = s e_j becomes d_i d_j s e_j."""
    d = (-1,) + (1,) * 7
    return SignedPerm(tuple(d[i] * d[abs(t) - 1] * t for i, t in enumerate(g.image)))


def test_only_even_length_cycles_raise_value_error():
    """decompose_element still refuses an element with no odd-length cycle.
    class_conjugator no longer does: on both H-classes of each of the five
    split types (every cycle of even length and sign +1), and on seeded
    conjugates of them, it returns the element's own type record with the
    split bit of its class, and a conjugator in H onto the representative.
    The second class is reached from the first by conjugating with the
    sign change on e1, which is not in H."""
    for g in (SignedPerm.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)]),
              SignedPerm.from_cycles([(1, 2, 3, 4), (5, 6, 7, 8)], (-1, 1, 1, 1, -1, 1, 1, 1)),
              SignedPerm.from_cycles([(1, 2, 3, 4, 5, 6, 7, 8)])):
        with pytest.raises(ValueError):
            reps.decompose_element(g, 2)
    rng = random.Random(8128)
    for lengths in ((8,), (6, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)):
        starts = [sum(lengths[:k]) + 1 for k in range(len(lengths))]
        first = SignedPerm.from_cycles([tuple(range(a, a + n)) for a, n in zip(starts, lengths)])
        for bit, g in enumerate((first, conjugate_by_minus_e1(first))):
            for x in [g] + [g.conjugated_by(rand_element(rng)) for _ in range(20)]:
                key, h = x.class_conjugator()
                if key[0] is not x._ctype or key[1] != bit:
                    pytest.fail("%r: key %r, want split bit %d" % (x, key, bit))
                if x.conjugated_by(h) != sp.class_representative(key):
                    pytest.fail("%r: %r does not carry it to its representative" % (x, h))
