"""The class table of H against independent routes: seeded elements carried
to their row's representative, class keys kept under random conjugation,
each representative its own class's fixed point, small classes counted by
orbit closure under generators of H, and the involution rows counted over
every involution.

They check with pytest.fail, never with the assert statement, so they keep
their meaning under `python -O -m pytest`."""

from collections import Counter

import pytest

from k3census import sgnperm as sp
from k3census.sgnperm import SignedPerm
from test_sgnperm_oracles import (reference_all_involutions, reference_signed_cycles,
                                  seeded_elements)

# generators of H: the 7 adjacent transpositions and one double sign change
GENERATORS = ([SignedPerm.from_cycles([(i, i + 1)]) for i in range(1, 8)]
              + [SignedPerm.diagonal((-1, -1, 1, 1, 1, 1, 1, 1))])


def test_table_has_100_classes_of_95_types_adding_up_to_h():
    rows = sp.class_table()
    types = {key[0] for key, _, _ in rows}
    splits = sorted(tuple(length for length, _ in ctype) for ctype, bit in
                    (key for key, _, _ in rows) if bit)
    if len(rows) != 100 or len(types) != 95:
        pytest.fail("%d rows of %d types" % (len(rows), len(types)))
    if sum(n for _, _, n in rows) != 5160960:
        pytest.fail("sizes add up to %d" % sum(n for _, _, n in rows))
    if splits != [(2, 2, 2, 2), (2, 2, 4), (2, 6), (4, 4), (8,)]:
        pytest.fail("split types %r" % (splits,))


def test_seeded_elements_reach_their_row_representative():
    """On 10^4 seeded elements, half of them walked by cycle_type() first:
    the key holds the element's own cached type record, which is the
    reference signed cycle type, h g h^-1 is the row's representative, and
    a random conjugate has the same key."""
    reps = {key: rep for key, rep, _ in sp.class_table()}
    elements = seeded_elements(10_000, seed=2121)
    for n, (g, x) in enumerate(zip(elements, elements[1:] + elements[:1])):
        if n % 2:
            g.cycle_type()
        key, h = g.class_conjugator()
        if key[0] is not g._ctype or key[0] is not g.cycle_type():
            pytest.fail("%r: the key does not hold the cached type record" % (g,))
        if key[0] != tuple(sorted((len(c), s) for c, s in reference_signed_cycles(g))):
            pytest.fail("%r: key %r, not the reference type" % (g, key))
        if g.conjugated_by(h) != reps[key]:
            pytest.fail("%r: %r does not carry it to the representative of %r" % (g, h, key))
        if g.conjugated_by(x).class_conjugator()[0] != key:
            pytest.fail("%r: its conjugate by %r has another key" % (g, x))


def test_every_representative_maps_to_itself():
    for key, rep, _ in sp.class_table():
        own, h = rep.class_conjugator()
        if own != key or rep.conjugated_by(h) != rep:
            pytest.fail("%r: key %r, carried to %r" % (rep, own, rep.conjugated_by(h)))


def test_small_class_sizes_match_orbit_closure():
    """Every class of at most 3000 elements, grown by conjugation under the
    generators of H until it closes."""
    checked = 0
    for key, rep, size in sp.class_table():
        if size > 3000:
            continue
        orbit, frontier = {rep}, [rep]
        while frontier:
            y = frontier.pop()
            for g in GENERATORS:
                z = y.conjugated_by(g)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        if len(orbit) != size:
            pytest.fail("%r: orbit of %d elements, table size %d" % (key, len(orbit), size))
        checked += 1
    if checked < 20:
        pytest.fail("only %d classes checked" % checked)


def test_involution_rows_match_brute_force_counts():
    """The 14 involution rows against every involution of H but +-1,
    counted per class key."""
    rows = {v.class_conjugator()[0]: n for v, n in sp.involution_classes()}
    counts = Counter(v.class_conjugator()[0] for v in reference_all_involutions())
    if len(rows) != 14 or sum(rows.values()) != 17038 or dict(counts) != rows:
        pytest.fail("rows %r, counted %r" % (rows, dict(counts)))
