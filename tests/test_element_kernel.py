"""The H element kernel against the routes it replaced: the constructor's
one-pass letter-code check against the old set-and-product check, the
cached signed cycle type against a fresh walk, the type record's order,
charpoly and trace against the type functions and a two-scan trace,
involution_class against classifying -v through the product
minus_one() * v and against the record built field by field, products,
inverses and conjugates (translates of byte tables, unchecked) against the
image comprehension, the checking constructor and the tuple-table gather
and dictionary routes, the byte table against the image on every
construction route, the coded cycle walk on every class representative,
trace() against two scans, and the compress-selected fixed roots against a
generator over the lane bytes.

They check with pytest.raises and pytest.fail, never with the assert
statement, so they keep their meaning under `python -O -m pytest`."""

import pickle
import random
from math import prod
from operator import eq, getitem

import pytest

from k3census import e8, sgnperm as sp
from k3census.sgnperm import InvolutionClass, SignedPerm
from test_sgnperm_oracles import (byte_table, reference_all_involutions,
                                  reference_signed_cycles, seeded_elements,
                                  signed_cycle_type_representatives, tuple_product,
                                  tuple_table)

LETTERS = frozenset(range(1, 9))
NOT_LETTERS = "not a signed permutation of 8 letters"
ODD_SIGNS = "sign product must be +1 (lattice preservation)"


def reference_check(image):
    """The constructor's old check: the error message it raised, or None."""
    if len(image) != 8 or set(map(abs, image)) != LETTERS:
        return NOT_LETTERS
    if prod(image) < 0:
        return ODD_SIGNS
    return None


def constructor_outcome(image):
    try:
        SignedPerm(image)
    except ValueError as exc:
        return str(exc)
    return None


def compare_checks(cases):
    """(number of cases, number accepted, count per message); fails on the
    first tuple where the constructor and the reference disagree."""
    accepted = 0
    seen = {NOT_LETTERS: 0, ODD_SIGNS: 0}
    for image in cases:
        want = reference_check(image)
        got = constructor_outcome(image)
        if got != want:
            pytest.fail("%r: constructor says %r, reference %r" % (image, got, want))
        if want is None:
            accepted += 1
        else:
            seen[want] += 1
    return accepted, seen


def test_constructor_matches_the_old_check_on_random_tuples():
    rng = random.Random(1515)
    cases = [tuple(rng.randint(-10, 10) for _ in range(rng.randint(7, 9)))
             for _ in range(200_000)]
    accepted, seen = compare_checks(cases)
    # a uniform length-8 tuple is a signed permutation with odds 8! 2^8 / 21^8
    if accepted == 0 or 0 in seen.values():
        pytest.fail("cases do not reach every outcome: %d accepted, %r" % (accepted, seen))


def test_constructor_matches_the_old_check_on_substitutions():
    """Every entry of 3000 seeded elements replaced in turn by each value in
    -10..10: one repeated letter, a letter out of range, a zero, a flipped
    sign, or the entry itself."""
    cases = []
    for g in seeded_elements(3000, seed=1516):
        image = g.image
        for i in range(8):
            for x in range(-10, 11):
                cases.append(image[:i] + (x,) + image[i + 1:])
    if len(cases) != 504_000:
        pytest.fail("%d substitutions" % len(cases))
    accepted, seen = compare_checks(cases)
    # x = image[i] gives the element back, x = -image[i] flips one sign
    if accepted != 24_000 or seen[ODD_SIGNS] != 24_000:
        pytest.fail("%d accepted, %r" % (accepted, seen))


def test_constructor_rejects_other_lengths_and_non_letters():
    cases = [(), (1,) * 8, tuple(range(1, 8)), tuple(range(1, 10)), (0, 2, 3, 4, 5, 6, 7, 8),
             (1, 2, 3, 4, 5, 6, 7, 9), (1, 2, 3, 4, 5, 6, 7, 7), (1, 2, 3, 4, 5, 6, 7, -7),
             (1, 2, 4, 4, 5, 6, 8, 8), (128, 2, 3, 4, 5, 6, 7, 8), (256, 2, 3, 4, 5, 6, 7, 8),
             (-1, 2, 3, 4, 5, 6, 7, 8)]
    compare_checks(cases)
    with pytest.raises(TypeError):
        SignedPerm(None)


# ---------------------------------------------------------------------------
# the cached signed cycle type


def reference_walk(g):
    """Sorted (length, sign product) over the cycles of the permutation part
    of g, from the reference decomposition into signed cycles."""
    return tuple(sorted((len(cyc), sign) for cyc, sign in reference_signed_cycles(g)))


def kernel_inputs():
    """10^4 seeded elements with the product, inverse and conjugate of
    neighbours, each freshly constructed."""
    gs = seeded_elements(10_000, seed=1517)
    out = list(gs)
    for g, h in zip(gs, gs[1:] + gs[:1]):
        out += [g * h, g.inverse(), g.conjugated_by(h)]
    return out


def test_cached_cycle_type_matches_a_fresh_walk():
    """Checks only the records these inputs meet, so a table outside H that
    another test walks in the same process cannot make it fail."""
    table_types = {key[0]: key[0] for key, _, _ in sp.class_table()}
    shared = {}
    for g in kernel_inputs():
        if g._ctype is not None:
            pytest.fail("%r has a cycle type before the first call" % (g,))
        ctype = g.cycle_type()
        if ctype != reference_walk(g):
            pytest.fail("%r: cycle type %r, walk %r" % (g, ctype, reference_walk(g)))
        if g._ctype is not ctype or g.cycle_type() is not ctype:
            pytest.fail("%r: the cycle type is not cached" % (g,))
        if shared.setdefault(ctype, ctype) is not ctype:
            pytest.fail("%r: its cached type is not the tuple shared by its type" % (g,))
    # the seeded inputs meet 88 of the 95 signed cycle types of H, and each
    # record met is the one that class_table() holds for its type
    if len(shared) != 88 or len(table_types) != 95:
        pytest.fail("%d types met, %d in the class table" % (len(shared), len(table_types)))
    for ctype in shared:
        if table_types.get(ctype) is not ctype:
            pytest.fail("%r is not the class table's record of its type" % (ctype,))


def reference_code(ctype):
    """The type code counted per (length, sign): nibble 2 (L - 1) + [s = -1]
    holds the number of cycles of length L and sign s."""
    counts = {}
    for length, sign in ctype:
        counts[length, sign] = counts.get((length, sign), 0) + 1
    return sum(n * 16 ** (2 * (length - 1) + (sign < 0)) for (length, sign), n in counts.items())


def test_coded_walk_matches_the_reference_on_every_class():
    """The walk's integer code, on an unwalked copy of each of the 100
    class_table() representatives: the record it finds equals the reference
    walk and is the row's own record, interned under the reference code; the
    95 types have 95 distinct codes."""
    codes = set()
    for key, rep, _ in sp.class_table():
        fresh = sp._from_table(rep._e)
        ctype = fresh.cycle_type()
        if ctype != reference_walk(rep) or ctype is not key[0]:
            pytest.fail("%r: the coded walk gives %r, the reference %r"
                        % (rep, ctype, reference_walk(rep)))
        code = reference_code(ctype)
        if sp._type_code(ctype) != code or sp._signed_types.get(code) is not ctype:
            pytest.fail("%r: %r is not interned under code %#x" % (rep, ctype, code))
        codes.add(code)
    if len(codes) != 95:
        pytest.fail("%d codes for the 95 signed cycle types" % len(codes))


def test_order_and_charpoly_share_the_walk():
    for g in seeded_elements(200, seed=1518):
        order = g.order()
        ctype = g._ctype
        if ctype is None or ctype != reference_walk(g):
            pytest.fail("%r: order() left the cache at %r" % (g, ctype))
        if g.charpoly() != sp._type_charpoly(ctype) or order != sp._type_order(ctype):
            pytest.fail("%r: order or charpoly disagree with the cached type" % (g,))
        if g._ctype is not ctype:
            pytest.fail("%r: charpoly() walked again" % (g,))


def test_slots_cannot_be_assigned_from_outside():
    g = seeded_elements(1, seed=1519)[0]
    g.cycle_type()
    for name, value in (("image", tuple(range(1, 9))), ("_e", sp._LETTERS),
                        ("_ctype", ((8, 1),)), ("_ctype", None)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
        with pytest.raises(AttributeError):
            delattr(g, name)
    with pytest.raises(AttributeError):
        g.other = 1
    if g.cycle_type() != reference_walk(g) or g._e != byte_table(g.image):
        pytest.fail("a refused assignment changed the cycle type or the table")


def test_pickle_eq_hash_and_repr_ignore_the_cache():
    for g in seeded_elements(300, seed=1520):
        fresh = SignedPerm(g.image)
        g.cycle_type()
        if g != fresh or hash(g) != hash(fresh) or hash(g) != hash((g.image,)):
            pytest.fail("%r: eq or hash depends on the cache" % (g,))
        if repr(g) != repr(fresh) or g.__reduce__() != fresh.__reduce__():
            pytest.fail("%r: repr or reduce depends on the cache" % (g,))
        back = pickle.loads(pickle.dumps(g))
        if back != g or back._ctype is not None or back.cycle_type() != g.cycle_type():
            pytest.fail("%r: pickle round trip gives %r" % (g, back))


def test_eq_hash_repr_and_pickle_follow_the_table():
    """An element filled from a table by the unchecked constructor
    compares, hashes, prints and pickles as the checked element of that
    table's image, the hash being that of the 1-tuple of the image; an
    element with another table compares unequal."""
    gs = seeded_elements(300, seed=2001)
    for g, h in zip(gs, gs[1:] + gs[:1]):
        twin = sp._from_table(g._e)
        if twin != g or hash(twin) != hash((g.image,)) or repr(twin) != repr(g):
            pytest.fail("%r: eq, hash or repr does not follow the table" % (g,))
        if pickle.dumps(twin) != pickle.dumps(SignedPerm(g.image)):
            pytest.fail("%r: the pickle differs from the checked element's" % (g,))
        if pickle.loads(pickle.dumps(twin))._e != g._e:
            pytest.fail("%r: unpickling does not rebuild the table" % (g,))
        if (g == h) != (g._e == h._e) or (g != h) == (g._e == h._e):
            pytest.fail("%r, %r: eq disagrees with the tables" % (g, h))


# ---------------------------------------------------------------------------
# involution classes without the -1 product


def reference_involution_class(v):
    """The old route: at l(v) > 4 classify -v = minus_one() * v instead,
    witness included."""
    lv = (8 - v.trace()) // 2
    negated = False
    if lv > 4:
        v = SignedPerm.minus_one() * v
        lv = 8 - lv
        negated = True
    w = sp.parity_witness(v)
    if lv <= 3:
        return InvolutionClass({1: "1A'", 2: "2A", 3: "3A"}[lv], lv, negated, w)
    return InvolutionClass("4A" if w is not None else "4A'", 4, negated, w)


def test_involution_class_matches_the_minus_one_route():
    n = negated = 0
    for v in reference_all_involutions():
        got, want = sp.involution_class(v), reference_involution_class(v)
        if got != want:
            pytest.fail("%r: %r, the -1 route gives %r" % (v, got, want))
        n += 1
        negated += want.negated
    if (n, negated) != (17038, 5124):
        pytest.fail("%d involutions, %d negated" % (n, negated))


def reference_record(v):
    """The record of an involution built field by field from its two-scan
    trace and its parity_witness, as involution_class built it before
    records were shared and before one lane sum gave trace and witness."""
    lv = (8 - reference_trace(v)) // 2
    negated = lv > 4
    if negated:
        lv = 8 - lv
    w = sp.parity_witness(v)
    if lv <= 3:
        return InvolutionClass({1: "1A'", 2: "2A", 3: "3A"}[lv], lv, negated, w)
    return InvolutionClass("4A" if w is not None else "4A'", 4, negated, w)


def test_involution_class_matches_the_field_by_field_record():
    for v in reference_all_involutions():
        got, want = sp.involution_class(v), reference_record(v)
        if got != want:
            pytest.fail("%r: %r, field by field %r" % (v, got, want))


def test_involution_records_are_shared_per_key():
    shared = {}
    for v in reference_all_involutions():
        got = sp.involution_class(v)
        if shared.setdefault((v.trace(), sp.parity_witness(v)), got) is not got:
            pytest.fail("%r: equal keys give two records" % (v,))
    size = sp._involution_record.cache_info().currsize
    if not len(shared) <= size <= 7 * 241:
        pytest.fail("%d keys met, %d records cached" % (len(shared), size))
    with pytest.raises(AttributeError):
        got.label = "2A"


def test_involution_record_keys_match_parity_witness():
    """The record of every involution of H but +-1 is the one cached under
    (trace, byte index of parity_witness in enumerate_roots, -1 for None),
    and its witness is parity_witness's."""
    roots = e8.enumerate_roots()
    for v in reference_all_involutions():
        got, w = sp.involution_class(v), sp.parity_witness(v)
        k = roots.index(w) if w is not None else -1
        if got.witness != w or sp._involution_record(v.trace(), k) is not got:
            pytest.fail("%r: record %r, key (%d, %d), witness %r" % (v, got, v.trace(), k, w))


# ---------------------------------------------------------------------------
# products and inverses trusted by closure, lane traces, fixed roots


def reference_product(g, h):
    return SignedPerm(tuple_product(g.image, h.image))


def reference_inverse(g):
    """The inverse through the checking constructor: e_j goes back to
    +-e_i where g sends e_i to +-e_j."""
    out = [0] * 8
    for i, t in enumerate(g.image):
        out[abs(t) - 1] = (i + 1) if t > 0 else -(i + 1)
    return SignedPerm(tuple(out))


def expect_checked(got, want, what):
    """got must equal the checked want, with its signed table, be a plain
    SignedPerm with a tuple image, and leave its cycle type for the first
    call."""
    if got != want or got.image != want.image or got._e != want._e \
            or type(got) is not SignedPerm or type(got.image) is not tuple:
        pytest.fail("%s: %r, checked route %r" % (what, got, want))
    if got._ctype is not None:
        pytest.fail("%s: %r has a cycle type before the first call" % (what, got))


def test_products_inverses_and_conjugates_match_the_checking_constructor():
    xs = kernel_inputs()
    for g, h in zip(xs, xs[1:] + xs[:1]):
        g.cycle_type()  # a filled cache on a factor must not reach the result
        expect_checked(g * h, reference_product(g, h), "%r * %r" % (g, h))
        expect_checked(g.inverse(), reference_inverse(g), "%r inverse" % (g,))
        want = reference_product(reference_product(h, g), reference_inverse(h))
        expect_checked(g.conjugated_by(h), want, "%r conjugated by %r" % (g, h))


def old_inverse(image):
    """The inverse image tuple by the loop the package used before inverses
    became a gather of the signed table."""
    out = [0] * 8
    for i, t in enumerate(image, 1):
        if t > 0:
            out[t - 1] = i
        else:
            out[-t - 1] = -i
    return tuple(out)


def test_gathers_match_the_image_comprehension():
    """Product, inverse and conjugate images against the comprehension and
    loop they replaced, on kernel_inputs() and on 10^4 further seeded
    elements."""
    xs = kernel_inputs() + seeded_elements(10_000, seed=2002)
    for g, h in zip(xs, xs[1:] + xs[:1]):
        a, b = g.image, h.image
        if (g * h).image != tuple_product(a, b):
            pytest.fail("%r * %r: %r" % (g, h, g * h))
        if g.inverse().image != old_inverse(a):
            pytest.fail("%r: inverse %r" % (g, g.inverse()))
        if g.conjugated_by(h).image != tuple_product(tuple_product(b, a), old_inverse(b)):
            pytest.fail("%r conjugated by %r: %r" % (g, h, g.conjugated_by(h)))


LETTER_ORDER = tuple_table(tuple(range(1, 9)))


def scatter(letters, values):
    """The 17-tuple that sends letters[k] to values[k], in table order: the
    dictionary route the package inverted and conjugated tuple tables by
    before tables became bytes."""
    pairs = dict(zip(letters, values))
    return tuple(pairs[t] for t in LETTER_ORDER)


def test_translate_and_maketrans_match_the_tuple_routes():
    """On kernel_inputs(): the translate product against tuple_product and
    the gather of tuple tables, and the maketrans inverse and conjugate
    against scatter, each as its byte encoding."""
    xs = kernel_inputs()
    for g, h in zip(xs, xs[1:] + xs[:1]):
        tg, th = tuple_table(g.image), tuple_table(h.image)
        product = tuple(tg[t] for t in th)
        if (g * h)._e != byte_table(product[1:9]) or product[1:9] != tuple_product(g.image, h.image):
            pytest.fail("%r * %r: table %r, gather %r" % (g, h, (g * h)._e, product))
        if g.inverse()._e != byte_table(scatter(tg, LETTER_ORDER)[1:9]):
            pytest.fail("%r: inverse table %r" % (g, g.inverse()._e))
        conj = scatter(th, tuple(th[t] for t in tg))
        if g.conjugated_by(h)._e != byte_table(conj[1:9]):
            pytest.fail("%r conjugated by %r: table %r" % (g, h, g.conjugated_by(h)._e))


def test_is_involution_matches_the_image_route():
    """is_involution (one translate of the table by itself) against the
    image test it replaced, on kernel_inputs(), every involution of H but
    +-1, and +-1 themselves."""
    ident = tuple(range(1, 9))
    xs = kernel_inputs() + list(reference_all_involutions())
    xs += [SignedPerm(ident), SignedPerm.minus_one()]
    n = 0
    for g in xs:
        want = g.image != ident and tuple_product(g.image, g.image) == ident
        if g.is_involution() != want:
            pytest.fail("%r: is_involution() is %r" % (g, g.is_involution()))
        n += want
    if SignedPerm(ident).is_involution() or not SignedPerm.minus_one().is_involution():
        pytest.fail("+-1 misjudged")
    if n < 17039:
        pytest.fail("only %d involutions met" % n)


def test_conjugation_orbits_under_an_element_of_order_three():
    """conjugation_orbits against orbits closed by image products, with a
    generator that is not its own inverse: the 3-cycle (1 2 3) acting on
    the conjugates of seeded elements (its centralizer holds the center
    diag(1, 1, 1, -1, -1, 1, 1, 1))."""
    g = SignedPerm.from_cycles([(1, 2, 3)])
    g_inv = g.inverse().image
    center = SignedPerm((1, 2, 3, -4, -5, 6, 7, 8))
    points = []
    for x in seeded_elements(40, seed=2005):
        y = x.image
        for _ in range(3):
            if y not in points:
                points.append(y)
            y = tuple_product(tuple_product(g.image, y), g_inv)
    want, seen = [], set()
    for x in points:
        if x not in seen:
            orbit, y = [], x
            while y not in orbit:
                orbit.append(y)
                y = tuple_product(tuple_product(g.image, y), g_inv)
            seen.update(orbit)
            want.append(orbit)
    got = sp.conjugation_orbits(list(map(SignedPerm, points)), [g], center)
    if [[x.image for x in orbit] for orbit in got] != want:
        pytest.fail("orbits under (1 2 3) differ from the product closure")


def expect_table(g, what):
    """g._e must be 17 bytes reading 0 at 0 and +-image[t-1] mod 17 at +-t."""
    e, image = g._e, g.image
    if type(e) is not bytes or len(e) != 17 or e[0] != 0:
        pytest.fail("%s: %r has table %r" % (what, g, e))
    for t in range(1, 9):
        if e[t] != image[t - 1] % 17 or e[-t] != -image[t - 1] % 17:
            pytest.fail("%s: %r has table %r" % (what, g, e))


def test_signed_table_matches_the_image_on_every_route():
    gs = seeded_elements(2000, seed=2003)
    rng = random.Random(2004)
    for g, h in zip(gs, gs[1:] + gs[:1]):
        perm, eps = g.perm(), g.eps()
        expect_table(SignedPerm(g.image), "constructor")
        expect_table(SignedPerm(list(g.image)), "constructor on a list")
        expect_table(SignedPerm.from_eps_perm(eps, perm), "from_eps_perm")
        signs = [rng.choice((1, -1)) for _ in range(8)]
        signs[7] *= prod(signs)
        expect_table(SignedPerm.diagonal(signs), "diagonal")
        cycles = [tuple(j + 1 for j in cyc) for cyc in sp._cycles(perm)]
        expect_table(SignedPerm.from_cycles(cycles, eps), "from_cycles")
        expect_table(pickle.loads(pickle.dumps(g)), "unpickling")
        expect_table(g * h, "product")
        expect_table(g.inverse(), "inverse")
        expect_table(g.conjugated_by(h), "conjugate")
        expect_table(g.class_conjugator()[1], "class_conjugator")
    for g in (SignedPerm.minus_one(), *sp.four_a_prime_elements(),
              *sp.square_roots(sp._D0)):
        expect_table(g, "package element")


def test_type_records_carry_order_charpoly_and_trace():
    """On the 95 class representatives (built and class_representative):
    the record's fields equal the type functions and the two-scan trace,
    the record is the one interned for its type, and it is equal,
    hash-equal and repr-equal to the plain tuple."""
    for g in class_representatives():
        ctype = g.cycle_type()
        plain = tuple(ctype)
        if type(ctype) is not sp._SignedType \
                or sp._signed_types[sp._type_code(plain)] is not ctype:
            pytest.fail("%r: %r is not the interned record" % (g, ctype))
        if ctype != plain or hash(ctype) != hash(plain) or repr(ctype) != repr(plain):
            pytest.fail("%r: the record differs from the plain tuple" % (g,))
        trace = reference_trace(g)
        if (ctype.order, ctype.charpoly, ctype.trace) != \
                (sp._type_order(plain), sp._type_charpoly(plain), trace):
            pytest.fail("%r: record %r, %r, %r" % (g, ctype.order, ctype.charpoly, ctype.trace))
        if (g.order(), g.charpoly(), g.trace()) != (ctype.order, ctype.charpoly, trace):
            pytest.fail("%r: a walked element does not read its record" % (g,))


def test_pairing_lanes_carry_the_trace_in_byte_240():
    """One sum over the pairing lanes gives the trace (byte 240, minus 8)
    and, under low_bits, the parity sums: on kernel_inputs() the trace is
    the two-scan trace and the witness is parity_witness's."""
    lanes, low_bits = sp._pairing_lanes()
    for g in kernel_inputs():
        total = sum(map(getitem, lanes, g._e))
        if (total >> 1920) - 8 != reference_trace(g):
            pytest.fail("%r: byte 240 reads %d" % (g, total >> 1920))
        k = sp._odd_byte(total & low_bits)
        if (e8.enumerate_roots()[k] if k >= 0 else None) != sp.parity_witness(g):
            pytest.fail("%r: the fused witness differs" % (g,))


def class_representatives():
    """The element built for each of the 95 signed cycle types, and the
    class_representative of its class key."""
    built = signed_cycle_type_representatives()
    out = built + [sp.class_representative(g.class_conjugator()[0]) for g in built]
    if len({g.cycle_type() for g in built}) != 95:
        pytest.fail("%d signed cycle types" % len(built))
    return out


def reference_trace(g):
    """Fixed letters minus negated letters, in two scans."""
    image = g.image
    return sum(map(eq, image, sp._IDENT_IMG)) - sum(map(eq, image, sp._MINUS_IMG))


def test_lane_trace_matches_two_scans():
    """trace(), read off the type record after one walk, on unwalked
    elements and on class representatives."""
    for g in kernel_inputs() + class_representatives():
        if g.trace() != reference_trace(g):
            pytest.fail("%r: trace %d, two scans %d" % (g, g.trace(), reference_trace(g)))


def reference_fixed_roots(gens):
    """The roots whose byte of the packed lane sum is 0, picked by a
    generator over the bytes."""
    lanes = sp._fixed_lanes()
    moved = 0
    for g in gens:
        moved |= sum(map(getitem, lanes, g._e))
    return tuple(r for r, b in zip(e8.enumerate_roots(), moved.to_bytes(240, "little"))
                 if not b)


def test_fixed_roots_match_the_generator_route():
    order_p = [g for g in seeded_elements(20_000, seed=1902) if g.order() in (3, 5, 7)]
    reps = class_representatives()
    if {g.order() for g in order_p} != {3, 5, 7}:
        pytest.fail("the sample misses an order")
    for g in order_p + reps:
        if sp.fixed_roots(g) != reference_fixed_roots([g]):
            pytest.fail("%r: fixed roots differ from the generator route" % (g,))
    for gens in zip(reps, reps[1:]):
        if sp.fixed_roots(gens) != reference_fixed_roots(gens):
            pytest.fail("%r: fixed roots differ from the generator route" % (gens,))
