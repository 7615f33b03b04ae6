"""The signed-permutation subgroup of the E8 automorphism group.

H is generated by coordinate sign changes with product +1 (a copy of
(Z_2)^7) and by the coordinate permutations (S_8); it is their semidirect
product, of order 2^7 * 8!, and its Sylow 2-subgroups are Sylow in the full
automorphism group, so every 2-subgroup of Aut(E8) is conjugate into H.

An element is given by its image: image[i] = +-(j+1) means e_(i+1) is
sent to +-e_(j+1); it is stored as its signed table (see SignedPerm).
The sign-product-one condition is exactly what is needed to preserve the
half-sum roots, so H is precisely the set of signed permutations
preserving the lattice.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product
from math import factorial, lcm, prod
from operator import getitem, itemgetter, ne

from . import e8
from .e8 import LatticeVec
from .errors import CheckFailure
from .record import record


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of budget before finishing."""


Img = tuple[int, ...]

_IDENT_IMG: Img = tuple(range(1, 9))
_MINUS_IMG: Img = tuple(range(-1, -9, -1))


class _LetterCodes(dict):
    """code(+-j) = 2^(j-1) + 256 [sign -1] for the 16 signed letters, 512
    for anything else (see SignedPerm)."""

    def __missing__(self, key):
        return 512


_letter_code = _LetterCodes({s * j: (1 << (j - 1)) + (256 if s < 0 else 0)
                             for j in range(1, 9) for s in (1, -1)}).__getitem__


# a signed table is padded with _PAD to the 256 bytes of a translate table
_PAD = bytes(239)
# translate table sending each byte t in 1..16 to 17 - t, the negated letter
_NEGATE = bytes([0, *range(16, 0, -1)]) + _PAD


def _ext(a: Img) -> bytes:
    """The signed table of the 8-entry image a: 17 bytes, so that index t in
    -8..8 reads the signed image of the signed letter t, stored mod 17:
    entry 0 is 0, entry t is a[t-1] mod 17 and entry -t (counted from the
    end) is -a[t-1] mod 17."""
    top = bytes([t % 17 for t in a])
    return b"\0" + top + top[::-1].translate(_NEGATE)


# the 17 signed letters in table order, each stored mod 17: the table of the
# identity
_LETTERS = bytes(range(17))
_MINUS_TABLE = _ext(_MINUS_IMG)
# the signed letter that each stored byte 0..16 stands for
_SIGNED: Img = tuple(range(9)) + tuple(range(-8, 0))
_maketrans = bytes.maketrans


class SignedPerm:
    """Element of H.  Immutable; it compares, hashes, prints and pickles as
    its image tuple: tables are equal exactly when images are, and
    hash(g) == hash((g.image,)).

    The constructor checks the image in one pass: it sums code(t) over the
    entries t, with code(+-j) = 2^(j-1) + 256 [sign -1] for the letters
    j = 1..8 and 512 for anything else.  For exactly 8 entries the low byte
    of the sum is 255 exactly when the entries are 8 distinct signed
    letters.  A code of 512 leaves the low byte alone, so it is the low byte
    of L, the sum of the powers 2^(j-1) over the letter entries; L <= 1024,
    so a low byte of 255 means L is 255, 511, 767 or 1023.  A sum of k
    powers of two has at most k binary ones, and exactly k only when they
    are distinct (no carries); these four have 8, 9, 9 and 10 ones, so L is
    255, the sum of 8 distinct powers, and no entry lies outside the
    letters.  The sum is then 255 + 256 n with n the number of -1 signs, so
    bit 8 is the parity of the sign product.

    The element is stored as its signed table _e = _ext(image) alone: 17
    bytes holding the image of each signed letter -8..8 (0 included, sent to
    0), indexed by the letter itself, with letter t stored as the byte
    t mod 17.  A negative letter -t sits at index 17 - t, which is where
    Python's negative indexing reads e[-t], and a stored byte v > 8 stands
    for the letter v - 17, whose negation is 17 - v.  The image is entries
    1..8 of the table, decoded through the image property.  A table is a
    bijection of the 17 letters mod 17 that fixes 0 and commutes with
    negation t -> 17 - t, and composing two of them is one translate: the
    table of a * b is b._e.translate(a._e + _PAD), since entry t of it is
    a._e[b._e[t]] = a(b(t)), and b(t) is again a stored letter, so it
    indexes a's table.  The inverse is bytes.maketrans(e, _LETTERS) cut to
    17 bytes: it sends e[t] back to t.

    Products and inverses skip the check: they are built by _from_table,
    which fills the slots from a table.  This is sound by induction over
    how an instance comes about.  Every instance is made either by the
    checking constructor (directly, through from_eps_perm, diagonal or
    from_cycles, or by unpickling, which calls it through __reduce__) or as
    a product, inverse or conjugate of instances.  The constructor stores
    the table of 8 distinct signed letters with sign product +1, that is a
    bijection of the 17 letters that fixes 0, commutes with negation and
    sends an even number of the letters 1..8 to negative ones.  The
    translate of two such tables a and b is again a bijection that fixes 0
    (a._e[b._e[0]] = a._e[0] = 0) and commutes with t -> 17 - t (b maps
    17 - t to 17 - b(t), and a maps that to 17 - a(b(t))).  The sign of its
    entry t in 1..8 is the sign b gives t times the sign a gives |b(t)|,
    and |b(t)| runs over 1..8 with t, so the product of its eight signs is
    that of b times that of a, +1.  Inverting a table (each letter sent back
    to the one that maps to it) keeps the three properties, since the
    inverse's signs are a's signs permuted, and a conjugate is made of these
    two steps.  So every instance holds the table of an element of H, and
    every entry point that takes outside input still checks it.

    Equality compares the tables, but the hash stays on the image tuple:
    the hash of a bytes object is salted per process (PYTHONHASHSEED), the
    hash of a tuple of small ints is not, so sets and dicts of elements keep
    one iteration order in every run, and no report can depend on the seed.

    The slot _ctype caches cycle_type(): every construction sets it to None
    and the first walk (cycle_type or class_conjugator) fills it.  The cached
    value is the type record shared by every element of that type
    (_SignedType), which also carries the order, characteristic polynomial
    and trace, so order(), charpoly() and trace() walk at most once and
    then read the record."""

    __slots__ = ("_e", "_ctype")

    def __init__(self, image: Img):
        # image[i] = signed 1-based index of v(e_i)
        if len(image) != 8 or (code := sum(map(_letter_code, image))) & 255 != 255:
            raise ValueError("not a signed permutation of 8 letters")
        if code & 256:
            raise ValueError("sign product must be +1 (lattice preservation)")
        _set_e(self, _ext(image))
        _set_ctype(self, None)

    def __setattr__(self, *a):
        raise AttributeError("SignedPerm is immutable")

    __delattr__ = __setattr__

    @property
    def image(self) -> Img:
        """image[i] = +-(j+1) when e_(i+1) goes to +-e_(j+1): entries 1..8
        of the table, decoded to signed letters."""
        return itemgetter(*self._e[1:9])(_SIGNED)

    def __reduce__(self):
        return (SignedPerm, (self.image,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._e == other._e
        return NotImplemented

    def __hash__(self):
        return hash((self.image,))

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_eps_perm(cls, eps, perm) -> "SignedPerm":
        """eps[j] is the sign attached to the target coordinate j; perm maps
        position i to perm[i] (0-based)."""
        return cls(tuple(eps[perm[i]] * (perm[i] + 1) for i in range(8)))

    @classmethod
    def diagonal(cls, eps) -> "SignedPerm":
        return cls(tuple(eps[i] * (i + 1) for i in range(8)))

    @classmethod
    @lru_cache(maxsize=None)
    def minus_one(cls) -> "SignedPerm":
        """The central element -1; every call returns the same instance."""
        return cls(_MINUS_IMG)

    @classmethod
    def from_cycles(cls, cycles, eps=None) -> "SignedPerm":
        """Permutation from disjoint 1-based cycles, optional sign vector."""
        perm = list(range(8))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a - 1] = b - 1
        e = tuple(eps) if eps is not None else (1,) * 8
        return cls.from_eps_perm(e, tuple(perm))

    # -- structure accessors ----------------------------------------------

    def perm(self) -> tuple[int, ...]:
        return tuple(abs(x) - 1 for x in self.image)

    def eps(self) -> tuple[int, ...]:
        """Sign on each target coordinate."""
        out = [0] * 8
        for x in self.image:
            out[abs(x) - 1] = 1 if x > 0 else -1
        return tuple(out)

    # -- group operations ---------------------------------------------------

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition: (self * other)(x) = self(other(x)), one translate of
        other's table by self's.  H is closed under products, so the result
        is not checked again (see the class docstring)."""
        g = _new(SignedPerm)
        _set_e(g, other._e.translate(self._e + _PAD))
        _set_ctype(g, None)
        return g

    def inverse(self) -> "SignedPerm":
        """The inverse, unchecked like a product (see the class docstring):
        letter t goes back to the letter that self sends to t."""
        return _from_table(_maketrans(self._e, _LETTERS)[:17])

    def conjugated_by(self, h: "SignedPerm") -> "SignedPerm":
        """h self h^-1, unchecked like a product: the table that sends the
        letter h(t) to h(self(t)) for each letter t."""
        e = h._e
        return _from_table(_maketrans(e, self._e.translate(e + _PAD))[:17])

    def apply(self, x: LatticeVec) -> LatticeVec:
        d = [0] * 8
        for i, t in enumerate(self.image):
            j = abs(t) - 1
            d[j] = x.d[i] if t > 0 else -x.d[i]
        return LatticeVec(tuple(d))

    # -- invariants -----------------------------------------------------

    def cycle_type(self) -> tuple[tuple[int, int], ...]:
        """Sorted (length, sign product) pairs over the cycles of the
        underlying permutation, from one walk along the table from letter 1,
        made on the first call and cached.  Order, characteristic polynomial
        and trace depend on nothing else; the value is the shared
        _SignedType record of the type, which carries them.

        The walk adds 1 << (8 (L - 1) + 4 [s = -1]) per cycle of length L
        and sign s, so that nibble counts the cycles of type (L, s) (at most
        8 < 16 of them), and the sum, the type's code, names the type; the
        record is looked up by it."""
        out = self._ctype
        if out is not None:
            return out
        e = self._e
        todo = [True] * 9
        code = 0
        for start in range(1, 9):
            if todo[start]:
                shift, t = -8, start
                while todo[t]:
                    todo[t] = False
                    t = e[t]
                    if t > 8:
                        shift, t = shift ^ 4, 17 - t
                    shift += 8
                code += 1 << shift
        out = _signed_types.get(code) or _intern(code)
        _set_ctype(self, out)
        return out

    def class_conjugator(self) -> tuple[tuple["_SignedType", int], "SignedPerm"]:
        """(key, h) with h in H and h g h^-1 = class_representative(key).

        The key (cycle_type(), split) names the H-class of g.  The split bit
        is 0 unless every cycle has even length and sign +1 (types 8, 6+2,
        4+4, 4+2+2 and 2+2+2+2): there the W(B8)-class splits in two
        (Carter, "Conjugacy classes in the Weyl group", 1972).

        One walk along the signed table lists each cycle as the signed
        letters x_0 = c_0, x_(k+1) = g(x_k), until g returns to s c_0 with s
        the cycle's sign (an element not yet walked caches its type from
        it).  Laid out in the representative's block order (longest first,
        sign +1 first), the lists are the image of h^-1 for an h in W(B8)
        with h g h^-1 = rep: h sends x_k to the letter a+k of its block, and
        g(x_(L-1)) = s c_0 to s e_a.  An odd h is composed with an odd
        element that commutes with rep: -1 on an odd-length block (its
        entries negated), or rep restricted to a block of sign -1 (the
        block rotated, its last entry negated to the front).  A split type
        has none, so its W(B8) centralizer lies in H and the parity of h,
        the bit, is a class invariant; negating the entry of h^-1 at letter
        1 makes h even."""
        e, todo, cycles = self._e, [True] * 17, []
        for start in range(1, 9):
            if todo[start]:
                letters, x = [], start
                while todo[x]:
                    todo[x] = todo[-x] = False
                    letters.append(x)
                    x = e[x]
                cycles.append((len(letters), x <= 8, letters))
        cycles.sort(key=itemgetter(0, 1), reverse=True)  # stable: ties keep walk order
        ctype = self._ctype
        if ctype is None:
            ctype = _intern(_type_code((n, 1 if pos else -1) for n, pos, _ in cycles))
            _set_ctype(self, ctype)
        inv, odd = [], None
        for length, positive, letters in cycles:
            if odd is None and (length % 2 or not positive):
                odd = len(inv), length
            inv += letters
        # inv holds stored letters: v > 8 is negative, and 17 - v negates v
        split = sum(map((8).__lt__, inv)) % 2
        if split and odd:
            split, (a, length) = 0, odd
            block = inv[a:a + length]
            inv[a:a + length] = ([17 - x for x in block] if length % 2
                                 else [17 - block[-1]] + block[:-1])
        elif split:
            inv[0] = 17 - inv[0]
        return (ctype, split), SignedPerm(itemgetter(*inv)(_SIGNED)).inverse()

    def order(self) -> int:
        return (self._ctype or self.cycle_type()).order

    def trace(self) -> int:
        """Fixed letters minus negated letters, read off the type record."""
        return (self._ctype or self.cycle_type()).trace

    def charpoly(self) -> tuple[int, ...]:
        """Characteristic polynomial as a product of (x^L - s) over signed
        cycles; integer coefficients, low degree first."""
        return (self._ctype or self.cycle_type()).charpoly

    def is_involution(self) -> bool:
        e = self._e
        return e != _LETTERS and e.translate(e + _PAD) == _LETTERS

    def matrix_e(self) -> list[list[int]]:
        m = [[0] * 8 for _ in range(8)]
        for i, t in enumerate(self.image):
            m[abs(t) - 1][i] = 1 if t > 0 else -1
        return m

    def __repr__(self):
        return "SignedPerm(%s)" % (self.image,)


class _SignedType(tuple):
    """A signed cycle type with the invariants that depend on it alone:
    order, charpoly (low degree first) and trace, the sum of the signs of
    the cycles of length 1.  It is equal and hash-equal to the plain tuple
    of (length, sign) pairs, so it serves as the same key."""

    def __init__(self, pairs):
        self.order = _type_order(self)
        self.charpoly = _type_charpoly(self)
        self.trace = sum(sign for length, sign in self if length == 1)


# one record per signed cycle type met (H has 95 types), keyed by the type's
# code (see SignedPerm.cycle_type) and shared by every element that caches
# it, so the cache costs an element one slot
_signed_types: dict = {}
_set_e = SignedPerm._e.__set__
_set_ctype = SignedPerm._ctype.__set__
_new = object.__new__


def _type_code(pairs) -> int:
    """The code of the signed cycle type with these (length, sign) pairs:
    1 << (8 (length - 1) + 4 [sign = -1]) summed over them."""
    return sum(1 << (8 * length - 8 + 4 * (sign < 0)) for length, sign in pairs)


def _intern(code: int) -> _SignedType:
    """The shared record of the signed cycle type with this code, made on
    first use from the pairs the code counts, in sorted order (sign -1
    before +1 at equal length)."""
    record = _signed_types.get(code)
    if record is None:
        record = _signed_types[code] = _SignedType(
            (length, sign) for length in range(1, 9) for sign, shift in ((-1, 4), (1, 0))
            for _ in range(code >> (8 * length - 8 + shift) & 15))
    return record


def _from_table(e: bytes) -> SignedPerm:
    """The SignedPerm with signed table e, unchecked: only for tables of
    products, inverses or conjugates of elements of H (see the SignedPerm
    docstring)."""
    g = _new(SignedPerm)
    _set_e(g, e)
    _set_ctype(g, None)
    return g


def _type_order(ctype: tuple[tuple[int, int], ...]) -> int:
    """Order of an element of signed cycle type ctype: a cycle of length L
    has order L with sign product +1 and 2L with -1."""
    return lcm(*(length if sign == 1 else 2 * length for length, sign in ctype))


@lru_cache(maxsize=None)
def class_representative(key: tuple[tuple[tuple[int, int], ...], int]) -> SignedPerm:
    """The element that SignedPerm.class_conjugator transports the class key
    (ctype, split) to: the cycles run over consecutive letters, longest
    first (sign +1 before -1 at equal length), each e_a -> e_(a+1) -> ... ->
    e_(a+L-1) -> s e_a with its sign product s on the last entry, so
    std_cycle(p) is its own representative.  With split = 1 the images of
    the first cycle's first and last letters are negated (its conjugate by
    -1 on letter 1, which is not in H)."""
    ctype, split = key
    image, at = [], 1
    for length, sign in sorted(ctype, reverse=True):
        image += range(at + 1, at + length)
        image.append(sign * at)
        at += length
    if split:  # the first cycle, the longest, runs from letter 1 to letter max(ctype)[0]
        image[0], image[max(ctype)[0] - 1] = -image[0], -image[max(ctype)[0] - 1]
    return SignedPerm(tuple(image))


def _type_charpoly(ctype: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Product of x^L - s over the (L, s) in ctype, low degree first."""
    poly = [1]
    for length, sign in ctype:
        new = [-sign * a for a in poly] + [0] * length
        for i, a in enumerate(poly):
            new[i + length] += a
        poly = new
    return tuple(poly)


# ---------------------------------------------------------------------------
# reflections as signed permutations, standard elements


def reflection_in_h(r: LatticeVec) -> SignedPerm:
    """w_r as a SignedPerm; only the +-e_i +- e_j roots give one."""
    m = e8.reflection_matrix(r)
    image = []
    for i in range(8):
        col = [m[j][i] for j in range(8)]
        nz = [(j, c) for j, c in enumerate(col) if c != 0]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise ValueError("reflection is not a signed permutation")
        j, c = nz[0]
        image.append((j + 1) if c > 0 else -(j + 1))
    return SignedPerm(tuple(image))


def w_f(i: int) -> SignedPerm:
    """Reflection in the basis root f_i (1-based); w_f(7, prime=True) is the
    reflection in e7-e8."""
    return reflection_in_h(e8.standard_basis()[i - 1])


def w_f7_prime() -> SignedPerm:
    return reflection_in_h(e8.f7_prime())


def std_cycle(p: int) -> SignedPerm:
    """The order-p coordinate cycle e_1 -> e_2 -> ... -> e_p, rest fixed."""
    return SignedPerm.from_cycles([tuple(range(1, p + 1))])


# ---------------------------------------------------------------------------
# fixed roots


def fixed_roots(gens) -> tuple[LatticeVec, ...]:
    """Roots fixed by every generator (a single SignedPerm is allowed), in
    enumerate_roots order.

    g(r) = r exactly when (g(r), r) = 2, since both have norm 2, that is
    when byte r of g's sum over _root_lanes() is 40; in 24..40 only 40 has
    both bit 3 and bit 5 set.  Bit 0 of each root byte of
    total >> 3 & total >> 5 is set exactly there; the AND over the
    generators, started from _ONES, selects the fixed roots."""
    if isinstance(gens, SignedPerm):
        gens = [gens]
    lanes = _root_lanes()
    fixed = _ONES
    for g in gens:
        total = sum(map(getitem, lanes, g._e))
        fixed &= total >> 3 & total >> 5
    return tuple(compress(e8.enumerate_roots(), fixed.to_bytes(240, "little")))


# bit 0 (_ONES) and bit 2 (_FOURS) of each of the 240 root bytes
_ONES = int.from_bytes(b"\x01" * 240, "little")
_FOURS = _ONES << 2


@lru_cache(maxsize=None)
def _root_lanes() -> tuple[tuple[int, ...], ...]:
    """The root-pairing lanes.  lanes[i+1][t] packs the bytes 4 + s d_i d_j
    over the roots d (doubled, in enumerate_roots order, one root per
    byte), then 1 + s [j = i] in byte 240, for the table entry t = s(j+1)
    at letter i+1; a negative t indexes from the end, at the byte t mod 17
    that stands for t in a table (see _ext).  lanes[0] is all zero, for the
    table's entry 0, so a table indexes the lanes as it stands.

    With v(e_i) = s_i e_pi(i), byte r of v's sum over the lanes is
    32 + sum_i s_i d_i d_pi(i) = 32 + 4 (v(r), r).  By Cauchy-Schwarz on
    the norm-2 roots |(v(r), r)| <= 2, so it lies in 24..40; byte 240 is
    8 + tr v, in 0..16, and no byte carries into the next.

    Certificate, run once: the identity's sum reads 40 in every root byte
    and 16 in byte 240, else CheckFailure."""
    cols = list(zip(*(r.d for r in e8.enumerate_roots())))
    lanes = [(0,) * 17]
    for i in range(8):
        row = [0] * 17
        for s in (1, -1):
            for j in range(8):
                row[s * (j + 1)] = int.from_bytes(
                    bytes([4 + s * x * y for x, y in zip(cols[i], cols[j])] + [1 + s * (j == i)]),
                    "little")
        lanes.append(tuple(row))
    if sum(map(getitem, lanes, _LETTERS)) != 40 * _ONES + (16 << 1920):
        raise CheckFailure("the identity's root-pairing lanes do not read (r, r) = 2 "
                           "and trace 8")
    return tuple(lanes)


# ---------------------------------------------------------------------------
# involution classification


@record(frozen=True)
class InvolutionClass:
    label: str                    # "1A'", "2A", "3A", "4A", "4A'"
    l_value: int                  # number of -1 eigenvalues after normalization
    negated: bool                 # True if -v was classified instead of v
    witness: LatticeVec | None    # root with odd (v(r), r), when one exists


_L_LABELS = {1: "1A'", 2: "2A", 3: "3A"}


def parity_witness(v: SignedPerm) -> LatticeVec | None:
    """The first root r, in enumerate_roots order, with (v(r), r) odd, or
    None if all pairings are even.

    Byte r of v's sum over _root_lanes() is 32 + 4 (v(r), r), so the
    pairing is odd exactly when its bit 2 is set; _FOURS picks those bits."""
    k = _odd_byte(sum(map(getitem, _root_lanes(), v._e)) & _FOURS)
    return e8.enumerate_roots()[k] if k >= 0 else None


def _odd_byte(odd: int) -> int:
    """The index of the lowest nonzero byte of odd, -1 if odd is 0."""
    return ((odd & -odd).bit_length() - 1) >> 3


def involution_class(v: SignedPerm) -> InvolutionClass:
    """Conjugacy class of an involution, by eigenvalue count and root-pairing
    parity.  The count l(v) of -1 eigenvalues is normalized to <= 4 by
    passing to -v; at l = 4 the class is 4A' exactly when every root pairs
    evenly with its image, and 4A when an odd witness exists.  The witness
    is read off v itself: (-v(r), r) = -(v(r), r), so v and -v have the same
    roots with odd pairing, and the same first one.

    The trace and the witness come from one sum over _root_lanes(): byte
    240 is 8 + tr v, and bit 2 of root byte r is the parity of (v(r), r)
    (see parity_witness).  The record depends on them alone, so it comes
    from _involution_record, which makes one per key (the trace and the
    witness's byte index): equal inputs share one frozen record."""
    if not v.is_involution():
        raise ValueError("element is not an involution")
    if v._e == _MINUS_TABLE:
        raise ValueError("central element -1 is excluded")
    total = sum(map(getitem, _root_lanes(), v._e))
    return _involution_record((total >> 1920) - 8, _odd_byte(total & _FOURS))


@lru_cache(maxsize=None)
def _involution_record(trace: int, odd_byte: int) -> InvolutionClass:
    """The class record of an involution other than +-1 with this trace
    (one of the 7 even values in -6..6) and parity witness, given as the
    index odd_byte of its root in enumerate_roots (-1 for None), so the
    cache holds at most 7 * 241 records."""
    witness = e8.enumerate_roots()[odd_byte] if odd_byte >= 0 else None
    lv = (8 - trace) // 2
    negated = lv > 4
    if negated:
        lv = 8 - lv
    if lv <= 3:
        return InvolutionClass(_L_LABELS[lv], lv, negated, witness)
    return InvolutionClass("4A" if witness is not None else "4A'", 4, negated, witness)


def is_4a_prime_shape(v: SignedPerm) -> bool:
    """Combinatorial membership test for the even-pairing class inside H:
    the permutation part is trivial or four disjoint transpositions, the
    signs are constant on its cycles with the number of -1 entries divisible
    by 4, and a diagonal element has exactly four -1 entries.

    The test reads the image tuple.  An involution sends e_i to s e_j and
    e_j back to s e_i with the same sign, so its signs are constant on its
    cycles, and its -1 entries are its negative image entries."""
    if not v.is_involution():
        return False
    image = v.image
    n_minus = sum(map((0).__gt__, image))
    # an involution's cycles have length 1 or 2, so this is twice the
    # number of transpositions
    moved = sum(map(ne, map(abs, image), _IDENT_IMG))
    if moved == 0:
        return n_minus == 4
    return moved == 8 and n_minus % 4 == 0


def pairings(items: tuple[int, ...], k: int):
    """All ways to choose k disjoint unordered pairs from items."""
    if k == 0:
        yield ()
        return
    for support in combinations(items, 2 * k):
        yield from _perfect_matchings(support)


def _perfect_matchings(support: tuple[int, ...]):
    if not support:
        yield ()
        return
    first = support[0]
    for j in range(1, len(support)):
        pair = (first, support[j])
        rest = support[1:j] + support[j + 1:]
        for more in _perfect_matchings(rest):
            yield (pair,) + more


# ---------------------------------------------------------------------------
# conjugacy classes and conjugation orbits
#
# The searches below scan one representative per class or orbit instead of
# every element.  Each reduction is backed by a certificate checked when it
# runs, which raises CheckFailure if it does not hold.


def _signed_partitions(n: int, top: tuple[int, int] = (8, 1)) -> list:
    """Tuples of (length, sign) parts, non-increasing, lengths adding up to n."""
    if n == 0:
        return [()]
    return [(part,) + rest for part in product(range(min(n, top[0]), 0, -1), (1, -1))
            if part <= top for rest in _signed_partitions(n - part[0], part)]


def _class_rows() -> list:
    """(key, representative, size) per H-class, over the signed cycle types
    with an even number of cycles of sign -1, twice for a split type.  A
    type's W(B8)-class has 2^8 8!/|C| elements, |C| = prod (2L)^m m! over
    the multiplicities m of its (L, sign) cycles; a split type has two
    H-classes of half that size (see SignedPerm.class_conjugator)."""
    rows = []
    for parts in _signed_partitions(8):
        if sum(sign < 0 for _, sign in parts) % 2:
            continue
        ctype = _intern(_type_code(parts))
        size = 2 ** 8 * factorial(8) // prod((2 * length) ** m * factorial(m)
                                            for (length, _), m in Counter(ctype).items())
        split = all(length % 2 == 0 and sign > 0 for length, sign in ctype)
        for key in ((ctype, 0), (ctype, 1)) if split else ((ctype, 0),):
            rows.append((key, class_representative(key), size // 2 if split else size))
    return rows


@lru_cache(maxsize=None)
def class_table() -> tuple:
    """One (key, representative, size) row per conjugacy class of H, built
    on first use.  Certificate: 100 rows with distinct keys, each
    representative's own key (from class_conjugator) is its row's key, and
    the sizes add up to |H| = 2^7 8!; CheckFailure otherwise."""
    rows = tuple(_class_rows())
    n_keys = len({key for key, _, _ in rows})
    if len(rows) != 100 or n_keys != 100:
        raise CheckFailure("%d rows with %d distinct keys, not 100" % (len(rows), n_keys))
    for key, rep, _ in rows:
        own = rep.class_conjugator()[0]
        if own != key:
            raise CheckFailure("representative %r has key %r, not %r" % (rep, own, key))
    total = sum(size for _, _, size in rows)
    if total != 2 ** 7 * factorial(8):
        raise CheckFailure("class sizes add up to %d, not %d" % (total, 2 ** 7 * factorial(8)))
    return rows


def d8_involution_count() -> int:
    """Number of x in H = W(D8) with x^2 = 1, the identity included.

    Independent of any class table: with e(n), o(n) the counts of x in W(Bn)
    with x^2 = 1 and an even / odd number of -1 signs, the last coordinate is
    fixed with sign +1, fixed with sign -1 (flipping the parity), or swapped
    with one of the other n - 1 with either sign (2(n-1) ways, its two signs
    agree), so e(n) = e(n-1) + o(n-1) + 2(n-1) e(n-2) and likewise for o."""
    even, odd = [1, 1], [0, 1]
    for n in range(2, 9):
        even.append(even[n - 1] + odd[n - 1] + 2 * (n - 1) * even[n - 2])
        odd.append(odd[n - 1] + even[n - 1] + 2 * (n - 1) * odd[n - 2])
    return even[8]


@lru_cache(maxsize=None)
def involution_classes() -> tuple[tuple[SignedPerm, int], ...]:
    """One (representative, class size) pair per H-class of involutions
    other than +-1, the class_table rows of order 2 but -1: 14 classes of
    17038 elements in all.  Certificate: the sizes add up to
    d8_involution_count() - 2, else CheckFailure."""
    table = tuple((rep, size) for (ctype, _), rep, size in class_table()
                  if ctype.order == 2 and rep != SignedPerm.minus_one())
    total, want = sum(size for _, size in table), d8_involution_count() - 2
    if total != want:
        raise CheckFailure("involution class sizes add up to %d, not %d" % (total, want))
    return table


_D0 = SignedPerm((-1, -2, -3, -4, 5, 6, 7, 8))
_PPERM = SignedPerm((2, 1, 4, 3, 6, 5, 8, 7))


@lru_cache(maxsize=None)
def four_a_prime_elements() -> tuple[SignedPerm, ...]:
    """All 910 elements of H in the even-pairing involution class, sorted by
    image: the H-classes of d0 = diag(-1, -1, -1, -1, 1, 1, 1, 1) and
    pperm = (1 2)(3 4)(5 6)(7 8), each closed from its start under
    conjugation by _conjugators() (_sized_closure).

    Certificate, against the class table: exactly two involution_classes()
    rows have a representative of the shape that is_4a_prime_shape tests,
    their class keys are those of d0 and pperm, and the two closed orbits
    have their rows' sizes (70 and 840), so they are the whole classes;
    CheckFailure otherwise.  The shape is constant on each H-class (checked
    over every involution by test_shape_and_parity_are_constant_on_each_type),
    and the rows cover every involution of H but +-1, so the result is
    exactly the set of elements of that shape."""
    starts = (_D0, _PPERM)
    rows = [(rep.class_conjugator()[0], size) for rep, size in involution_classes()
            if is_4a_prime_shape(rep)]
    if len(rows) != 2:
        raise CheckFailure("%d involution classes have the 4A' shape, not 2" % len(rows))
    size = dict(rows)
    keys = [start.class_conjugator()[0] for start in starts]
    if set(keys) != set(size):
        raise CheckFailure("the starts %r are not one per 4A'-shaped class"
                           % ([start.image for start in starts],))
    return _sized_closure([start._e for start in starts], _conjugators(),
                          [size[key] for key in keys], "d0 and pperm")


def even_pairing_starts() -> tuple[SignedPerm, SignedPerm]:
    """d0 and pperm, one in each even-pairing H-class, as certified by four_a_prime_elements."""
    four_a_prime_elements()
    return _D0, _PPERM


@lru_cache(maxsize=None)
def _conjugators() -> tuple[SignedPerm, ...]:
    """Small elements of H to draw centralizer generators from: the 7
    adjacent transpositions, the sign changes of coordinates 1, 2 and of
    coordinates 4, 5, and the 3 swaps (1 3)(2 4), (3 5)(4 6), (5 7)(6 8) of
    adjacent pairs.  Of these, 10 commute with d0 and 8 with pperm."""
    out = [SignedPerm.from_cycles([(i, i + 1)]) for i in range(1, 8)]
    out += [SignedPerm.diagonal([-1 if j in (i, i + 1) else 1 for j in range(8)])
            for i in (0, 3)]
    out += [SignedPerm.from_cycles([(i, i + 2), (i + 1, i + 3)]) for i in range(1, 7, 2)]
    return tuple(out)


def _commute(a: SignedPerm, b: SignedPerm) -> bool:
    """Whether a and b commute: the tables of a b and b a agree."""
    return b._e.translate(a._e + _PAD) == a._e.translate(b._e + _PAD)


def centralizer_generators(c: SignedPerm) -> list[SignedPerm]:
    """The _conjugators that commute with the element c.  They generate a
    subgroup of the centralizer of c in H, perhaps a proper one: square_roots
    certifies that they reach every root of d0 and pperm in each class, and
    finer level-1 orbits only cost search_z2_4_obstruction a few more starts."""
    return [g for g in _conjugators() if _commute(g, c)]


def _check_commuting(gens, center: SignedPerm) -> None:
    """CheckFailure unless every element of gens commutes with center."""
    for g in gens:
        if not _commute(g, center):
            raise CheckFailure("generator %r does not commute with %r" % (g, center))


def _closure(starts, gens, points=None) -> list[list[bytes]]:
    """Orbits of the signed tables `starts` under conjugation x -> g x g^-1
    by the group the elements `gens` generate, found by closure: one orbit
    per start not met before, its start first.  The conjugate g y g^-1 of
    the table y reads g(y(g^-1(t))) at t, so it is g^-1's table translated
    by y's and then by g's.  With `points` given (a container of tables), a
    conjugate outside it raises CheckFailure."""
    conj = [(g._e + _PAD, g.inverse()._e) for g in gens]
    seen: set[bytes] = set()
    orbits = []
    for ex in starts:
        if ex in seen:
            continue
        seen.add(ex)
        orbit = [ex]
        for y in orbit:
            y_pad = y + _PAD
            for g_pad, e_inv in conj:
                z = e_inv.translate(y_pad).translate(g_pad)
                if z not in seen:
                    if points is not None and z not in points:
                        raise CheckFailure("conjugate %r leaves the point set"
                                           % (_from_table(z).image,))
                    seen.add(z)
                    orbit.append(z)
        orbits.append(orbit)
    return orbits


def _sized_closure(starts, gens, sizes: list[int], what: str) -> tuple[SignedPerm, ...]:
    """The orbits of the signed tables `starts` under conjugation by `gens`
    (_closure) as one tuple sorted by image.  Start k lies in a set the group
    keeps (an H-class, or the roots of c in one) of the class table's size
    sizes[k]; CheckFailure unless its orbit has that size, so is all of it."""
    orbits = _closure(starts, gens)
    got = [len(orbit) for orbit in orbits]
    if got != sizes:
        raise CheckFailure("the orbits of %s have %r elements, their classes %r"
                           % (what, got, sizes))
    return tuple(sorted((_from_table(e) for orbit in orbits for e in orbit),
                        key=lambda v: v.image))


def conjugation_orbits(points, gens, center: SignedPerm) -> list[list[SignedPerm]]:
    """Orbits of the elements `points` under conjugation x -> g x g^-1 by
    the group the elements `gens` generate, found by closure (_closure).
    Each orbit lists its first point (in the order of `points`) first.

    Certificates: every generator commutes with `center`, so the group lies
    in its centralizer, and every conjugate met lies in `points`, so the set
    is closed under the group.  Either failing raises CheckFailure."""
    _check_commuting(gens, center)
    point_of = {x._e: x for x in points}
    return [[point_of[z] for z in orbit] for orbit in _closure(point_of, gens, point_of)]


# ---------------------------------------------------------------------------
# order-4 elements over the even-pairing class


@record(frozen=True)
class Order4Shape:
    case: str            # "i" (square of permutation part trivial) or "ii"
    transpositions: int  # for case i: 2, 3 or 4; for case ii: 0
    trace: int


@lru_cache(maxsize=None)
def _is_4a_prime(v: SignedPerm) -> bool:
    """Whether the involution v lies in 4A'.  Memoized: the squares of the
    order-4 elements met in a scan are few (the square roots of d0 and
    pperm square to those two)."""
    return involution_class(v).label == "4A'"


def classify_order4(v: SignedPerm) -> Order4Shape:
    """Normal-form shape of an order-4 element whose square is in the
    even-pairing class: either the permutation part is an involution made of
    2, 3 or 4 transpositions (case i), or it is a pair of disjoint 4-cycles
    with signs constant on both (case ii)."""
    if v.order() != 4:
        raise ValueError("element does not have order 4")
    if not _is_4a_prime(v * v):
        raise ValueError("square is not in the even-pairing class")
    tr = v.trace()
    if tr % 2 or not -4 <= tr <= 4:
        raise CheckFailure("order-4 element %r has trace %d" % (v, tr))
    cycles = [length for length, _ in v.cycle_type()]
    if max(cycles) == 4:
        if sorted(cycles) != [4, 4]:
            raise CheckFailure("%r has cycle lengths %r" % (v, cycles))
        eps = v.eps()
        p = v.perm()
        if any(eps[i] != eps[p[i]] for i in range(8)):
            raise CheckFailure("%r has signs that vary along a 4-cycle" % (v,))
        return Order4Shape("ii", 0, tr)
    n_trans = cycles.count(2)
    if n_trans not in (2, 3, 4):
        raise CheckFailure("%r has %d transpositions" % (v, n_trans))
    return Order4Shape("i", n_trans, tr)


@lru_cache(maxsize=None)
def _order4_squares() -> tuple:
    """The class power map on the class_table rows (key, r, size) of order 4:
    (key', h, r, size) with h r^2 h^-1 = class_representative(key')."""
    return tuple((*(r * r).class_conjugator(), r, size)
                 for (ctype, _), r, size in class_table() if ctype.order == 4)


def _root_starts(c: SignedPerm) -> list[tuple[bytes, int]]:
    """(table of s, |C| / |class of c|) per H-class C that squares into the
    class of c (d0 or pperm, else ValueError), s a root of c in C: squaring
    commutes with conjugation, so its fibres over the class of c have one
    size.  A root of an involution has order 4; with h' r^2 h'^-1 = h c h^-1
    (_order4_squares, c.class_conjugator()), s is r conjugated by h^-1 h'.
    Certificate: s^2 = c, else CheckFailure."""
    if c != _D0 and c != _PPERM:
        raise ValueError("square roots are derived for d0 and pperm only, not %r" % (c,))
    key, h = c.class_conjugator()
    n_c = next(size for row_key, _, size in class_table() if row_key == key)
    out = []
    for square_key, h_r, r, size in _order4_squares():
        if square_key == key:
            s = r.conjugated_by(h.inverse() * h_r)
            if s * s != c:
                raise CheckFailure("the start %r does not square to %r" % (s, c))
            out.append((s._e, size // n_c))
    return out


def square_roots(c: SignedPerm) -> tuple[SignedPerm, ...]:
    """All v in H with v*v = c, sorted by image, for c = d0 or pperm (else
    ValueError).  The roots of c in one H-class are one orbit of the
    centralizer of c (if v and h v h^-1 both square to c, h commutes with
    c), so each start of _root_starts is closed under
    centralizer_generators(c).  Certificates (CheckFailure): every
    generator commutes with c, and each orbit has its class's count of
    roots (_sized_closure), so it is all of them.  The _conjugators do not
    generate every centralizer in H; the counts hold for d0 and pperm."""
    starts = _root_starts(c)
    gens = centralizer_generators(c)
    _check_commuting(gens, c)
    return _sized_closure([e for e, _ in starts], gens, [n for _, n in starts],
                          "the square roots of %s" % ("d0" if c == _D0 else "pperm"))


# ---------------------------------------------------------------------------
# obstruction searches


@record(frozen=True)
class Z24Report:
    average_fixed_dim: Fraction
    verdict: str
    max_all_even_rank: int
    rank2_example: tuple[SignedPerm, SignedPerm]
    units: int                    # budget units the search charged
    orbits: tuple[int, ...] = ()  # second-generator orbits, per start


def search_z2_4_obstruction(budget: int = 20_000_000) -> Z24Report:
    """Averaging obstruction for a (Z_2)^4 all of whose involutions have the
    even-pairing type, plus an exhaustive search inside H confirming that no
    such subgroup exists (the best possible rank is 3).

    Conjugating a subgroup moves any one of its involutions g1 to d0 or
    pperm, so those two start the search (even_pairing_starts; the atoms
    four_a_prime_elements are certified to be the whole classes of the two,
    that is every involution of the even-pairing shape).  Its other
    elements then lie in level 1: the even-pairing h != g1 that commute with
    g1 and whose product with g1 is again of even-pairing type.
    Conjugating by the centralizer of g1 moves a second generator h to the
    representative of its level-1 orbit (conjugation_orbits certifies the
    orbits), so h runs over one representative per orbit, and the
    generators after it over the level-1 elements that commute with h; from
    there the search adds generators in pool order, keeping in the pool the
    later elements that commute with the new one.

    Every element that gets multiplied is an atom or the identity, so the
    elements are interned as indices of their signed tables (atoms first,
    then the identity, then any other product met) and each product of two
    indices is computed once, as one translate, and kept in a table for the
    rest of the call.  Every product asked for is still charged one unit of
    budget, and so is every commutation test."""
    avg = Fraction(8 + 15 * 0, 16)
    starts = even_pairing_starts()
    atoms = four_a_prime_elements()
    n_atoms = len(atoms)
    elts = [v._e for v in atoms]
    elts.append(_LETTERS)
    n_elts = len(elts)
    index = {e: k for k, e in enumerate(elts)}
    padded = [e + _PAD for e in elts]
    table: dict[int, int] = {}

    def mul(i: int, j: int) -> int:
        """Index of elts[i] * elts[j]; at least n_atoms unless it is an atom."""
        key = i * n_elts + j
        k = table.get(key)
        if k is None:
            k = table[key] = index.setdefault(elts[j].translate(padded[i]), len(index))
        return k

    counter = [0]

    def charge(n=1):
        counter[0] += n
        if counter[0] > budget:
            raise SearchBudgetExceeded("budget %d exhausted" % budget)

    def commutes(g: int, h: int) -> bool:
        charge()
        return mul(g, h) == mul(h, g)

    def closed_extension(subgroup: list[int], h: int):
        """Products of h with the current subgroup; None if any leaves the
        even-pairing class (the identity product means h is in the subgroup)."""
        new = []
        for g in subgroup:
            charge()
            p = mul(g, h)
            if p >= n_atoms:
                return None
            new.append(p)
        return new

    max_rank = 1
    best_pair: tuple[int, int] | None = None

    def grow(subgroup: list[int], gens: list[int], pool: list[int]):
        # every element of pool commutes with all of subgroup
        nonlocal max_rank, best_pair
        max_rank = max(max_rank, len(gens))
        if len(gens) == 2 and best_pair is None:
            best_pair = (gens[0], gens[1])
        if len(gens) == 4:
            raise CheckFailure("found an all-even-pairing (Z2)^4: %r"
                               % ([atoms[g].image for g in gens],))
        for idx, h in enumerate(pool):
            new_elts = closed_extension(subgroup, h)
            if new_elts is None:
                continue
            grow(subgroup + new_elts, gens + [h],
                 [h2 for h2 in pool[idx + 1:] if commutes(h2, h)])

    n_orbits = []
    for start in starts:
        g1 = index[start._e]
        level1 = [h for h in range(n_atoms) if h != g1 and commutes(g1, h)
                  and closed_extension([g1], h) is not None]
        orbits = conjugation_orbits([atoms[h] for h in level1],
                                    centralizer_generators(start), start)
        n_orbits.append(len(orbits))
        for orbit in orbits:
            h = index[orbit[0]._e]
            grow([n_atoms, g1, h, mul(g1, h)], [g1, h],
                 [h2 for h2 in level1 if h2 != h and commutes(h2, h)])

    if best_pair is None:
        raise CheckFailure("no commuting pair of even-pairing involutions")
    return Z24Report(avg, "no (Z2)^4 with all involutions of even-pairing type",
                     max_rank, (atoms[best_pair[0]], atoms[best_pair[1]]),
                     counter[0], tuple(n_orbits))


@record(frozen=True)
class Q8Report:
    trace_values: tuple[int, ...]          # traces of admissible order-4 elements
    trace_triples: tuple[tuple[int, int, int], ...]
    verdict: str
    units: int                             # budget units the search charged
    orbits: tuple[int, ...] = ()           # orbits of square roots, per c


def search_q8_obstruction(budget: int = 4_000_000) -> Q8Report:
    """Trace obstruction for quaternionic subgroups acting on both lattice
    factors.

    Enumerates all pairs (a, b) in H with a^2 = b^2 = c central of
    even-pairing type and b a b^-1 = a^-1, records the realizable trace
    triples (tr a, tr b, tr ab), and checks that no two triples sum to
    (-4, -4, -4) coordinatewise.  Up to conjugacy c is d0 or pperm
    (even_pairing_starts, certified by four_a_prime_elements).

    Given a^2 = b^2 = c, b a b^-1 = a^-1 holds exactly when (ab)^2 = c:
    b a = a^-1 b gives abab = b^2 = c, and abab = c = b^2 gives aba = b.
    So a pair qualifies exactly when ab is again a square root of c.
    Conjugating a pair by the centralizer of c keeps it a pair and keeps its
    traces, so a runs over the starts of _root_starts, one root per H-class
    (square_roots certifies each class's roots to be one orbit of the
    centralizer), its trace read through its index among the roots, and b
    over every root.  Each pair is tested by one translate of the two tables
    and one lookup of the product's table among the roots', and charged one
    unit of budget, row by row."""
    triples: set[tuple[int, int, int]] = set()
    traces: set[int] = set()
    n_orbits, steps = [], 0
    for c in even_pairing_starts():
        roots = square_roots(c)
        trace = [v.trace() for v in roots]
        traces.update(trace)
        tables = [v._e for v in roots]
        index = {e: k for k, e in enumerate(tables)}
        starts = _root_starts(c)
        n_orbits.append(len(starts))
        for ea, _ in starts:
            steps += len(roots)
            if steps > budget:
                raise SearchBudgetExceeded("budget %d exhausted" % budget)
            tr_a, a_pad = trace[index[ea]], ea + _PAD
            for j, eb in enumerate(tables):
                k = index.get(eb.translate(a_pad))
                if k is not None:
                    triples.add((tr_a, trace[j], trace[k]))
    want = (-4, -4, -4)
    hit = [(t1, t2) for t1 in triples for t2 in triples
           if tuple(x + y for x, y in zip(t1, t2)) == want]
    verdict = ("no pair of realizable trace triples sums to (-4,-4,-4)"
               if not hit else "OBSTRUCTION FAILED: %r" % hit)
    if hit:
        raise CheckFailure(verdict)
    return Q8Report(tuple(sorted(traces)), tuple(sorted(triples)), verdict, steps,
                    tuple(n_orbits))
