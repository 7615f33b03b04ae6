"""The signed-permutation subgroup of the E8 automorphism group.

H is generated by coordinate sign changes with product +1 (a copy of
(Z_2)^7) and by the coordinate permutations (S_8); it is their semidirect
product, of order 2^7 * 8!, and its Sylow 2-subgroups are Sylow in the full
automorphism group, so every 2-subgroup of Aut(E8) is conjugate into H.

An element is stored as a signed image table: image[i] = +-(j+1) means
e_i is sent to +-e_j.  The sign-product-one condition is exactly what is
needed to preserve the half-sum roots, so H is precisely the set of signed
permutations preserving the lattice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm, prod
from operator import getitem, ne, neg

from . import e8
from .e8 import LatticeVec
from .errors import CheckFailure
from .record import record


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of budget before finishing."""


Img = tuple[int, ...]

_LETTERS = frozenset(range(1, 9))
_IDENT_IMG: Img = tuple(range(1, 9))


def _ext(a: Img) -> Img:
    """a padded to 17 entries so that index t in -8..8 reads the signed image
    of e_|t|: entry t is a[t-1] and entry -t (counted from the end) is -a[t-1]."""
    return (0, *a, *map(neg, reversed(a)))


def _img_mul(a: Img, b: Img) -> Img:
    """Raw composition (a then applied after b) on image tuples."""
    return tuple(map(_ext(a).__getitem__, b))


def _cycles(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of a permutation of range(8), each from its least element."""
    seen = [False] * 8
    out = []
    for start in range(8):
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i]
        if cyc:
            out.append(tuple(cyc))
    return out


class SignedPerm:
    """Element of H.  Immutable; equality and hash are those of the tuple
    (image,)."""

    __slots__ = ("image",)

    def __init__(self, image: Img):
        # image[i] = signed 1-based index of v(e_i)
        if len(image) != 8 or set(map(abs, image)) != _LETTERS:
            raise ValueError("not a signed permutation of 8 letters")
        # the product of the entries is +-8! with the sign product's sign
        if prod(image) < 0:
            raise ValueError("sign product must be +1 (lattice preservation)")
        object.__setattr__(self, "image", image)

    def __setattr__(self, *a):
        raise AttributeError("SignedPerm is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (SignedPerm, (self.image,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.image == other.image
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
    def identity(cls) -> "SignedPerm":
        return cls(tuple(range(1, 9)))

    @classmethod
    def minus_one(cls) -> "SignedPerm":
        return cls(tuple(-(i + 1) for i in range(8)))

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
        """Composition: (self * other)(x) = self(other(x))."""
        return SignedPerm(_img_mul(self.image, other.image))

    def inverse(self) -> "SignedPerm":
        out = [0] * 8
        for i, t in enumerate(self.image):
            j = abs(t) - 1
            out[j] = (i + 1) if t > 0 else -(i + 1)
        return SignedPerm(tuple(out))

    def conjugated_by(self, h: "SignedPerm") -> "SignedPerm":
        return h * self * h.inverse()

    def apply(self, x: LatticeVec) -> LatticeVec:
        d = [0] * 8
        for i, t in enumerate(self.image):
            j = abs(t) - 1
            d[j] = x.d[i] if t > 0 else -x.d[i]
        return LatticeVec(tuple(d))

    def apply_doubled(self, xd: tuple[int, ...]) -> tuple[int, ...]:
        d = [0] * 8
        for i, t in enumerate(self.image):
            j = abs(t) - 1
            d[j] = xd[i] if t > 0 else -xd[i]
        return tuple(d)

    # -- invariants -----------------------------------------------------

    def signed_cycles(self) -> list[tuple[tuple[int, ...], int]]:
        """Cycles of the underlying permutation with their sign products."""
        image = self.image
        return [(cyc, prod(1 if image[i] > 0 else -1 for i in cyc))
                for cyc in _cycles(self.perm())]

    def order(self) -> int:
        return lcm(*(len(c) if s == 1 else 2 * len(c) for c, s in self.signed_cycles()))

    def trace(self) -> int:
        return sum(1 if t == i + 1 else -1 if t == -(i + 1) else 0
                   for i, t in enumerate(self.image))

    def charpoly(self) -> tuple[int, ...]:
        """Characteristic polynomial as a product of (x^L - s) over signed
        cycles; integer coefficients, low degree first."""
        poly = [1]
        for cyc, sign in self.signed_cycles():
            factor = [-sign] + [0] * (len(cyc) - 1) + [1]
            new = [0] * (len(poly) + len(factor) - 1)
            for i, a in enumerate(poly):
                if a:
                    for j, b in enumerate(factor):
                        new[i + j] += a * b
            poly = new
        return tuple(poly)

    def is_involution(self) -> bool:
        image = self.image
        return image != _IDENT_IMG and _img_mul(image, image) == _IDENT_IMG

    def matrix_e(self) -> list[list[int]]:
        m = [[0] * 8 for _ in range(8)]
        for i, t in enumerate(self.image):
            m[abs(t) - 1][i] = 1 if t > 0 else -1
        return m

    def __repr__(self):
        return "SignedPerm(%s)" % (self.image,)


def group_order() -> int:
    """|H| = 2^7 * 8!."""
    return 2**7 * prod(range(1, 9))


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

    g(r) = r exactly when sum_i (s_i d_i - d_pi(i))^2 = 0 in doubled
    coordinates; the sum is taken for all 240 roots at once, one root per
    byte of an integer (see _fixed_lanes), and OR-ed over the generators."""
    if isinstance(gens, SignedPerm):
        gens = [gens]
    lanes = _fixed_lanes()
    moved = 0
    for g in gens:
        moved |= sum(map(getitem, lanes, g.image))
    return tuple(r for r, b in zip(e8.enumerate_roots(), moved.to_bytes(240, "little"))
                 if not b)


@lru_cache(maxsize=None)
def _fixed_lanes() -> tuple[tuple[int, ...], ...]:
    """lanes[i][t] packs (s d_i - d_j)^2 over the roots d (doubled, in
    enumerate_roots order), one root per byte, for the image entry t = s(j+1);
    negative t index from the end, as in _ext.  Each entry is at most 16, so
    a sum of 8 stays at most 128 in every byte, and it is 0 exactly when the
    element fixes that root."""
    ds = [r.d for r in e8.enumerate_roots()]
    lanes = []
    for i in range(8):
        row = [0] * 17
        for j in range(8):
            for s in (1, -1):
                row[s * (j + 1)] = int.from_bytes(
                    bytes([(s * d[i] - d[j]) ** 2 for d in ds]), "little")
        lanes.append(tuple(row))
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

    With v(e_i) = s_i e_pi(i) and doubled coordinates d = 2r, the pairing is
    (v(r), r) = sum_i s_i d_i d_pi(i) / 4, so it is odd exactly when that
    integer sum is not 0 mod 8.  The sum is taken for all 240 roots at once,
    one root per byte of an integer (see _pairing_lanes)."""
    lanes, low_bits = _pairing_lanes()
    odd = sum(map(getitem, lanes, v.image)) & low_bits
    if not odd:
        return None
    return e8.enumerate_roots()[((odd & -odd).bit_length() - 1) >> 3]


@lru_cache(maxsize=None)
def _pairing_lanes() -> tuple[tuple[tuple[int, ...], ...], int]:
    """lanes[i][t] packs s d_i d_j mod 8 over the roots d (doubled, in
    enumerate_roots order), one root per byte, for the image entry t = s(j+1);
    negative t index from the end, as in _ext.  A sum of 8 entries stays below
    256 in every byte, so its bytes masked by low_bits are the sums mod 8."""
    ds = [r.d for r in e8.enumerate_roots()]
    lanes = []
    for i in range(8):
        row = [0] * 17
        for j in range(8):
            for s in (1, -1):
                row[s * (j + 1)] = int.from_bytes(
                    bytes([s * d[i] * d[j] % 8 for d in ds]), "little")
        lanes.append(tuple(row))
    return tuple(lanes), int.from_bytes(b"\x07" * len(ds), "little")


def involution_class(v: SignedPerm) -> InvolutionClass:
    """Conjugacy class of an involution, by eigenvalue count and root-pairing
    parity.  The count l(v) of -1 eigenvalues is normalized to <= 4 by
    passing to -v; at l = 4 the class is 4A' exactly when every root pairs
    evenly with its image, and 4A when an odd witness exists."""
    if not v.is_involution():
        raise ValueError("element is not an involution")
    if v == SignedPerm.minus_one():
        raise ValueError("central element -1 is excluded")
    lv = (8 - v.trace()) // 2
    negated = False
    if lv > 4:
        v = SignedPerm.minus_one() * v
        lv = 8 - lv
        negated = True
    if lv <= 3:
        return InvolutionClass(_L_LABELS[lv], lv, negated, parity_witness(v))
    w = parity_witness(v)
    return InvolutionClass("4A" if w is not None else "4A'", 4, negated, w)


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


def all_involutions():
    """Every involution in H except the central -1 (17038 elements).

    Each image tuple is written down directly: a transposition (a b) with
    sign s sends e_a to s e_b and e_b to s e_a, a fixed i with sign s sends
    e_i to s e_i."""
    minus = SignedPerm.minus_one().image
    for n_trans in range(5):
        for pairs in _pairings(tuple(range(8)), n_trans):
            moved = [i for pr in pairs for i in pr]
            fixed = [i for i in range(8) if i not in moved]
            # signs: free on each transposition, even number of -1 on fixed
            for pair_signs in product((1, -1), repeat=n_trans):
                image = [0] * 8
                for (a, b), s in zip(pairs, pair_signs):
                    image[a], image[b] = s * (b + 1), s * (a + 1)
                for fixed_signs in product((1, -1), repeat=len(fixed)):
                    if fixed_signs.count(-1) % 2:
                        continue
                    for i, s in zip(fixed, fixed_signs):
                        image[i] = s * (i + 1)
                    img = tuple(image)
                    if img != minus and img != _IDENT_IMG:
                        yield SignedPerm(img)


def _pairings(items: tuple[int, ...], k: int):
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


@lru_cache(maxsize=None)
def four_a_prime_elements() -> tuple[SignedPerm, ...]:
    """All 910 elements of H in the even-pairing involution class, built
    from the shape that is_4a_prime_shape tests: the 70 diagonal elements
    with four -1 entries, and for each of the 105 perfect matchings of the
    coordinates the 8 sign patterns that are constant on its pairs and
    negate an even number of pairs (so the count of -1 entries is 0, 4 or 8)."""
    out = [SignedPerm.diagonal(tuple(-1 if i in minus else 1 for i in range(8)))
           for minus in combinations(range(8), 4)]
    for pairs in _perfect_matchings(tuple(range(8))):
        perm = list(range(8))
        for a, b in pairs:
            perm[a], perm[b] = b, a
        for pair_signs in product((1, -1), repeat=4):
            if pair_signs.count(-1) % 2:
                continue
            eps = [0] * 8
            for (a, b), s in zip(pairs, pair_signs):
                eps[a] = eps[b] = s
            out.append(SignedPerm.from_eps_perm(tuple(eps), tuple(perm)))
    return tuple(sorted(out, key=lambda v: v.image))


# ---------------------------------------------------------------------------
# order-4 elements over the even-pairing class


@record(frozen=True)
class Order4Shape:
    case: str            # "i" (square of permutation part trivial) or "ii"
    transpositions: int  # for case i: 2, 3 or 4; for case ii: 0
    trace: int


def classify_order4(v: SignedPerm) -> Order4Shape:
    """Normal-form shape of an order-4 element whose square is in the
    even-pairing class: either the permutation part is an involution made of
    2, 3 or 4 transpositions (case i), or it is a pair of disjoint 4-cycles
    with signs constant on both (case ii)."""
    if v.order() != 4:
        raise ValueError("element does not have order 4")
    sq = v * v
    if involution_class(sq).label != "4A'":
        raise ValueError("square is not in the even-pairing class")
    tr = v.trace()
    if tr % 2 or not -4 <= tr <= 4:
        raise CheckFailure("order-4 element %r has trace %d" % (v, tr))
    cycles = [len(c) for c, _ in v.signed_cycles()]
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


def square_roots(c: SignedPerm) -> tuple[SignedPerm, ...]:
    """All v in H with v*v = c, sorted by image.

    The permutation part p of v must satisfy p(p(i)) = pi_c(i); those p are
    found by backtracking (_perm_square_roots).  Writing v(e_i) = s_p(i) e_p(i)
    and c(e_i) = t_pi_c(i) e_pi_c(i), v*v = c asks s_j s_p(j) = t_p(j) for
    every j.  Along a cycle of p the first sign is free and fixes the rest;
    the cycle is consistent exactly when the t over it multiply to +1, and a
    lift lies in H when all its signs multiply to +1."""
    ceps = c.eps()
    out = []
    for p in _perm_square_roots(c.perm()):
        cycles = _cycles(p)
        if any(prod(ceps[j] for j in cyc) != 1 for cyc in cycles):
            continue
        for starts in product((1, -1), repeat=len(cycles)):
            eps = [0] * 8
            for cyc, s in zip(cycles, starts):
                for j in cyc:
                    eps[j] = s
                    s *= ceps[p[j]]
            if prod(eps) == 1:
                out.append(SignedPerm.from_eps_perm(tuple(eps), p))
    return tuple(sorted(out, key=lambda v: v.image))


def _perm_square_roots(target: tuple[int, ...]):
    """Every permutation p of range(8) with p(p(i)) = target(i).  Choosing
    p(i) = j forces p(j) = target(i), which forces the next value in turn;
    the backtracking branches only on the least unassigned i."""
    p, taken = [-1] * 8, [False] * 8

    def assign(i: int, j: int, trail: list[int]) -> bool:
        while p[i] < 0:
            if taken[j]:
                return False
            p[i] = j
            taken[j] = True
            trail.append(i)
            i, j = j, target[i]
        return p[i] == j

    def extend(i: int):
        while i < 8 and p[i] >= 0:
            i += 1
        if i == 8:
            yield tuple(p)
            return
        for j in range(8):
            trail: list[int] = []
            if assign(i, j, trail):
                yield from extend(i + 1)
            for k in trail:
                taken[p[k]] = False
                p[k] = -1

    yield from extend(0)


# ---------------------------------------------------------------------------
# obstruction searches


@record(frozen=True)
class Z24Report:
    average_fixed_dim: Fraction
    verdict: str
    max_all_even_rank: int
    rank2_example: tuple[SignedPerm, SignedPerm]
    units: int                    # budget units the search charged


def search_z2_4_obstruction(budget: int = 20_000_000) -> Z24Report:
    """Averaging obstruction for a (Z_2)^4 all of whose involutions have the
    even-pairing type, plus an exhaustive search inside H confirming that no
    such subgroup exists (the best possible rank is 3).

    Every element that gets multiplied is an atom or the identity, so the
    elements are interned as indices (atoms first, then the identity, then
    any other product met) and each product of two indices is computed once
    and kept in a table for the rest of the call.  Every product asked for
    is still charged, so the budget counts the same work as a search that
    multiplies image tuples afresh."""
    avg = Fraction(8 + 15 * 0, 16)
    elts = [v.image for v in four_a_prime_elements()]
    n_atoms = len(elts)
    elts.append(_IDENT_IMG)
    n_elts = len(elts)
    index = {img: k for k, img in enumerate(elts)}
    ext = [_ext(a).__getitem__ for a in elts]
    table: dict[int, int] = {}

    def mul(i: int, j: int) -> int:
        """Index of elts[i] * elts[j]; at least n_atoms unless it is an atom."""
        key = i * n_elts + j
        k = table.get(key)
        if k is None:
            k = table[key] = index.setdefault(tuple(map(ext[i], elts[j])), len(index))
        return k

    counter = [0]

    def charge(n=1):
        counter[0] += n
        if counter[0] > budget:
            raise SearchBudgetExceeded("budget %d exhausted" % budget)

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

    max_rank = 0
    best_pair: tuple[int, int] | None = None

    def grow(subgroup: list[int], gens: list[int], pool: list[int]):
        nonlocal max_rank, best_pair
        max_rank = max(max_rank, len(gens))
        if len(gens) == 2 and best_pair is None:
            best_pair = (gens[0], gens[1])
        if len(gens) == 4:
            raise CheckFailure("found an all-even-pairing (Z2)^4: %r"
                               % ([elts[g] for g in gens],))
        for idx, h in enumerate(pool):
            new_elts = closed_extension(subgroup, h)
            if new_elts is None:
                continue
            sub2 = subgroup + new_elts
            pool2 = []
            for h2 in pool[idx + 1:]:
                charge(len(new_elts))
                if all(mul(h2, g) == mul(g, h2) for g in new_elts):
                    pool2.append(h2)
            grow(sub2, gens + [h], pool2)

    # conjugating the whole subgroup moves its first generator to one of the
    # two H-class representatives, so two starting points suffice
    d0 = SignedPerm.diagonal((-1, -1, -1, -1, 1, 1, 1, 1)).image
    pperm = SignedPerm.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)]).image
    for start in (d0, pperm):
        g1 = index.get(start, n_atoms)
        if g1 >= n_atoms:
            raise CheckFailure("start %r is not of even-pairing type" % (start,))
        level1 = []
        for h in range(n_atoms):
            if h == g1:
                continue
            charge()
            if mul(g1, h) != mul(h, g1):
                continue
            if closed_extension([g1], h) is not None:
                level1.append(h)
        grow([n_atoms, g1], [g1], level1)

    if best_pair is None:
        raise CheckFailure("no commuting pair of even-pairing involutions")
    return Z24Report(avg, "no (Z2)^4 with all involutions of even-pairing type",
                     max_rank, (SignedPerm(elts[best_pair[0]]), SignedPerm(elts[best_pair[1]])),
                     counter[0])


@record(frozen=True)
class Q8Report:
    trace_values: tuple[int, ...]          # traces of admissible order-4 elements
    trace_triples: tuple[tuple[int, int, int], ...]
    verdict: str
    units: int                             # budget units the search charged


def _perm_mask(image: Img) -> tuple[tuple[int, ...], int]:
    """(permutation part, sign mask) of an image tuple: the permutation sends
    i to |image[i]| - 1, and bit i of the mask is set when image[i] < 0."""
    return (tuple(abs(t) - 1 for t in image),
            sum(1 << i for i, t in enumerate(image) if t < 0))


def _root_products(roots: tuple[SignedPerm, ...]):
    """For each a in roots, in order, the list of index pairs (j, k) with
    a * roots[j] == roots[k].

    With a = (p_a, m_a) and b = (p_b, m_b) as in _perm_mask, a * b has
    permutation part p_a . p_b and sign mask m_b XOR (m_a permuted by p_b),
    whose bit i is bit p_b(i) of m_a.  The roots are grouped by permutation
    part, so each a composes permutations once per group, skips a group
    whose composite is the permutation part of no root, and otherwise tests
    each b of the group with one XOR and one lookup."""
    pm = [_perm_mask(v.image) for v in roots]
    by_perm: dict[tuple[int, ...], dict[int, int]] = {}
    for k, (p, m) in enumerate(pm):
        by_perm.setdefault(p, {})[m] = k
    groups = [(p_b, tuple(members.items())) for p_b, members in by_perm.items()]
    for p_a, m_a in pm:
        row = []
        for p_b, members in groups:
            found = by_perm.get(tuple(map(p_a.__getitem__, p_b)))
            if found is None:
                continue
            x = sum(((m_a >> q) & 1) << i for i, q in enumerate(p_b))
            for m_b, j in members:
                k = found.get(m_b ^ x)
                if k is not None:
                    row.append((j, k))
        yield row


def search_q8_obstruction(budget: int = 4_000_000) -> Q8Report:
    """Trace obstruction for quaternionic subgroups acting on both lattice
    factors.

    Enumerates, up to conjugacy of the central involution, all pairs (a, b)
    in H with a^2 = b^2 = c central of even-pairing type and b a b^-1 =
    a^-1, records the realizable trace triples (tr a, tr b, tr ab), and
    checks that no two triples sum to (-4, -4, -4) coordinatewise.

    Given a^2 = b^2 = c, b a b^-1 = a^-1 holds exactly when (ab)^2 = c:
    b a = a^-1 b gives abab = b^2 = c, and abab = c = b^2 gives aba = b.
    So a pair qualifies exactly when ab is again a square root of c; every
    one of the |square_roots(c)|^2 pairs is tested (see _root_products) and
    charged one unit of budget, row by row."""
    d0 = SignedPerm.diagonal((-1, -1, -1, -1, 1, 1, 1, 1))
    pperm = SignedPerm.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)])
    triples: set[tuple[int, int, int]] = set()
    traces: set[int] = set()
    steps = 0
    for c in (d0, pperm):
        roots = square_roots(c)
        trace = [v.trace() for v in roots]
        traces.update(trace)
        for tr_a, row in zip(trace, _root_products(roots)):
            steps += len(roots)
            if steps > budget:
                raise SearchBudgetExceeded("budget %d exhausted" % budget)
            triples.update((tr_a, trace[j], trace[k]) for j, k in row)
    want = (-4, -4, -4)
    hit = [(t1, t2) for t1 in triples for t2 in triples
           if tuple(x + y for x, y in zip(t1, t2)) == want]
    verdict = ("no pair of realizable trace triples sums to (-4,-4,-4)"
               if not hit else "OBSTRUCTION FAILED: %r" % hit)
    if hit:
        raise CheckFailure(verdict)
    return Q8Report(tuple(sorted(traces)), tuple(sorted(triples)), verdict, steps)
