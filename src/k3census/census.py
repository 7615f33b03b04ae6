"""Census of admissible fixed-point data for odd-prime symplectic actions.

The candidate vocabulary is the catalogue of local fixed-point structures
of a symplectic prime-order action on a minimal symplectic 4-manifold with
vanishing c1^2: isolated-point groups of types (1)-(4), chain-of-spheres
groups attached to affine ADE graphs, and tori of self-intersection zero.
Group parameters are residues k mod p, and every numerical consequence
(Euler numbers, signatures, signature defects, Dirac characters) is
evaluated exactly by the gindex module, never read off from tables.  The
signature and the Dirac character of a group are characters of Z_p, so
their values at g^k are the Galois conjugates sigma_k (zeta -> zeta^k) of
their values at g (Hirzebruch-Zagier 1974): delta_values and nu_values sum
each group's points once, at k = 1, and conjugate for every other k.

One pipeline serves every prime in GROUP_TYPES.  Stage 1 solves the
Lefschetz and averaged-signature equations for the group counts of each
pair of lattice representations; refinement keeps the residue assignments
that satisfy the exact signature identity, one per relabelling orbit, and
compares their signatures as packed integers; the filters apply the
Dirac-character mod-p test to the sum of the candidate's nu_values
entries, the quotient index bound and the boundary Kirby-Siebenmann
congruence.  Expected outcome lists live in the test suite only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb, lcm, prod

from . import e8, gindex, linalg, reps
from .cyclotomic import CycNum, embed_str
from .errors import CheckFailure
from .gindex import FixedPointData
from .record import record
from .reps import RepDecomp
from .sgnperm import pairings

# local rotation numbers of one group of each type, as multiples of the
# group parameter k; surfaces are (genus, selfint, c-multiple)
GROUP_TYPES: dict[int, dict[str, dict]] = {
    5: {
        "1": {"points": ((1, -1),), "surfaces": ()},
        "3": {"points": ((1, 2), (-1, 4), (-1, 4)), "surfaces": ()},
        "4": {"points": ((1, 1), (-1, 3), (-1, 3), (-1, 3)), "surfaces": ()},
        "A4~": {"points": ((-3, -1), (-3, -1), (3, 3)), "surfaces": ((0, -2, 1),)},
    },
    7: {
        "1": {"points": ((1, -1),), "surfaces": ()},
        "2": {"points": ((2, 3), (-1, 6)), "surfaces": ()},
        "3": {"points": ((1, 2), (-1, 4), (-1, 4)), "surfaces": ()},
    },
}

# the paper's names for the p = 5 candidates: without chain groups, with
# chain groups, and the one profile outside the elimination table
PAPER_LABELS = {5: (("a", "b", "c", "d", "e", "f"), ("i", "ii", "iii", "iv"), "base")}

FILTERS = ("fang", "furuta", "ks_rochlin")


@lru_cache(maxsize=None)
def group_data(p: int, typ: str, k: int) -> FixedPointData:
    """Fixed-point data of a single type-`typ` group at parameter k."""
    spec = GROUP_TYPES[p][typ]
    pts = tuple((a * k, b * k) for a, b in spec["points"])
    surf = tuple((g, si, c * k) for g, si, c in spec["surfaces"])
    return FixedPointData(p, pts, surf)


def group_signature(p: int, typ: str, k: int) -> CycNum:
    return gindex.signature_g(group_data(p, typ, k))


def group_spin(p: int, typ: str, k: int) -> CycNum:
    return gindex.spin_value(group_data(p, typ, k))


@lru_cache(maxsize=None)
def group_defect(p: int, typ: str) -> Fraction:
    """Total signature defect of one group (k-independent), certified as the
    Galois trace of its signature contribution at k = 1 (the parameters k
    are the powers of g, whose contributions are the conjugates)."""
    d = group_data(p, typ, 1)
    total = sum((gindex.point_defect(p, a, b) for a, b in d.isolated), Fraction(0))
    total += sum((gindex.surface_defect(p, si) for _, si, _ in d.surfaces), Fraction(0))
    trace = gindex.galois_trace(delta_values(p)[typ][1], p)
    if total != trace:
        raise CheckFailure("p=%d type %s: defects sum to %s, the trace of its signature is %s"
                           % (p, typ, total, trace))
    return total


def group_residues(p: int, typ: str) -> tuple[int, ...]:
    """Parameters k of a group of this type: one per class {k, -k}, as every
    filter input is even in k; chain groups are taken at k = 1 only."""
    return (1,) if GROUP_TYPES[p][typ]["surfaces"] else tuple(range(1, (p + 1) // 2))


def _galois_table(p: int, at_one) -> dict[str, dict[int, CycNum]]:
    """Per type, at_one(p, typ, 1) at k = 1 and its Galois conjugate sigma_k
    at every other parameter k in 1..(p-1)/2.  Right for a character value
    of Z_p: g^k acts on the same fixed set with every rotation number times
    k, which is sigma_k applied to each point and surface term."""
    out = {}
    for typ in GROUP_TYPES[p]:
        x = at_one(p, typ, 1)
        out[typ] = {k: x if k == 1 else x.promoted(p).galois(k) for k in range(1, (p + 1) // 2)}
    return out


@lru_cache(maxsize=None)
def delta_values(p: int) -> dict[str, dict[int, CycNum]]:
    """Exact signature contribution of one group per type and parameter k,
    summed at k = 1 and Galois-conjugated to the other k."""
    return _galois_table(p, group_signature)


@lru_cache(maxsize=None)
def delta_coordinates(p: int) -> tuple[int, dict[str, dict[int, tuple[int, ...]]]]:
    """delta_values(p) as integer vectors on the power basis of Q(zeta_p) over
    one common denominator; sums are equal as CycNums iff their vectors are."""
    table = {t: {k: v.promoted(p).coeffs for k, v in per.items()}
             for t, per in delta_values(p).items()}
    den = lcm(*(c.denominator for per in table.values() for xs in per.values() for c in xs))
    return den, {t: {k: tuple(int(c * den) for c in xs) for k, xs in per.items()}
                 for t, per in table.items()}


@lru_cache(maxsize=None)
def nu_values(p: int) -> dict[str, dict[int, CycNum]]:
    """Exact Dirac character of one group per type and parameter k, summed
    at k = 1 and Galois-conjugated to the other k."""
    return _galois_table(p, group_spin)


def decimal(x: CycNum, digits: int) -> str:
    """x with min(digits, 5) decimals, the precision of the published tables."""
    return embed_str(x, min(digits, 5))


def decimal_table(table, digits: int) -> dict:
    return {typ: {k: decimal(v, digits) for k, v in per.items()} for typ, per in table.items()}


# ---------------------------------------------------------------------------
# profiles


@record(frozen=True, order=True)
class ThetaProfile:
    """The two lattice-factor representations of the generator."""

    p: int
    first: RepDecomp
    second: RepDecomp

    def __post_init__(self):
        allowed = set(reps.lemma45_census(self.p))
        allowed.add(RepDecomp(self.p, 0, 0, 8))  # degenerate (trivial) factor
        for dec in (self.first, self.second):
            if dec not in allowed:
                raise ValueError("%r is not an admissible factor representation" % (dec,))

    def in_elimination_table(self) -> bool:
        """Some factor has a regular summand (else the profile is the base)."""
        return self.first.r + self.second.r > 0

    def label(self) -> str:
        return "(%d,%d,%d)x(%d,%d,%d)" % (self.first.as_rts() + self.second.as_rts())

    def lefschetz_total(self) -> int:
        """chi(F) = 2 + 3*2 + trace on the two definite factors."""
        return 8 + self.first.trace() + self.second.trace()

    def sign_target(self) -> int:
        """Sign(g, M) forced by the representation: s1 + s2 - t1 - t2."""
        return self.first.s + self.second.s - self.first.t - self.second.t

    def quotient_b2plus(self) -> int:
        return 3

    def quotient_b2minus(self) -> int:
        return 3 + self.first.fixed_rank() + self.second.fixed_rank()

    def max_tori(self) -> int:
        return (self.first.s + self.second.s) // 2


def nontrivial_profiles(p: int) -> tuple[ThetaProfile, ...]:
    """All profiles with both factor representations nontrivial, those with
    more regular summands first."""
    entries = reps.lemma45_census(p)
    out = [ThetaProfile(p, d1, d2) for i, d1 in enumerate(entries) for d2 in entries[i:]]
    return tuple(sorted(out, key=lambda pr: (-pr.first.r - pr.second.r, pr.label())))


# ---------------------------------------------------------------------------
# stage 1 and refinement


def stage1(profile: ThetaProfile) -> tuple[tuple[int, ...], ...]:
    """Group counts n_t >= 0, one per type of GROUP_TYPES[p], with
    sum n_t chi_t = chi(F) (Lefschetz) and sum n_t def_t = 16 - p fix
    (averaged signature with Sign(M) = -16 and Sign(M/G) = -fix).  Both
    sides of the signature equation are scaled by the lcm of the defects'
    denominators, so it is compared in integers.  The counts of all types
    but the last are enumerated in lexicographic order with their running
    Euler and scaled defect sums, each count bounded by the Euler
    characteristic still left; the last count is what the rest leaves."""
    p = profile.p
    *euler, last = [group_data(p, t, 1).euler_characteristic() for t in GROUP_TYPES[p]]
    defect = [group_defect(p, t) for t in GROUP_TYPES[p]]
    den = lcm(*(d.denominator for d in defect))
    scaled = [d.numerator * (den // d.denominator) for d in defect]
    chi = profile.lefschetz_total()
    rhs = den * (16 - p * (profile.first.fixed_rank() + profile.second.fixed_rank()))
    heads = [((), 0, 0)]  # (counts, their Euler sum, their scaled defect sum)
    for e, sd in zip(euler, scaled):
        heads = [(ns + (k,), eu + k * e, sg + k * sd)
                 for ns, eu, sg in heads for k in range((chi - eu) // e + 1)]
    out = []
    for ns, eu, sg in heads:
        k, rest = divmod(chi - eu, last)
        if not rest and sg + k * scaled[-1] == rhs:
            out.append(ns + (k,))
    return tuple(out)


def chain_groups(p: int, counts) -> int:
    """Number of chain groups (types with fixed surfaces) among the counts."""
    return sum(n for n, spec in zip(counts, GROUP_TYPES[p].values()) if spec["surfaces"])


def relabel(p: int, residues, c: int):
    """The same assignment seen by g^c: point-group parameters k -> c k
    (up to sign); chain groups stay at k = 1."""
    return tuple(ks if spec["surfaces"] else tuple(sorted(min(c * k % p, -c * k % p) for k in ks))
                 for spec, ks in zip(GROUP_TYPES[p].values(), residues))


def refine(profile: ThetaProfile, counts) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Assignments of residues to the counted groups whose exact signature,
    summed from delta_values(p), equals Sign(g, M); one per relabelling orbit,
    the lexicographically smallest tuple of sorted per-type residues.

    Each integer vector of delta_coordinates(p) is packed into one integer
    (linalg.pack), so a sum of vectors is a sum of integers.  No sum of the
    assignment's vectors has an entry above S = sum over types of n_t times
    the type's largest |entry|, and the target Sign(g, M) den has one
    entry; the lanes are certified for both (linalg.lane_width), so equal
    packed sums mean equal vectors.  The sums of every type but the last
    are matched against a table of the last type's packed sums."""
    p = profile.p
    den, vectors = delta_coordinates(p)
    target = profile.sign_target() * den
    bound = max(abs(target), sum(n * max(map(abs, chain.from_iterable(vectors[typ].values())))
                                 for typ, n in zip(GROUP_TYPES[p], counts)))
    bits = linalg.lane_width(bound, "census.refine")
    packed = _packed_deltas(p, bits)
    *head, last = ([(combo, sum(map(packed[typ].__getitem__, combo)))
                    for combo in combinations_with_replacement(group_residues(p, typ), n)]
                   for typ, n in zip(GROUP_TYPES[p], counts))
    completions: dict[int, list] = {}
    for combo, value in last:
        completions.setdefault(target - value, []).append(combo)
    partial = [((), 0)]
    for options in head:
        partial = [(res + (combo,), total + value)
                   for res, total in partial for combo, value in options]
    found = set()
    for res, total in partial:
        for combo in completions.get(total, ()):
            res_c = res + (combo,)  # sorted residues, so g^1 leaves them as they are
            found.add(min([res_c] + [relabel(p, res_c, c) for c in range(2, (p + 1) // 2)]))
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _packed_deltas(p: int, bits: int) -> dict[str, dict[int, int]]:
    """delta_coordinates(p) with each vector packed into lanes of the
    given width."""
    return {typ: {k: linalg.pack(xs, bits) for k, xs in per.items()}
            for typ, per in delta_coordinates(p)[1].items()}


# ---------------------------------------------------------------------------
# candidates, filters and the run


@record(frozen=True)
class Audit:
    candidate_id: str
    filter_name: str
    verdict: str
    detail: str


@record(frozen=True)
class Candidate:
    """One refined assignment: residues[i] lists the parameters k of the
    groups of the i-th type of GROUP_TYPES[p]."""

    cid: str
    profile: ThetaProfile
    residues: tuple[tuple[int, ...], ...]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(ks) for ks in self.residues)

    def chain_groups(self) -> int:
        return chain_groups(self.profile.p, self.counts())

    def fixed_point_data(self) -> FixedPointData:
        p = self.profile.p
        parts = [group_data(p, t, k) for t, ks in zip(GROUP_TYPES[p], self.residues) for k in ks]
        return FixedPointData(p, tuple(x for d in parts for x in d.isolated),
                              tuple(s for d in parts for s in d.surfaces))


@record(frozen=True)
class CensusRun:
    p: int
    digits: int
    stage1: tuple[tuple[ThetaProfile, tuple], ...]   # (profile, group counts)
    candidates: tuple[Candidate, ...]
    audits: tuple[Audit, ...]
    survivors: tuple[str, ...]
    structure: dict
    stats: dict


def candidate_id(profile: ThetaProfile, counts, residues=None) -> str:
    """Audit ID of a stage-1 solution, or of one residue assignment."""
    cid = "%s n=%s" % (profile.label(), ",".join(map(str, counts)))
    return cid if residues is None else "%s k=%r" % (cid, residues)


def _filter(cand: Candidate, digits: int, audits: list[Audit]) -> None:
    """A verdict of each filter on every candidate.  Fang and Furuta run on
    all of them.  Kirby-Siebenmann runs on the pseudofree ones both leave
    alive, as its congruence presumes the action exists and needs isolated
    fixed points only; every other candidate gets the verdict
    "not_applicable" with the reason.  Its residue Sign(N) + sum roc must
    first be 8 d_0 mod 16 (d_0 the first Dirac entry), else CheckFailure."""
    data = cand.fixed_point_data()
    p, nu = data.p, nu_values(data.p)
    # the Dirac character is additive over the groups
    spin_exact = sum((nu[t][k] for t, ks in zip(GROUP_TYPES[p], cand.residues) for k in ks),
                     CycNum.rational(0))
    spin = gindex.spin_number(data, spin_exact, ind_dirac=2)
    fang = gindex.fang_test(spin, b2plus=3)
    audits.append(Audit(cand.cid, "fang", fang, "spin=%s (%s), d=%s"
                        % (spin_exact, decimal(spin_exact, digits), spin.d)))
    b2m = cand.profile.quotient_b2minus()
    furuta = gindex.furuta_test(spin.d[0], cand.profile.quotient_b2plus(), b2m)
    audits.append(Audit(cand.cid, "furuta", furuta,
                        "ind D = d0 = %d, window (-%d, %d)" % (spin.d[0], b2m, 3)))
    if not data.is_pseudofree():
        audits.append(Audit(cand.cid, "ks_rochlin", "not_applicable",
                            "not pseudofree (fixed surfaces: %d)" % len(data.surfaces)))
    elif fang != "survives" or furuta != "survives":
        audits.append(Audit(cand.cid, "ks_rochlin", "not_applicable",
                            "ruled out by %s" % ("fang" if fang != "survives" else "furuta")))
    else:
        lens = sorted(gindex.lens_space(data.p, a, b) for a, b in data.isolated)
        sign_n = int(gindex.orbifold_signature(data.p, -16, data))
        total = sign_n + sum(gindex.rochlin(p, q) for p, q in lens)
        if (total - 8 * spin.d[0]) % 16:
            raise CheckFailure("%s: Sign(N) + sum roc = %d, not 8 d0 mod 16" % (cand.cid, total))
        ks = gindex.ks_rochlin_test(lens, sign_n)
        audits.append(Audit(cand.cid, "ks_rochlin", "survives" if ks.smoothable else "ruled_out",
                            "Sign(N)=%d, boundary=%s, ks=%d" % (sign_n, lens, ks.ks)))


def run_census(p: int, digits: int = 5) -> CensusRun:
    """Stage 1, refinement and the filter chain over every profile of p."""
    profiles = nontrivial_profiles(p)
    stages = tuple((pr, stage1(pr)) for pr in profiles)
    audits: list[Audit] = []
    cands = []
    scanned = 0
    for pr, solutions in stages:
        for counts in solutions:
            scanned += prod(comb(len(group_residues(p, t)) + n - 1, n)
                            for t, n in zip(GROUP_TYPES[p], counts))
            found = refine(pr, counts)
            audits.append(Audit(candidate_id(pr, counts), "exact_signature",
                                "survives" if found else "ruled_out",
                                "residue assignments attaining Sign(g) = %d, up to relabelling: %d"
                                % (pr.sign_target(), len(found))))
            cands += [Candidate(candidate_id(pr, counts, res), pr, res) for res in found]
    # within a profile: more chain groups first, then residues descending;
    # across profiles: candidates without chain groups first
    cands.sort(key=lambda c: (c.chain_groups(), c.residues), reverse=True)
    cands.sort(key=lambda c: (c.chain_groups() > 0, profiles.index(c.profile)))
    if p in PAPER_LABELS:
        plain, chained, base = PAPER_LABELS[p]
        plain, chained = iter(plain), iter(chained)
        cands = [Candidate(next(chained if c.chain_groups() else plain)
                           if c.profile.in_elimination_table() else base, c.profile, c.residues)
                 for c in cands]
    for c in cands:
        _filter(c, digits, audits)
    verdicts = {(a.candidate_id, a.filter_name): a.verdict for a in audits}
    n_solutions = sum(len(sols) for _, sols in stages)
    stats = {"stage1": {"in": len(profiles), "out": n_solutions},
             "refinement": {"in": n_solutions, "assignments": scanned, "out": len(cands)}}
    alive = cands
    for name in FILTERS:
        left = []
        for c in alive:
            try:
                verdict = verdicts[c.cid, name]
            except KeyError:
                raise CheckFailure("candidate %s has no %s verdict" % (c.cid, name)) from None
            if verdict != "ruled_out":
                left.append(c)
        stats[name] = {"in": len(alive), "out": len(left)}
        alive = left
    stats["audits"] = {}
    for a in audits:
        counts = stats["audits"].setdefault(a.filter_name, {"survives": 0, "ruled_out": 0})
        counts[a.verdict] = counts.get(a.verdict, 0) + 1
    survivors = tuple(c.cid for c in alive if c.profile.in_elimination_table())
    structure = STRUCTURE[p](cands, survivors, stages)
    return CensusRun(p, digits, stages, tuple(cands), tuple(audits), survivors, structure, stats)


def run_p5(digits: int = 5) -> CensusRun:
    return run_census(5, digits)


def solve_p7(digits: int = 5) -> CensusRun:
    return run_census(7, digits)


# the stage names bench/layers.py traces
refine_p5 = refine
p7_stage1 = stage1


# ---------------------------------------------------------------------------
# the theorem each prime's census proves, read off its run


def _structure_p5(cands, survivors, stages) -> dict:
    alive = [c for c in cands if c.cid in survivors]
    return {
        "fourteen_points": [c.cid for c in alive if not c.chain_groups()],
        "sl2_core_family": sorted([c.cid for c in cands if not c.profile.in_elimination_table()]
                                  + [c.cid for c in alive if c.chain_groups()]),
        "max_tori": {c.cid: c.profile.max_tori() for c in cands},
        "max_chain_groups": max((chain_groups(5, n) for _, sols in stages for n in sols),
                                default=0),
    }


# the p = 7 survivor's isolated points as multiples of its two-point class k
P7_POINTS = (("(2k,3k)", (2, 3), 2), ("(-k,-k)", (-1, -1), 2),
             ("(2k,4k)", (2, 4), 2), ("(-2k,k)", (-2, 1), 4))


def _structure_p7(cands, survivors, stages) -> dict:
    alive = [c for c in cands if c.cid in survivors]
    if not alive:
        return {}
    first = alive[0]
    k = first.residues[1][0]
    points = FixedPointData(7, tuple((a * k, b * k) for _, (a, b), n in P7_POINTS
                                     for _ in range(n)))
    if points != first.fixed_point_data():
        raise CheckFailure("survivor %s does not have the points %r" % (first.cid, P7_POINTS))
    return {
        "points": {name: n for name, _, n in P7_POINTS},
        "k_examples": sorted({relabel(7, first.residues, c)[1][0] for c in (1, 2, 3)}),
        "equal_k_forced": all(len(set(c.residues[1])) == 1 and len(set(c.residues[2])) == 1
                              for c in alive),
        "type3_class_is_doubled": all(2 * c.residues[1][0] % 7 in (c.residues[2][0],
                                                                  7 - c.residues[2][0])
                                      for c in alive),
    }


STRUCTURE = {5: _structure_p5, 7: _structure_p7}


# ---------------------------------------------------------------------------
# admissible chain-group catalogue


def admissible_gamma_types(p: int) -> dict:
    """Which affine chain components can carry fixed points: the cycle
    count congruences (n = -1 mod p for the A-cycles, n = 4 mod p for the
    D-graphs) plus the requirement that the corresponding root lattice embed
    in the fixed sublattice of an admissible representation."""
    if p not in (5, 7):
        raise ValueError("chain-group catalogue is stated for p in {5, 7}")
    results = {}
    census = reps.lemma45_census(p)
    witnesses = {}
    for dec in census:
        m = reps.coxeter_witness(p, (dec.r, dec.s, dec.t))
        if m is None:
            continue
        witnesses[dec.as_rts()] = _matrix_fixed_roots(m)
    max_fix = max(d.fixed_rank() for d in census)
    graphs = [("A%d" % n, n, (n + 1) % p, "cycle length %d not divisible by %d" % (n + 1, p))
              for n in range(1, 9)]
    graphs += [("D%d" % n, n, (n - 4) % p, "graph size %d is not 4 mod %d" % (n, p))
               for n in (4, 9)]
    for name, n, residue, reason in graphs:
        if residue:
            results[name + "~"] = (False, reason)
        elif n > max_fix:
            results[name + "~"] = (False, "rank %d exceeds every fixed sublattice" % n)
        else:
            ok = any(e8.root_subsystem_type(rootset, name if name[0] == "A" else "D4")
                     for rootset in witnesses.values())
            results[name + "~"] = (bool(ok), "fixed root sublattice search")
    for label in ("E6~", "E7~", "E8~"):
        results[label] = (False, "no free symmetry of the graph; full rank exceeds fixed sublattice")
    return results


def _matrix_fixed_roots(m) -> tuple:
    out = []
    for r in e8.enumerate_roots():
        coords = e8.f_coordinates(r)
        img = tuple(sum(m[i][j] * coords[j] for j in range(8)) for i in range(8))
        if img == coords:
            out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------
# quaternionic fixture (order-4 fixed point counts)


@record(frozen=True)
class Q8Fixture:
    solutions: tuple[tuple[int, int], ...]   # (s_plus, s_minus)
    eliminations: dict
    forced_fixed_points: int


def q8_fixture_solver() -> Q8Fixture:
    """Solve 2 + t - (14 - t) = s+ + s- and 4(6 - t) = -16 + 2 s+ - 2 s-
    over integers with s+, s- >= 0 and s+ + s- <= 8, then eliminate the
    6- and 8-point branches by the conjugation combinatorics on the eight
    fixed points of the central involution."""
    sols = []
    for t in range(0, 23):
        s_sum = 2 * t - 12
        s_diff = (24 - 4 * t + 16) // 2
        s_plus = (s_sum + s_diff) // 2
        s_minus = (s_sum - s_diff) // 2
        if (s_sum + s_diff) % 2 or s_plus < 0 or s_minus < 0 or s_plus + s_minus > 8:
            continue
        sols.append((s_plus, s_minus))
    eliminations = {}
    forced = None
    for s_plus, s_minus in sols:
        n = s_plus + s_minus
        ok, reason = _q8_points_consistent(n, s_minus)
        eliminations[n] = (ok, reason)
        if ok:
            if forced is not None:
                raise CheckFailure("more than one consistent branch: %d and %d" % (forced, n))
            forced = n
    if forced != 4:
        raise CheckFailure("forced fixed-point count is %s, not 4" % forced)
    return Q8Fixture(tuple(sorted(sols)), eliminations, forced)


def _q8_points_consistent(n: int, s_minus: int) -> tuple[bool, str]:
    """Can i, j, k = ij each fix exactly n of the central involution's eight
    points?  The generators act as commuting involutions on the eight
    points, and a point fixed by two generators forces the local weights of
    each to be inversion-symmetric, i.e. of (1,3) type; the s_minus points
    of (1,1)/(3,3) type must avoid the other two fixed sets."""
    points = list(range(8))
    if n % 2:
        return False, "an involution moves an even number of points"
    # normalize i to fix 0..n-1 and swap the rest in consecutive pairs
    i_perm = list(range(8))
    for a in range(n, 8, 2):
        i_perm[a], i_perm[a + 1] = i_perm[a + 1], i_perm[a]
    witnesses = []
    for j_perm in _involutions_with_fixed(n):
        if any(j_perm[i_perm[x]] != i_perm[j_perm[x]] for x in points):
            continue  # j must commute with i on the points
        k_perm = [i_perm[j_perm[x]] for x in points]
        if sum(1 for x in points if k_perm[x] == x) != n:
            continue
        fix = [set(x for x in points if pp[x] == x) for pp in (i_perm, j_perm, k_perm)]
        # each generator needs s_minus of its fixed points away from both
        # other fixed sets
        if all(len(fix[a] - fix[(a + 1) % 3] - fix[(a + 2) % 3]) >= s_minus
               for a in range(3)):
            witnesses.append((tuple(j_perm), tuple(k_perm)))
    if witnesses:
        return True, "consistent configuration exists (%d found)" % len(witnesses)
    return False, "no commuting involutions realize %d fixed points each" % n


def _involutions_with_fixed(n: int):
    """Involutive permutations of 8 points with exactly n fixed points."""
    k = (8 - n) // 2
    for pairs in pairings(tuple(range(8)), k):
        perm = list(range(8))
        for a, b in pairs:
            perm[a], perm[b] = b, a
        yield perm


# ---------------------------------------------------------------------------
# odd-type involution fixture


@record(frozen=True)
class InvolutionVerdict:
    admissible: bool
    shape: str | None
    reason: str
    t_dimension: int | None


def involution_fixture_check(components) -> InvolutionVerdict:
    """Admissibility of a proposed fixed surface configuration for an
    odd-type involution: chi + self-intersection vanishes per component,
    negative components are (-2)-spheres (evenness), nonspherical components
    are tori of square zero, and the global shape is one of: empty, two
    tori, or spheres with at most one torus."""
    comps = [(int(g), int(s)) for g, s in components]
    for g, s in comps:
        chi = 2 - 2 * g
        if chi + s != 0:
            return InvolutionVerdict(False, None,
                                     "component (genus %d, square %d) has chi + square = %d"
                                     % (g, s, chi + s), None)
        if s < 0 and s % 2:
            return InvolutionVerdict(False, None, "odd square on an even form", None)
        if g >= 2:
            return InvolutionVerdict(False, None,
                                     "genus %d component cannot be a null class multiple" % g,
                                     None)
    spheres = sum(1 for g, _ in comps if g == 0)
    tori = sum(1 for g, _ in comps if g == 1)
    t_dim = 10 + spheres
    if t_dim > 22:
        return InvolutionVerdict(False, None, "eigenspace dimension %d exceeds b2" % t_dim, None)
    if not comps:
        return InvolutionVerdict(True, "empty", "free action branch", t_dim)
    if spheres == 0 and tori == 2:
        return InvolutionVerdict(True, "two tori", "null classes proportional to one fiber", t_dim)
    if tori <= 1:
        return InvolutionVerdict(True, "spheres plus at most one torus", "", t_dim)
    return InvolutionVerdict(False, None,
                             "%d tori are homologically dependent" % tori, None)


# ---------------------------------------------------------------------------
# machine-readable reports


def report(run: CensusRun) -> dict:
    """Deterministic, JSON-ready record of a census run."""
    return _jsonable({
        "command": "census p%d" % run.p,
        "inputs": {"p": run.p, "profiles": [pr.label() for pr, _ in run.stage1]},
        "stage1": {pr.label(): sols for pr, sols in run.stage1},
        "candidates": [{"id": c.cid, "profile": c.profile.label(), "counts": c.counts(),
                        "residues": c.residues,
                        "in_elimination_table": c.profile.in_elimination_table()}
                       for c in run.candidates],
        "filters": [
            {"candidate": a.candidate_id, "filter": a.filter_name,
             "verdict": a.verdict, "detail": a.detail}
            for a in run.audits
        ],
        "survivors": list(run.survivors),
        "delta_table": decimal_table(delta_values(run.p), run.digits),
        "nu_table": decimal_table(nu_values(run.p), run.digits),
        "structure": run.structure,
        "stats": run.stats,
        "timings": None,
    })


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return str(x)
