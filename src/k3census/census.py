"""Census of admissible fixed-point data for odd-prime symplectic actions.

The candidate vocabulary is the catalogue of local fixed-point structures
of a symplectic prime-order action on a minimal symplectic 4-manifold with
vanishing c1^2: isolated-point groups of types (1)-(4), chain-of-spheres
groups attached to affine ADE graphs, and tori of self-intersection zero.
Group parameters are residues k mod p, and every numerical consequence
(Euler numbers, signatures, signature defects, Dirac characters) is
evaluated exactly by the gindex module, never read off from tables.

Stage 1 solves the Lefschetz + averaged-signature linear system per pair of
lattice representations; refinement enumerates residue splittings against
the exact per-power signature identity; the filters apply the Dirac-character
mod-p test, the quotient index bound, and the boundary Kirby-Siebenmann
congruence.  Expected outcome lists live in the test suite only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from . import e8, gindex, reps
from .cyclotomic import CycNum, embed_str
from .errors import CheckFailure
from .gindex import FixedPointData
from .record import record
from .reps import RepDecomp

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


def group_data(p: int, typ: str, k: int) -> FixedPointData:
    """Fixed-point data of a single type-`typ` group at parameter k."""
    spec = GROUP_TYPES[p][typ]
    pts = tuple((a * k, b * k) for a, b in spec["points"])
    surf = tuple((g, si, c * k) for g, si, c in spec["surfaces"])
    return FixedPointData(p, pts, surf)


def merge_data(parts) -> FixedPointData:
    parts = list(parts)
    p = parts[0].p
    return FixedPointData(p,
                          tuple(pt for d in parts for pt in d.isolated),
                          tuple(s for d in parts for s in d.surfaces))


def group_signature(p: int, typ: str, k: int) -> CycNum:
    return gindex.signature_g(group_data(p, typ, k))


def group_spin(p: int, typ: str, k: int) -> CycNum:
    return gindex.spin_value(group_data(p, typ, k))


def group_defect(p: int, typ: str) -> Fraction:
    """Total signature defect of one group (k-independent)."""
    d = group_data(p, typ, 1)
    total = sum((gindex.point_defect(p, a, b) for a, b in d.isolated), Fraction(0))
    total += sum((gindex.surface_defect(p, si) for _, si, _ in d.surfaces), Fraction(0))
    return total


# ---------------------------------------------------------------------------
# profiles


@record(frozen=True, order=True)
class ThetaProfile:
    """The two lattice-factor representations of the generator."""

    p: int
    first: RepDecomp
    second: RepDecomp

    @classmethod
    def from_rts(cls, p: int, rts1, rts2) -> "ThetaProfile":
        r1, t1, s1 = rts1
        r2, t2, s2 = rts2
        return cls(p, RepDecomp(p, r1, s1, t1), RepDecomp(p, r2, s2, t2))

    def __post_init__(self):
        allowed = set(reps.lemma45_census(self.p))
        allowed.add(RepDecomp(self.p, 0, 0, 8))  # degenerate (trivial) factor
        for dec in (self.first, self.second):
            if dec not in allowed:
                raise ValueError("%r is not an admissible factor representation" % (dec,))

    def is_degenerate(self) -> bool:
        """True when a factor acts trivially; such profiles are accepted by
        the solvers but fall outside the nontrivial-on-both-factors census."""
        trivial = RepDecomp(self.p, 0, 0, 8)
        return self.first == trivial or self.second == trivial

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
    """All profiles with both factor representations nontrivial."""
    entries = reps.lemma45_census(p)
    out = []
    for i, d1 in enumerate(entries):
        for d2 in entries[i:]:
            out.append(ThetaProfile(p, d1, d2))
    return tuple(sorted(out))


def profile_status(profile: ThetaProfile) -> str:
    return ("outside the census hypotheses (a factor acts trivially)"
            if profile.is_degenerate() else "both factors nontrivial")


# ---------------------------------------------------------------------------
# stage 1: the linear system in the group counts


@record(frozen=True)
class StageOneFamily:
    """Affine solution family (u, v) in the free parameters (w, A)."""

    profile: ThetaProfile
    u0: int   # u = u0 - w + A
    v0: int   # v = v0 - w - 2A

    def u(self, w: int, a: int) -> int:
        return self.u0 - w + a

    def v(self, w: int, a: int) -> int:
        return self.v0 - w - 2 * a

    def family_str(self) -> str:
        return "(%d-w+A,%d-w-2A)" % (self.u0, self.v0)

    def solutions(self) -> tuple[tuple[int, int, int, int], ...]:
        out = []
        for a in range(0, max(self.v0, 0) // 2 + 1):   # v >= 0 bounds A
            for w in range(0, max(self.v0, 0) + 1):
                u, v = self.u(w, a), self.v(w, a)
                if u >= 0 and v >= 0:
                    out.append((u, v, w, a))
        return tuple(sorted(out))


def solve_p5_stage1(profile: ThetaProfile) -> StageOneFamily:
    """Solve  u + 3v + 4w + 5A = chi(F)  and
    5(-fix1-fix2) = -16 + 4u - 8v - 4w - 20A  for (u, v) affine in (w, A)."""
    if profile.p != 5:
        raise ValueError("stage-1 family solver is for p = 5")
    c1 = profile.lefschetz_total()
    fix = profile.first.fixed_rank() + profile.second.fixed_rank()
    b4 = 16 - 5 * fix
    if b4 % 4:
        raise CheckFailure("16 - 5*fix = %d is not divisible by 4" % b4)
    b0 = b4 // 4
    # u + 3v = c1 - 4w - 5A ; u - 2v = b0 + w + 5A
    if (c1 - b0) % 5 or (2 * c1 + 3 * b0) % 5:
        raise CheckFailure("stage-1 system of %s has no integral family" % profile.label())
    v0 = (c1 - b0) // 5
    u0 = (2 * c1 + 3 * b0) // 5
    return StageOneFamily(profile, u0, v0)


# ---------------------------------------------------------------------------
# p = 5 refinement


@record(frozen=True, order=True)
class P5Counts:
    """Refined counts: subscript 1 holds the residue classes k = +-1, and
    subscript 2 the classes k = +-2; atilde counts chain groups."""

    z1: int
    z2: int
    v1: int
    v2: int
    w1: int
    w2: int
    atilde: int

    @property
    def x1(self) -> int:
        return 2 * self.v1 + self.w1

    @property
    def x2(self) -> int:
        return 2 * self.v2 + self.w2

    @property
    def y1(self) -> int:
        return self.v1 + 3 * self.w1

    @property
    def y2(self) -> int:
        return self.v2 + 3 * self.w2

    @property
    def u(self) -> int:
        return self.z1 + self.z2

    @property
    def v(self) -> int:
        return self.v1 + self.v2

    @property
    def w(self) -> int:
        return self.w1 + self.w2

    def uvwa(self) -> tuple[int, int, int, int]:
        return (self.u, self.v, self.w, self.atilde)

    def xyz(self) -> tuple[int, int, int, int, int, int]:
        return (self.x1, self.x2, self.y1, self.y2, self.z1, self.z2)

    def relabeled(self) -> "P5Counts":
        """The same candidate seen by g^2 (residue classes swap)."""
        return P5Counts(self.z2, self.z1, self.v2, self.v1, self.w2, self.w1, self.atilde)

    def canonical(self) -> "P5Counts":
        other = self.relabeled()
        return self if (self.x1, self.y1, self.z1) >= (other.x1, other.y1, other.z1) else other

    def fixed_point_data(self) -> FixedPointData:
        parts = []
        for count, typ, k in ((self.z1, "1", 1), (self.z2, "1", 2),
                              (self.v1, "3", 1), (self.v2, "3", 2),
                              (self.w1, "4", 1), (self.w2, "4", 2),
                              (self.atilde, "A4~", 1)):
            parts.extend(group_data(5, typ, k) for _ in range(count))
        if not parts:
            return FixedPointData(5)
        return merge_data(parts)


def refine_p5(profile: ThetaProfile, atilde_positive: bool) -> tuple[P5Counts, ...]:
    """All residue splittings compatible with the stage-1 family, the
    balance constraint z1 - z2 = v1 + w1 - v2 - w2 = 0, and the exact
    per-generator signature identity."""
    fam = solve_p5_stage1(profile)
    target = profile.sign_target()
    euler = gindex.lefschetz(profile.lefschetz_total() - 2)
    found: set[P5Counts] = set()
    for (u, v, w, a) in fam.solutions():
        if (a > 0) != atilde_positive:
            continue
        if u % 2:
            continue
        z1 = z2 = u // 2
        for v1 in range(v + 1):
            v2 = v - v1
            for w1 in range(w + 1):
                w2 = w - w1
                if v1 + w1 != v2 + w2:
                    continue
                cand = P5Counts(z1, z2, v1, v2, w1, w2, a)
                data = cand.fixed_point_data()
                sig = gindex.signature_g(data).as_rational() \
                    if data.isolated or data.surfaces else Fraction(0)
                if sig != target:
                    continue
                # cross-check the Euler characteristic against the trace
                if data.euler_characteristic() != euler:
                    raise CheckFailure("%r has Euler characteristic %d, the trace gives %d"
                                       % (cand, data.euler_characteristic(), euler))
                found.add(cand.canonical())
    return tuple(sorted(found, key=lambda c: (-c.atilde, c.w, c.x1, c.xyz())))


# ---------------------------------------------------------------------------
# filters and the full p = 5 run


@record(frozen=True)
class Audit:
    candidate_id: str
    filter_name: str
    verdict: str
    detail: str


@record(frozen=True)
class Candidate:
    cid: str
    profile: ThetaProfile
    counts: P5Counts
    in_elimination_table: bool


@record(frozen=True)
class CensusRun:
    p: int
    command: str
    profiles: tuple[ThetaProfile, ...]
    families: tuple[tuple[str, str, tuple], ...]
    candidates: tuple[Candidate, ...]
    audits: tuple[Audit, ...]
    survivors: tuple[str, ...]
    structure: dict


def _apply_filters_p5(cand: Candidate, audits: list[Audit]) -> bool:
    data = cand.counts.fixed_point_data()
    spin = gindex.spin_number(data, ind_dirac=2)
    spin_exact = gindex.spin_value(data)
    alive = True
    verdict = gindex.fang_test(spin, b2plus=3, sw_nonzero_mod_p=True)
    audits.append(Audit(cand.cid, "fang", verdict,
                        "spin=%s (%s), d=%s" % (spin_exact, embed_str(spin_exact, 5), spin.d)))
    alive &= verdict == "survives"
    ind_d = spin.d[0]
    b2m = cand.profile.quotient_b2minus()
    verdict = gindex.furuta_test(ind_d, cand.profile.quotient_b2plus(), b2m)
    audits.append(Audit(cand.cid, "furuta", verdict,
                        "ind D = d0 = %d, window (-%d, %d)" % (ind_d, b2m, 3)))
    alive &= verdict == "survives"
    if alive and data.is_pseudofree():
        lens = sorted(gindex.lens_space(5, a, b) for a, b in data.isolated)
        sign_n = int(gindex.orbifold_signature(5, -16, data))
        try:
            ks = gindex.ks_rochlin_test(lens, sign_n)
        except KeyError as missing:
            # only provenance-tagged Rochlin values may eliminate a candidate
            audits.append(Audit(cand.cid, "ks_rochlin", "skipped",
                                "Sign(N)=%d, boundary=%s; %s" % (sign_n, lens, missing)))
        else:
            verdict = "survives" if ks.smoothable else "ruled_out"
            audits.append(Audit(cand.cid, "ks_rochlin", verdict,
                                "Sign(N)=%d, boundary=%s, ks=%d" % (sign_n, lens, ks.ks)))
            alive &= ks.smoothable
    return alive


def run_p5() -> CensusRun:
    profiles = nontrivial_profiles(5)
    families = []
    candidates: list[Candidate] = []
    labels_a0 = iter(("a", "b", "c", "d", "e", "f"))
    labels_a1 = iter(("i", "ii", "iii", "iv"))
    ordered = sorted(profiles, key=lambda pr: (-pr.first.r - pr.second.r, pr.label()))
    for pr in ordered:
        fam = solve_p5_stage1(pr)
        families.append((pr.label(), fam.family_str(), fam.solutions()))
    # the elimination table covers profiles with a regular summand on some
    # factor; the doubly-cyclotomic profile is completely forced at stage 1
    # and is reported as the base structure instead
    for atilde_positive in (False, True):
        for pr in ordered:
            in_table = pr.first.r + pr.second.r > 0
            for counts in refine_p5(pr, atilde_positive):
                if in_table:
                    label = next(labels_a1) if atilde_positive else next(labels_a0)
                else:
                    label = "base"
                candidates.append(Candidate(label, pr, counts, in_table))
    audits: list[Audit] = []
    survivors = []
    for cand in candidates:
        alive = _apply_filters_p5(cand, audits)
        if alive and cand.in_elimination_table:
            survivors.append(cand.cid)
    base = next(c for c in candidates if not c.in_elimination_table)
    # the bound on the number of chain groups is read off the stage-1
    # families, not derived independently
    max_chain = max(a for _, _, sols in families for (_, _, _, a) in sols)
    structure = {
        "fourteen_points": [c.cid for c in candidates
                            if c.cid in survivors and c.counts.atilde == 0],
        "sl2_core_family": sorted([base.cid] + [c.cid for c in candidates
                                                if c.cid in survivors and c.counts.atilde > 0]),
        "max_tori": {c.cid: c.profile.max_tori() for c in candidates},
        "max_chain_groups": max_chain,
    }
    return CensusRun(5, "census p5", tuple(ordered), tuple(families),
                     tuple(candidates), tuple(audits), tuple(survivors), structure)


# ---------------------------------------------------------------------------
# p = 7


@record(frozen=True)
class P7Assignment:
    counts: tuple[int, int, int]              # (u, v, w)
    k_type1: tuple[int, ...]
    k_type2: tuple[int, ...]
    k_type3: tuple[int, ...]

    def cid(self) -> str:
        """Audit and survivor ID: the counts and all three residue tuples."""
        return "uvw=%d,%d,%d k=%r" % (*self.counts, (self.k_type1, self.k_type2, self.k_type3))

    def fixed_point_data(self) -> FixedPointData:
        parts = [group_data(7, "1", k) for k in self.k_type1]
        parts += [group_data(7, "2", k) for k in self.k_type2]
        parts += [group_data(7, "3", k) for k in self.k_type3]
        return merge_data(parts)


@record(frozen=True)
class P7Run:
    command: str
    profile: ThetaProfile
    stage1: tuple[tuple[int, int, int], ...]
    delta_table: dict
    nu_table: dict
    audits: tuple[Audit, ...]
    surviving_assignments: tuple[P7Assignment, ...]
    structure: dict


def p7_stage1(profile: ThetaProfile) -> tuple[tuple[int, int, int], ...]:
    """Integer solutions of u + 2v + 3w = chi(F) and
    7(-fix1-fix2) = -16 + 10u - 8v + 2w."""
    c1 = profile.lefschetz_total()
    rhs = 7 * (-(profile.first.fixed_rank() + profile.second.fixed_rank())) + 16
    out = []
    for u in range(c1 + 1):
        for w in range(c1 // 3 + 1):
            num = c1 - u - 3 * w
            if num < 0 or num % 2:
                continue
            v = num // 2
            if 10 * u - 8 * v + 2 * w == rhs:
                out.append((u, v, w))
    return tuple(sorted(out))


def delta_values(p: int = 7) -> dict[str, dict[int, CycNum]]:
    return {typ: {k: group_signature(p, typ, k) for k in (1, 2, 3)}
            for typ in ("1", "2", "3")}


def nu_values(p: int = 7) -> dict[str, dict[int, CycNum]]:
    return {typ: {k: group_spin(p, typ, k) for k in (1, 2, 3)}
            for typ in ("2", "3")}


def solve_p7() -> P7Run:
    """Stage 1, exact elimination over residue assignments, and the
    mod-p Dirac filter forcing a single residue class."""
    profile = ThetaProfile(7, reps.lemma45_census(7)[0], reps.lemma45_census(7)[0])
    stage1 = p7_stage1(profile)
    target = profile.sign_target()
    audits: list[Audit] = []
    survivors: list[P7Assignment] = []
    deltas = delta_values()
    nus = nu_values()
    for (u, v, w) in stage1:
        cid = "uvw=%d,%d,%d" % (u, v, w)
        exact_hits = []
        for k1 in combinations_with_replacement((1, 2, 3), u):
            for k2 in combinations_with_replacement((1, 2, 3), v):
                for k3 in combinations_with_replacement((1, 2, 3), w):
                    total = CycNum.rational(0)
                    for k in k1:
                        total = total + deltas["1"][k]
                    for k in k2:
                        total = total + deltas["2"][k]
                    for k in k3:
                        total = total + deltas["3"][k]
                    if total == target:
                        exact_hits.append(P7Assignment((u, v, w), k1, k2, k3))
        if not exact_hits:
            audits.append(Audit(cid, "exact_signature", "ruled_out",
                                "no residue assignment attains Sign(g) = %d" % target))
            continue
        audits.append(Audit(cid, "exact_signature", "survives",
                            "%d residue assignments" % len(exact_hits)))
        for hit in exact_hits:
            hid = hit.cid()
            data = hit.fixed_point_data()
            spin = gindex.spin_number(data, ind_dirac=2)
            verdict = gindex.fang_test(spin, b2plus=3)
            audits.append(Audit(hid, "fang", verdict, "d=%s" % (spin.d,)))
            if verdict == "ruled_out":
                continue
            b2m = profile.quotient_b2minus()
            verdict = gindex.furuta_test(spin.d[0], 3, b2m)
            audits.append(Audit(hid, "furuta", verdict,
                                "ind D = %d, window (-%d, 3)" % (spin.d[0], b2m)))
            if verdict == "survives":
                survivors.append(hit)
    # all survivors must share one residue class across both group types
    structure = {}
    if survivors:
        base = survivors[0]
        k = base.k_type2[0]
        structure = {
            "points": {"(2k,3k)": 2, "(-k,-k)": 2, "(2k,4k)": 2, "(-2k,k)": 4},
            "k_examples": sorted({a.k_type2[0] for a in survivors}),
            "equal_k_forced": all(len(set(a.k_type2)) == 1 and len(set(a.k_type3)) == 1
                                  for a in survivors),
            "type3_class_is_doubled": all(
                (2 * a.k_type2[0]) % 7 in (a.k_type3[0], 7 - a.k_type3[0])
                for a in survivors),
        }
    dt = {typ: {k: embed_str(vv, 5) for k, vv in per.items()} for typ, per in deltas.items()}
    nt = {typ: {k: embed_str(vv, 5) for k, vv in per.items()} for typ, per in nus.items()}
    return P7Run("census p7", profile, stage1, dt, nt, tuple(audits),
                 tuple(survivors), structure)


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
    for n in range(1, 9):
        label = "A%d~" % n
        if (n + 1) % p != 0:
            results[label] = (False, "cycle length %d not divisible by %d" % (n + 1, p))
        elif n > max_fix:
            results[label] = (False, "rank %d exceeds every fixed sublattice" % n)
        else:
            ok = any(e8.root_subsystem_type(rootset, "A%d" % n)
                     for rootset in witnesses.values())
            results[label] = (bool(ok), "fixed root sublattice search")
    for n in (4, 9):
        label = "D%d~" % n
        if (n - 4) % p != 0:
            results[label] = (False, "graph size %d is not 4 mod %d" % (n, p))
        elif n > max_fix:
            results[label] = (False, "rank %d exceeds every fixed sublattice" % n)
        else:
            ok = any(e8.root_subsystem_type(rootset, "D4")
                     for rootset in witnesses.values())
            results[label] = (bool(ok), "fixed root sublattice search")
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
        if (24 - 4 * t + 16) % 2:
            continue
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
    moved = 8 - n
    if moved % 2:
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
    from .sgnperm import _pairings

    k = (8 - n) // 2
    for pairs in _pairings(tuple(range(8)), k):
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


def report(run) -> dict:
    """Deterministic, JSON-ready record of a census run."""
    if isinstance(run, CensusRun):
        return _jsonable({
            "command": run.command,
            "inputs": {"p": run.p, "profiles": [pr.label() for pr in run.profiles]},
            "candidates": [
                {
                    "id": c.cid,
                    "profile": c.profile.label(),
                    "uvwA": list(c.counts.uvwa()),
                    "xyz": list(c.counts.xyz()),
                    "in_elimination_table": c.in_elimination_table,
                }
                for c in run.candidates
            ],
            "filters": [
                {"candidate": a.candidate_id, "filter": a.filter_name,
                 "verdict": a.verdict, "detail": a.detail}
                for a in run.audits
            ],
            "survivors": list(run.survivors),
            "families": [list(f) for f in run.families],
            "structure": run.structure,
            "timings": None,
        })
    if isinstance(run, P7Run):
        return _jsonable({
            "command": run.command,
            "inputs": {"p": 7, "profile": run.profile.label()},
            "candidates": [
                {"uvw": list(a.counts),
                 "k": [list(a.k_type1), list(a.k_type2), list(a.k_type3)]}
                for a in run.surviving_assignments
            ],
            "filters": [
                {"candidate": a.candidate_id, "filter": a.filter_name,
                 "verdict": a.verdict, "detail": a.detail}
                for a in run.audits
            ],
            "survivors": [a.cid() for a in run.surviving_assignments],
            "stage1": [list(s) for s in run.stage1],
            "delta_table": run.delta_table,
            "nu_table": run.nu_table,
            "structure": run.structure,
            "timings": None,
        })
    raise TypeError("unknown run type %r" % type(run))


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return str(x)
