"""Command-line front end: one subcommand per verified statement plus the
full censuses.  Exit code 0 means every check of the selected command
passed; 1 means a check failed; 2 means a usage or I/O error; 3 means a
bounded search ran out of budget, so the result is inconclusive."""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import census, e8, gindex, kummer, reps, sgnperm
from .cyclotomic import (CycNum, cos_angle, cyc_make, inv_one_minus_zeta,
                         minimal_polynomial, poly_str)
from .errors import CheckFailure
from .record import record


@record
class RunConfig:
    digits: int = 15
    budget: int = 20_000_000
    fmt: str = "text"
    out: str | None = None
    timings: bool = False


def _check(cond, msg):
    if not cond:
        raise CheckFailure(msg)


def _cot_ratio(p: int, a: int, b: int) -> CycNum:
    """cot(a pi/p) / cot(b pi/p) = (1+z^a)(1-z^b) / ((1-z^a)(1+z^b)), with
    1 / (1 + z^b) = (1 - z^b) / (1 - z^(2b))."""
    one_minus_zb = 1 - cyc_make(p, b)
    return ((1 + cyc_make(p, a)) * inv_one_minus_zeta(p, a) * one_minus_zb * one_minus_zb
            * inv_one_minus_zeta(p, 2 * b))


# ---------------------------------------------------------------------------
# verifications


def verify_lemma_4_2(cfg: RunConfig) -> dict:
    rep = kummer.verify_e8_bases()
    _check(rep.cross_pairings_zero, "the two bases are not orthogonal")
    _check(rep.torus_orthogonal, "bases meet a fiber class")
    _check(rep.torus_gram_zero, "fiber classes are not isotropic")
    _check(rep.span_rank == 16 and rep.radical_is_torus_span,
           "span structure is wrong")
    return {"gram": rep.gram_first, "rank": rep.span_rank,
            "radical_is_torus_span": rep.radical_is_torus_span}


def verify_lemma_4_5(cfg: RunConfig) -> dict:
    lists = {p: [d.as_rts() for d in reps.lemma45_census(p)] for p in (3, 5, 7)}
    _check(len(lists[3]) == 4 and len(lists[5]) == 2 and len(lists[7]) == 1,
           "census sizes are wrong: %r" % lists)
    witnesses = {}
    for p in (3, 5, 7):
        for dec in reps.lemma45_census(p):
            m = reps.coxeter_witness(p, (dec.r, dec.s, dec.t))
            _check(m is not None, "no witness recipe for %r" % (dec,))
            got = reps.decompose_matrix(m, p)
            _check(got == dec, "witness for %r decomposes as %r" % (dec, got))
            witnesses["p=%d %s" % (p, dec.as_rts())] = "realized"
    return {"census": {str(p): lists[p] for p in lists}, "witnesses": witnesses}


def verify_lemma_5_1(cfg: RunConfig) -> dict:
    products = {
        "1A'": sgnperm.w_f(1),
        "2A": sgnperm.w_f(1) * sgnperm.w_f(3),
        "3A": sgnperm.w_f(1) * sgnperm.w_f(3) * sgnperm.w_f(5),
        "4A": sgnperm.w_f(1) * sgnperm.w_f(3) * sgnperm.w_f(5) * sgnperm.w_f(7),
        "4A'": sgnperm.w_f(1) * sgnperm.w_f(3) * sgnperm.w_f(5) * sgnperm.w_f7_prime(),
    }
    out = {}
    for label, v in products.items():
        cls = sgnperm.involution_class(v)
        _check(cls.label == label, "%s classified as %s" % (label, cls.label))
        out[label] = {"witness": repr(cls.witness)}
    # the explicit odd-pairing witnesses: f2, f4, f6 along the chain, and
    # the hanging basis root for the four-reflection product
    fs = e8.standard_basis()
    for label, x in (("1A'", fs[1]), ("2A", fs[3]), ("3A", fs[5]), ("4A", fs[7])):
        v = products[label]
        _check(e8.inner(v.apply(x), x) == 1,
               "witness pairing for %s is not 1" % label)
    _check(sgnperm.parity_witness(products["4A'"]) is None,
           "even-pairing class has an odd root")
    # trace bookkeeping: 8 fixed points force trace 6 on the middle homology,
    # and a trivial-on-one-factor action contradicts pseudofreeness
    _check(gindex.lefschetz(6) == 8, "Lefschetz bookkeeping")
    sols = [(r, s, t) for r in range(8) for s in range(15) for t in range(15)
            if 2 * r + s + t == 14 and t - s == -2 and s == 0]
    _check(not sols, "trivial factor is not excluded")
    out["trace"] = "tr(v1)+tr(v2)=0 with both factors nontrivial"
    return out


def verify_lemma_5_2(cfg: RunConfig) -> dict:
    """Shape criterion against root-pairing parity on every involution of H
    but -1, then the order-4 shapes over the even-pairing class.

    Both predicates are class functions, so they are compared on one
    representative per H-class (sgnperm.involution_classes, whose class
    sizes are certified to cover all 17038 involutions): pairing parity
    because H lies in Aut(E8) and conjugation preserves the pairing, and the
    shape because it is constant on each H-class, though not on each signed
    cycle type (test_shape_and_parity_are_constant_on_each_type).  The
    order-4 loop stays exhaustive over every square root of the certified
    starts d0 and pperm (sgnperm.even_pairing_starts), to which every
    even-pairing involution is conjugate."""
    classes = sgnperm.involution_classes()
    n = bad = 0
    for v, size in classes:
        n += size
        if sgnperm.is_4a_prime_shape(v) != (sgnperm.parity_witness(v) is None):
            bad += size
    _check(bad == 0, "%d involutions disagree with the shape criterion" % bad)
    shapes = {}
    for c in sgnperm.even_pairing_starts():
        for v in sgnperm.square_roots(c):
            s = sgnperm.classify_order4(v)
            shapes[(s.case, s.transpositions)] = shapes.get((s.case, s.transpositions), 0) + 1
            _check(s.trace % 2 == 0 and -4 <= s.trace <= 4, "trace out of range")
    _check(set(k[0] for k in shapes) == {"i", "ii"}, "missing order-4 shape")
    return {"involutions_checked": n,
            "order4_shapes": {"case %s, %d transpositions" % k: v for k, v in sorted(shapes.items())},
            "stats": {"involution_classes": len(classes)}}


def verify_lemma_5_3(cfg: RunConfig) -> dict:
    fix = census.q8_fixture_solver()
    _check(fix.solutions == ((4, 0), (4, 2), (4, 4)), "wrong linear solutions")
    _check(fix.forced_fixed_points == 4, "wrong forced count")
    return {"solutions": fix.solutions, "eliminations": fix.eliminations,
            "forced_fixed_points": fix.forced_fixed_points}


def verify_lemma_6_3(cfg: RunConfig) -> dict:
    g = sgnperm.std_cycle(5)
    fixed = sgnperm.fixed_roots(g)
    omega1 = {r.d for r in fixed if all(x == 0 for x in r.d[:5])}
    omega2 = {r.d for r in fixed} - omega1
    _check(len(fixed) == 20 and len(omega1) == 12 and len(omega2) == 8,
           "fixed-root census wrong: %d" % len(fixed))
    a4 = e8.root_subsystem_type(fixed, "A4")
    d4 = e8.root_subsystem_type(fixed, "D4")
    a2a2 = e8.root_subsystem_type(fixed, "A2+A2")
    _check(a4 is not None, "no A4 among fixed roots")
    _check(d4 is None, "unexpected D4 among fixed roots")
    _check(a2a2 is None, "unexpected A2+A2 among fixed roots")
    dec = reps.decompose_element(g, 5)
    _check(dec.as_rts() == (1, 3, 0), "decomposition %r" % (dec,))
    return {"fixed_roots": len(fixed), "a4_witness": [repr(r) for r in a4],
            "d4": None, "a2_plus_a2": None, "decomposition": dec.as_rts()}


def verify_lemma_6_4(cfg: RunConfig) -> dict:
    ratio = _cot_ratio(5, 1, 2)
    mp = minimal_polynomial(ratio)
    _check(mp == (Fraction(-1), Fraction(-4), Fraction(1)),
           "minimal polynomial is %s" % poly_str(mp))
    cos_mp = minimal_polynomial(cos_angle(5, 1))
    _check(cos_mp == (Fraction(-1, 4), Fraction(-1, 2), Fraction(1)),
           "cos minimal polynomial is %s" % poly_str(cos_mp))
    return {"cot_ratio_minpoly": poly_str(mp), "cos_minpoly": poly_str(cos_mp)}


def verify_lemma_6_5(cfg: RunConfig) -> dict:
    g = sgnperm.std_cycle(7)
    fixed = sgnperm.fixed_roots(g)
    half = tuple([1] * 8)
    _check({r.d for r in fixed} == {half, tuple(-x for x in half)},
           "fixed roots are %r" % (fixed,))
    _check(e8.root_subsystem_type(fixed, "A2") is None, "unexpected A2")
    dec = reps.decompose_element(g, 7)
    _check(dec.as_rts() == (1, 1, 0), "decomposition %r" % (dec,))
    return {"fixed_roots": [repr(r) for r in fixed], "a2": None,
            "decomposition": dec.as_rts()}


def verify_remark_4_7(cfg: RunConfig) -> dict:
    res = reps.lift_summand([[1, 1], [0, -1]], [[1, 0]], [0, 1])
    _check(res.kind == "cyclotomic" and not res.lifted, "expected a failed lift")
    triv = reps.lift_summand([[1, 0, 0], [0, -1, 0], [0, 0, 1]], [[1, 0, 0]], [0, 0, 1])
    _check(triv.kind == "trivial" and triv.lifted, "trivial lift failed")
    reg = reps.lift_summand([[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 0, 0]], [0, 1, 0])
    _check(reg.kind == "regular" and reg.lifted, "regular lift failed")
    return {"cyclotomic": res.reason, "trivial": triv.reason, "regular": reg.reason}


def verify_theorem_1_7(cfg: RunConfig) -> dict:
    z24 = sgnperm.search_z2_4_obstruction(cfg.budget)
    _check(z24.average_fixed_dim == Fraction(1, 2), "averaging value wrong")
    _check(z24.max_all_even_rank == 3, "rank bound wrong: %d" % z24.max_all_even_rank)
    q8 = sgnperm.search_q8_obstruction(cfg.budget)
    _check(set(q8.trace_values) <= {-4, -2, 0, 2, 4}, "trace table wrong")
    return {"z2_4": {"average_fixed_dim": str(z24.average_fixed_dim),
                     "verdict": z24.verdict, "max_rank": z24.max_all_even_rank},
            "q8": {"verdict": q8.verdict, "traces": q8.trace_values,
                   "n_trace_triples": len(q8.trace_triples)},
            "stats": {"z2_4_units": z24.units, "q8_units": q8.units,
                      "z2_4_orbits": z24.orbits, "q8_orbits": q8.orbits}}


VERIFIERS = {
    "lemma-4.2": verify_lemma_4_2,
    "lemma-4.5": verify_lemma_4_5,
    "lemma-5.1": verify_lemma_5_1,
    "lemma-5.2": verify_lemma_5_2,
    "lemma-5.3": verify_lemma_5_3,
    "lemma-6.3": verify_lemma_6_3,
    "lemma-6.4": verify_lemma_6_4,
    "lemma-6.5": verify_lemma_6_5,
    "remark-4.7": verify_remark_4_7,
    "theorem-1.7": verify_theorem_1_7,
}


# ---------------------------------------------------------------------------
# censuses


def census_p5(cfg: RunConfig) -> dict:
    run = census.run_p5(cfg.digits)
    _check(run.survivors == ("c", "i", "iii"), "survivors %r" % (run.survivors,))
    return census.report(run)


def census_p7(cfg: RunConfig) -> dict:
    run = census.solve_p7(cfg.digits)
    _check(run.structure.get("equal_k_forced"), "unequal residues not eliminated")
    return census.report(run)


def census_q8(cfg: RunConfig) -> dict:
    out = verify_lemma_5_3(cfg)
    q8 = sgnperm.search_q8_obstruction(cfg.budget)
    out["trace_search"] = {"verdict": q8.verdict, "traces": q8.trace_values,
                           "n_trace_triples": len(q8.trace_triples)}
    out["stats"] = {"q8_units": q8.units, "q8_orbits": q8.orbits}
    return out


def census_involution(cfg: RunConfig) -> dict:
    checks = {
        "empty": census.involution_fixture_check([]),
        "two tori": census.involution_fixture_check([(1, 0), (1, 0)]),
        "spheres+torus": census.involution_fixture_check([(0, -2)] * 4 + [(1, 0)]),
        "genus2 rejected": census.involution_fixture_check([(2, -2)]),
        "three tori rejected": census.involution_fixture_check([(1, 0)] * 3),
    }
    _check(checks["empty"].admissible and checks["two tori"].admissible
           and checks["spheres+torus"].admissible, "admissible shapes rejected")
    _check(not checks["genus2 rejected"].admissible
           and not checks["three tori rejected"].admissible, "bad shapes admitted")
    return {k: {"admissible": v.admissible, "shape": v.shape, "reason": v.reason}
            for k, v in checks.items()}


def defect_table(cfg: RunConfig) -> dict:
    out = {"point_defects": {}, "group_totals": {}, "delta": {}, "nu": {}}
    for p in (5, 7):
        for q in range(1, p):
            out["point_defects"]["I_%d_%d" % (p, q)] = str(gindex.signature_defect(p, q))
    for p, types in census.GROUP_TYPES.items():
        for typ in types:
            out["group_totals"]["p=%d type %s" % (p, typ)] = str(census.group_defect(p, typ))
    out["delta"] = census.decimal_table(census.delta_values(7), cfg.digits)
    nu = census.nu_values(7)  # the published table covers the two- and three-point groups
    out["nu"] = census.decimal_table({typ: nu[typ] for typ in ("2", "3")}, cfg.digits)
    for k in (1, 2, 3, 4):
        val = census.group_signature(5, "A4~", k).as_rational()
        _check(val == -5, "chain-group signature is %s" % val)
        _check(census.group_spin(5, "A4~", k).is_zero(), "chain-group spin nonzero")
    out["group_totals"]["p=5 type A4~ signature (any k)"] = "-5"
    return out


def selftest(cfg: RunConfig) -> dict:
    out = {}
    for name, fn in VERIFIERS.items():
        fn(cfg)
        out[name] = "pass"
    census_p5(cfg)
    out["census p5"] = "pass"
    census_p7(cfg)
    out["census p7"] = "pass"
    census_involution(cfg)
    out["census involution"] = "pass"
    return out


COMMANDS = {
    "p5": census_p5,
    "p7": census_p7,
    "q8": census_q8,
    "involution": census_involution,
}


def _emit(payload: dict, cfg: RunConfig, elapsed: float):
    if cfg.timings:
        payload = dict(payload)
        payload["timings"] = {"seconds": round(elapsed, 3)}
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2, default=str)
    else:
        text = _render_text(payload)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _is_flat(seq) -> bool:
    return all(not isinstance(v, (dict, list, tuple)) for v in seq)


def _render_text(payload, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (list, tuple)) and _is_flat(v):
                lines.append("%s%s: [%s]" % (pad, k, ", ".join(map(str, v))))
            elif isinstance(v, (dict, list, tuple)):
                lines.append("%s%s:" % (pad, k))
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
        return "\n".join(lines)
    if isinstance(payload, (list, tuple)):
        for v in payload:
            if isinstance(v, (list, tuple)) and _is_flat(v):
                lines.append("%s- [%s]" % (pad, ", ".join(map(str, v))))
            elif isinstance(v, (dict, list, tuple)):
                lines.append(_render_text(v, indent))
            else:
                lines.append("%s- %s" % (pad, v))
        return "\n".join(lines)
    return "%s%s" % (pad, payload)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _add_common(parser, suppress: bool):
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--format", choices=("text", "json"), default=d("text"))
    parser.add_argument("--digits", type=_positive_int, default=d(15))
    parser.add_argument("--budget", type=_positive_int, default=d(20_000_000))
    parser.add_argument("--out", default=d(None))
    parser.add_argument("--timings", action="store_true",
                        default=d(False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="k3census",
        description="exact lattice, index-theorem and fixed-point-census checks")
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command")
    vp = sub.add_parser("verify", help="run one verification", parents=[common])
    vp.add_argument("target", choices=sorted(VERIFIERS))
    cp = sub.add_parser("census", help="run a census", parents=[common])
    cp.add_argument("target", choices=sorted(COMMANDS))
    sub.add_parser("defect-table", help="print the exact defect tables", parents=[common])
    sub.add_parser("selftest", help="run every verification and census", parents=[common])

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    cfg = RunConfig(digits=args.digits, budget=args.budget,
                    fmt=args.format, out=args.out, timings=args.timings)
    try:
        start = time.perf_counter()
        if args.command == "verify":
            payload = VERIFIERS[args.target](cfg)
            payload = {"command": "verify %s" % args.target, "status": "pass", **payload}
        elif args.command == "census":
            payload = COMMANDS[args.target](cfg)
            if "command" not in payload:
                payload = {"command": "census %s" % args.target, **payload}
            payload["status"] = "pass"
        elif args.command == "defect-table":
            payload = {"command": "defect-table", "status": "pass", **defect_table(cfg)}
        else:
            payload = {"command": "selftest", "status": "pass", **selftest(cfg)}
    except AssertionError as f:
        print("FAIL: %s" % f, file=sys.stderr)
        return 1
    except sgnperm.SearchBudgetExceeded as e:
        print("INCONCLUSIVE: %s; raise --budget to finish the search" % e,
              file=sys.stderr)
        return 3
    try:
        _emit(payload, cfg, time.perf_counter() - start)
    except OSError as e:
        print("ERROR: cannot write the report: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
