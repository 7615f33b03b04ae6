"""Output-correctness gate of the k3census benchmark.

Every operation is checked against facts the paper fixes.  The checks are
explicit comparisons that return a list of problems (empty when the output
is right), so they also run under `python -O` and a failure never aborts a
run.  Report digests are recorded for information only: later changes may
alter a report on purpose, so nothing is gated on byte equality.
"""

from __future__ import annotations

import hashlib
import json

# command -> ((dotted key in the JSON report, value the paper fixes), ...);
# a set value means the report lists those (r, t, s) triples in any order
PAPER_FACTS: dict[str, tuple[tuple[str, object], ...]] = {
    "verify lemma-4.5": (("census.3", {(0, 0, 4), (1, 1, 2), (1, 5, 0), (2, 2, 0)}),
                         ("census.5", {(0, 0, 2), (1, 3, 0)}),
                         ("census.7", {(1, 1, 0)})),
    "verify lemma-5.2": (("involutions_checked", 17038),),
    "verify lemma-5.3": (("forced_fixed_points", 4),),
    "verify lemma-6.3": (("fixed_roots", 20), ("decomposition", [1, 3, 0])),
    "verify lemma-6.4": (("cot_ratio_minpoly", "t^2 - 4*t - 1"),),
    "verify lemma-6.5": (("decomposition", [1, 1, 0]),),
    "verify theorem-1.7": (("z2_4.max_rank", 3),),
    "census p5": (("survivors", ["c", "i", "iii"]),),
    "census p7": (("structure.equal_k_forced", True),),
    "census q8": (("forced_fixed_points", 4),),
    "census involution": (("empty.admissible", True), ("two tori.admissible", True),
                          ("genus2 rejected.admissible", False),
                          ("three tori rejected.admissible", False)),
    "defect-table": (("point_defects.I_5_1", "-4"), ("point_defects.I_7_1", "-10"),
                     ("group_totals.p=5 type A4~", "-20"), ("group_totals.p=7 type 2", "-8")),
}


def _lookup(payload, dotted: str):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return KeyError
        node = node[part]
    return node


def normalize(payload) -> object:
    """The report as the CLI prints it with --format json, minus timings."""
    payload = {k: v for k, v in payload.items() if k != "timings"}
    return json.loads(json.dumps(payload, default=str))


def digest(payload) -> str:
    text = json.dumps(normalize(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_problems(command: str, payload) -> list[str]:
    """Paper facts that the report of `command` gets wrong."""
    problems = []
    for key, want in PAPER_FACTS.get(command, ()):
        got = _lookup(payload, key)
        if isinstance(want, set) and isinstance(got, list):
            got = {tuple(x) for x in got}
        if got is KeyError:
            problems.append("%s: %s missing" % (command, key))
        elif got != want:
            problems.append("%s: %s is %r, paper says %r" % (command, key, got, want))
    return problems


def cli_problems(command: str, exit_code: int, stdout: bytes) -> tuple[list[str], object]:
    """Gate one `python -m k3census ... --format json` process."""
    if exit_code != 0:
        return ["%s: exit code %d" % (command, exit_code)], None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["%s: output is not JSON" % command], None
    if not isinstance(payload, dict):
        return ["%s: output is not a JSON object" % command], None
    problems = []
    if payload.get("status") != "pass":
        problems.append("%s: status is %r" % (command, payload.get("status")))
    if payload.get("command") != command:
        problems.append("%s: report names command %r" % (command, payload.get("command")))
    return problems + report_problems(command, payload), payload


def audit_counts(p: int, payload) -> dict[str, int]:
    """census.<p>.audits.<filter>.<verdict> counts of a census report."""
    out: dict[str, int] = {}
    for rec in payload.get("filters", ()):
        key = "census.p%d.audits.%s.%s" % (p, rec["filter"], rec["verdict"])
        out[key] = out.get(key, 0) + 1
    return out
