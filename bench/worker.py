"""Worker process of the k3census benchmark for the in-process workloads.

    python bench/worker.py '<json spec>'

The spec names the workload ("census-fresh" or "h-sample") and its inputs.
The worker imports the package, installs the layer tracer when the spec asks
for it, runs the workload's warm-up, prints "READY" and then, once its work
is done, one JSON line with the results.  An h-sample worker runs one pass
for each line its parent sends on standard input.  The parent times set-up
from spawn to "READY".  The package must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from time import perf_counter

import checks

# census-fresh: one call of each of these cli functions per pass
CENSUS_CALLS = {
    "census p5": "census_p5",
    "census p7": "census_p7",
    "defect-table": "defect_table",
    "verify lemma-4.5": "verify_lemma_4_5",
    "verify lemma-6.4": "verify_lemma_6_4",
    "verify lemma-5.3": "verify_lemma_5_3",
    "census involution": "census_involution",
}

HSAMPLE_PRIMES = (3, 5, 7)
HSAMPLE_WARMUP = 64


def census_fresh(spec) -> dict:
    """One pass: each cli call once, in the order given, on empty caches.
    The reports are checked after the pass, outside the timed region."""
    from k3census import cli

    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer().install()
    cfg = cli.RunConfig()
    print("READY", flush=True)
    calls = []
    start = perf_counter()
    for command in spec["order"]:
        if tracer is not None:
            tracer.op = command
        t0, c0 = perf_counter(), time.process_time()
        try:
            payload = getattr(cli, CENSUS_CALLS[command])(cfg)
        except Exception as exc:  # a failed operation is counted, not fatal
            payload = exc
        calls.append((command, perf_counter() - t0, time.process_time() - c0, payload))
    out = {"wall_s": perf_counter() - start, "ops": [_census_op(*c) for c in calls]}
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.dump(spec["trace_out"])
    return out


def _census_op(command, seconds, cpu_s, payload) -> dict:
    op = {"command": command, "seconds": seconds, "cpu_s": cpu_s,
          "digest": None, "audits": {}}
    if isinstance(payload, Exception):
        op["problems"] = ["%s: raised %r" % (command, payload)]
        return op
    payload = checks.normalize(payload)
    op.update(problems=checks.report_problems(command, payload),
              digest=checks.digest(payload), audits=_audits(command, payload))
    return op


def _audits(command, payload) -> dict:
    if command not in ("census p5", "census p7"):
        return {}
    return checks.audit_counts(int(command[-1]), payload)


def draw_elements(rng: random.Random, n: int):
    """n elements of H, uniform: a uniform permutation and a uniform sign
    vector with an even number of -1 entries."""
    from k3census.sgnperm import SignedPerm

    out = []
    for _ in range(n):
        perm = list(range(8))
        rng.shuffle(perm)
        eps = [rng.choice((1, -1)) for _ in range(8)]
        if eps.count(-1) % 2:
            eps[0] = -eps[0]
        out.append(SignedPerm.from_eps_perm(tuple(eps), tuple(perm)))
    return out


class HSample:
    """Per-element work and checks of the h-sample workload."""

    def __init__(self):
        from k3census import reps, sgnperm

        self.reps, self.sgnperm = reps, sgnperm
        self.census = {p: set(reps.lemma45_census(p)) for p in HSAMPLE_PRIMES}
        self.minus = sgnperm.SignedPerm.minus_one()

    def work(self, g) -> tuple:
        """Order, trace and charpoly; a decomposition and the fixed roots at
        order 3, 5, 7; the class of v = g^(ord/2) at even order unless v is
        the central element -1."""
        order, trace, charpoly = g.order(), g.trace(), g.charpoly()
        dec = fixed = v = cls = None
        if order in HSAMPLE_PRIMES:
            dec = self.reps.decompose_element(g, order)
            fixed = self.sgnperm.fixed_roots(g)
        elif order % 2 == 0:
            v = _power(g, order // 2)
            if v != self.minus:
                cls = self.sgnperm.involution_class(v)
        return order, trace, charpoly, dec, fixed, v, cls

    def problems(self, g, out) -> list[str]:
        order, trace, charpoly, dec, fixed, v, cls = out
        problems = []
        if charpoly[7] != -trace:
            problems.append("%r: charpoly %r disagrees with trace %d" % (g, charpoly, trace))
        if dec is not None:
            if dec not in self.census[order]:
                problems.append("%r: decomposition %r is not in the census" % (g, dec))
            roots = {r.d for r in fixed}
            if any(tuple(-x for x in d) not in roots for d in roots):
                problems.append("%r: fixed roots not closed under negation" % (g,))
        if cls is not None:
            lv = (8 - v.trace()) // 2
            lv = min(lv, 8 - lv)
            want = {1: "1A'", 2: "2A", 3: "3A"}.get(lv)
            if cls.l_value != lv:
                problems.append("%r: l-value %d, trace gives %d" % (v, cls.l_value, lv))
            if want is not None and cls.label != want:
                problems.append("%r: label %s, trace gives %s" % (v, cls.label, want))
            if (cls.label == "4A'") != self.sgnperm.is_4a_prime_shape(v):
                problems.append("%r: label %s disagrees with is_4a_prime_shape" % (v, cls.label))
        return problems


def _power(g, k: int):
    out = g
    for _ in range(k - 1):
        out = out * g
    return out


def _run_batch(work: HSample, elements, times, tracer=None) -> dict:
    """Time the work on each element, then check the outputs outside the
    timed region.  `counts` is [drawn, order-p hits, involutions]."""
    outputs = []
    start = perf_counter()
    for i, g in enumerate(elements):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            outputs.append(work.work(g))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(exc)
        times.append(perf_counter() - t0)
    wall = perf_counter() - start
    problems, failed = [], 0
    for g, out in zip(elements, outputs):
        bad = (["%r: raised %r" % (g, out)] if isinstance(out, Exception)
               else work.problems(g, out))
        failed += bool(bad)
        problems.extend(bad)
    done = [out for out in outputs if not isinstance(out, Exception)]
    return {"wall_s": wall, "n": len(elements), "failed": failed, "problems": problems[:5],
            "counts": [len(elements), sum(out[3] is not None for out in done),
                       sum(out[6] is not None for out in done)]}


def h_sample(spec) -> dict:
    """One pass of `batch` elements from the seeded stream `stream` for each
    line read on standard input, answered with "DONE"; the results follow
    when standard input closes.  In a traced run each pass processes the
    stream's first batch twice, untraced and then traced, so counts repeat
    exactly.  Element times are kept in a flat array of doubles, so memory
    grows by only 8 bytes per element processed.  A probe worker stops after
    its warm-up."""
    work = HSample()
    # the same warm-up elements for every seed, so set-up does the same work
    _run_batch(work, draw_elements(random.Random("warmup"), HSAMPLE_WARMUP), array("d"))
    rng = random.Random(spec["stream"])
    print("READY", flush=True)
    if spec.get("probe"):
        return {}
    times = array("d")
    batches, traced = [], []
    if spec["trace"]:
        import layers

        elements = draw_elements(rng, spec["batch"])
    for _ in sys.stdin:
        if not spec["trace"]:
            batches.append(_run_batch(work, draw_elements(rng, spec["batch"]), times))
        else:
            batches.append(_run_batch(work, elements, times))
            tracer = layers.Tracer().install()
            result = _run_batch(work, elements, array("d"), tracer)
            tracer.uninstall()
            result["trace"] = tracer.summary()
            traced.append(result)
        print("DONE", flush=True)
    rss_mb = _peak_rss_mb()
    if traced:
        tracer.dump(spec["trace_out"])
    return {"batches": batches, "traced": traced, "rss_mb": rss_mb, "times": list(times)}


def _peak_rss_mb() -> float:
    """This process's peak resident set so far, read before the results are
    summarized, so it does not grow with the number of elements timed."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(times) -> dict:
    """Sample count, median and the highest of p99.9/p99/p95/p90/p75/p50
    with at least ten samples beyond it (nearest rank; None if none has)."""
    xs = sorted(times)
    n = len(xs)
    if not n:
        return {"n": 0, "median": None, "tail": None}
    tail = next(([q, xs[math.ceil(n * q / 100) - 1]] for q in (99.9, 99, 95, 90, 75, 50)
                 if n * (100 - q) / 100 >= 10), None)
    return {"n": n, "median": statistics.median(xs), "tail": tail}


WORKLOADS = {"census-fresh": census_fresh, "h-sample": h_sample}

if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = WORKLOADS[spec["workload"]](spec)
    print(json.dumps(result), flush=True)
