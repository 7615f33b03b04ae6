"""The k3census benchmark: one command, three workloads.

    python3 bench/run.py --workload verify-cold --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout against the unmodified package in
src/.  With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics; either way the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Lines before it give
every metric by name with its unit, its tail percentile and sample count.
See bench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import layers
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH / ".trace"
PY = sys.executable

# verify-cold: every leaf CLI subcommand (selftest only repeats 13 of them)
SUBCOMMANDS = (
    "verify lemma-4.2", "verify lemma-4.5", "verify lemma-5.1", "verify lemma-5.2",
    "verify lemma-5.3", "verify lemma-6.3", "verify lemma-6.4", "verify lemma-6.5",
    "verify remark-4.7", "verify theorem-1.7",
    "census p5", "census p7", "census q8", "census involution", "defect-table",
)

BARE_IMPORT = [PY, "-c", "import k3census.cli"]  # set-up of a verify-cold process
HSAMPLE_BATCH = 1000    # elements per h-sample pass

END_TO_END = {"setup_s": "s", "wall_s": "s", "elements_per_s": "1/s", "peak_rss_mb": "MB"}

# the filter x verdict pairs the two census reports can record; traced runs
# count them as census.<p>.audits.<filter>.<verdict>
AUDITS = tuple("census.p5.audits.%s.%s" % fv for fv in (
    ("fang", "survives"), ("fang", "ruled_out"), ("furuta", "survives"),
    ("furuta", "ruled_out"), ("ks_rochlin", "survives"), ("ks_rochlin", "ruled_out"),
    ("ks_rochlin", "skipped"))) + tuple("census.p7.audits.%s.%s" % fv for fv in (
        ("exact_signature", "survives"), ("exact_signature", "ruled_out"),
        ("fang", "survives"), ("fang", "ruled_out"), ("furuta", "survives"),
        ("furuta", "ruled_out")))


def _cli_metric(command: str) -> str:
    return "cli.%s.wall_s" % command.replace(" ", ".")


PER_LAYER: dict[str, str] = {}
PER_LAYER.update({_cli_metric(c): "s" for c in SUBCOMMANDS})
PER_LAYER["cli.cpu_s"] = "s"
for _name in layers.TRACED:
    if not _name.startswith("cli."):
        PER_LAYER[_name + ".calls"] = "count"
        PER_LAYER[_name + ".self_s"] = "s"
PER_LAYER.update({name: "count" for name in layers.COUNTERS})
PER_LAYER["sgnperm.involutions_checked"] = "count"
PER_LAYER["cyclotomic.cot_product.distinct_args"] = "count"
PER_LAYER.update({name: "count" for name in AUDITS})
PER_LAYER.update({"hsample.drawn": "count", "hsample.order_p.hits": "count",
                  "hsample.involutions": "count", "trace.overhead_s": "s"})


class Run:
    """Samples and failures gathered by one benchmark run."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.pass_s: list[float] = []
        self.ops_done = 0
        self.op_s: dict = {}          # worker.summarize of per-operation times
        self.rss_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.warnings: list[str] = []
        self.digests: dict[str, str] = {}
        self.per_layer: dict[str, float] = {}

    def record(self, problems, n=1, failed=None):
        self.attempted += n
        self.failed += bool(problems) if failed is None else failed
        self.problems.extend(problems)


# ---------------------------------------------------------------------------
# child processes


class Child:
    def __init__(self, code, out, err, wall_s, setup_s, rusage):
        self.code, self.out, self.err = code, out, err
        self.wall_s, self.setup_s = wall_s, setup_s
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0

    def result(self) -> dict | None:
        """The JSON object on the child's last line of output."""
        lines = self.out.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except ValueError:
            return None


def child_env(extra=None) -> dict:
    """Children import the package from src/ and load it from bytecode, as
    an installed package is loaded: a caller's PYTHONDONTWRITEBYTECODE would
    turn every process start into a compile of the whole package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(extra or {})
    return env


def spawn(argv, env, ready=False) -> Child:
    """Run a child to completion.  With ready=True its set-up time is the
    time from spawn until it prints READY."""
    t0 = perf_counter()
    setup = None
    with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        if ready and proc.stdout.readline().strip() == b"READY":
            setup = perf_counter() - t0
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, err, perf_counter() - t0, setup, rusage)


def spawn_worker(spec: dict, env) -> Child:
    return spawn([PY, str(BENCH / "worker.py"), json.dumps(spec)], env, ready=True)


def _trace_dir(workload: str, seed: int) -> Path:
    path = TRACE_DIR / ("%s-seed%d" % (workload, seed))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _passes(seconds: float):
    """Yield pass numbers while one more pass of the mean length so far still
    ends within `seconds`; at least one pass always runs."""
    start = perf_counter()
    k = 0
    while k == 0 or (perf_counter() - start) * (k + 1) / k <= seconds:
        yield k
        k += 1


# ---------------------------------------------------------------------------
# verify-cold


def _cold_pass(order, env, trace_dir=None, setup_s=None) -> dict:
    """Each command once, in a fresh process.  Given a list `setup_s`, a bare
    import is timed before each command and appended to it, so the set-up
    samples spread over the whole run.  The pass's wall_s is the sum of the
    command processes' wall times."""
    ops, summaries, counters = [], [], {}
    for command in order:
        if setup_s is not None:
            setup_s.append(spawn(BARE_IMPORT, env).wall_s)
        argv = command.split() + ["--format", "json"]
        if trace_dir is None:
            child = spawn([PY, "-m", "k3census"] + argv, env)
        else:
            prefix = str(trace_dir / command.replace(" ", "_"))
            child = spawn([PY, str(BENCH / "launch.py")] + argv,
                          child_env({"K3BENCH_TRACE_OUT": prefix}))
        problems, payload = checks.cli_problems(command, child.code, child.out)
        ops.append({"command": command, "seconds": child.wall_s, "cpu_s": child.cpu_s,
                    "rss_mb": child.rss_mb, "problems": problems,
                    "digest": None if payload is None else checks.digest(payload)})
        if trace_dir is not None:
            try:
                with open(prefix + ".summary.json") as fh:
                    summaries.append(json.load(fh))
            except (OSError, ValueError) as exc:
                ops[-1]["problems"].append("%s: no trace summary: %s" % (command, exc))
            if payload is not None:
                counters.update(_report_counters(command, payload))
    wall = sum(op["seconds"] for op in ops)
    return {"wall_s": wall, "ops": ops, "summaries": summaries, "counters": counters}


def _report_counters(command: str, payload) -> dict:
    if command == "verify lemma-5.2":
        return {"sgnperm.involutions_checked": payload.get("involutions_checked", 0)}
    if command in ("census p5", "census p7"):
        return checks.audit_counts(int(command[-1]), payload)
    return {}


def verify_cold(seed: int, seconds: int, trace: bool) -> Run:
    run = Run()
    env = child_env()
    rng = random.Random(seed)
    spawn(BARE_IMPORT, env)  # untimed: fills the bytecode cache
    trace_dir = _trace_dir("verify-cold", seed) if trace else None
    untraced, traced = [], []
    for k in _passes(seconds):
        order = rng.sample(SUBCOMMANDS, len(SUBCOMMANDS))
        untraced.append(_cold_pass(order, env, setup_s=run.setup_s))
        if trace:
            sub = trace_dir / ("pass%d" % k)
            sub.mkdir()
            traced.append(_cold_pass(order, env, sub))
    for p in untraced + traced:
        for op in p["ops"]:
            run.record(op["problems"])
            run.digests[op["command"]] = op["digest"]
    run.pass_s = [p["wall_s"] for p in untraced]
    run.op_s = worker.summarize([op["seconds"] for p in untraced for op in p["ops"]])
    run.ops_done = run.op_s["n"]
    run.rss_mb = [max(op["rss_mb"] for op in p["ops"]) for p in untraced]
    if trace:
        cli = {_cli_metric(c): statistics.median(op["seconds"] for p in untraced
                                                 for op in p["ops"] if op["command"] == c)
               for c in SUBCOMMANDS}
        cli["cli.cpu_s"] = statistics.median(sum(op["cpu_s"] for op in p["ops"])
                                             for p in untraced)
        run.per_layer = _per_layer([layers.merge(p["summaries"]) for p in traced],
                                   [p["counters"] for p in traced], cli,
                                   [p["wall_s"] for p in traced], run.pass_s, run)
    return run


# ---------------------------------------------------------------------------
# census-fresh


def census_fresh(seed: int, seconds: int, trace: bool) -> Run:
    run = Run()
    env = child_env()
    rng = random.Random(seed)
    calls = tuple(worker.CENSUS_CALLS)
    spawn_worker({"workload": "census-fresh", "order": [], "trace": False}, env)  # untimed: bytecode cache
    trace_dir = _trace_dir("census-fresh", seed) if trace else None
    untraced, traced = [], []
    for k in _passes(seconds):
        order = rng.sample(calls, len(calls))
        untraced.append(_fresh_pass(order, env))
        if trace:
            traced.append(_fresh_pass(order, env, str(trace_dir / ("pass%d.spans.json.gz" % k))))
    for p in untraced + traced:
        if p["failure"]:
            run.record([p["failure"]], n=len(calls), failed=len(calls))
            continue
        for op in p["ops"]:
            run.record(op["problems"])
            run.digests[op["command"]] = op["digest"]
    good = [p for p in untraced if not p["failure"]]
    run.setup_s = [p["setup_s"] for p in good]
    run.pass_s = [p["wall_s"] for p in good]
    run.op_s = worker.summarize([op["seconds"] for p in good for op in p["ops"]])
    run.ops_done = run.op_s["n"]
    run.rss_mb = [p["rss_mb"] for p in good]
    good_traced = [p for p in traced if not p["failure"]]
    if trace and good and good_traced:
        cli = {_cli_metric(c): 0.0 for c in SUBCOMMANDS}
        for c in calls:
            cli[_cli_metric(c)] = statistics.median(op["seconds"] for p in good
                                                    for op in p["ops"] if op["command"] == c)
        cli["cli.cpu_s"] = statistics.median(sum(op["cpu_s"] for op in p["ops"]) for p in good)
        counters = [{k: v for op in p["ops"] for k, v in op["audits"].items()}
                    for p in good_traced]
        run.per_layer = _per_layer([p["trace"] for p in good_traced], counters, cli,
                                   [p["wall_s"] for p in good_traced], run.pass_s, run)
    return run


def _fresh_pass(order, env, trace_out=None) -> dict:
    spec = {"workload": "census-fresh", "order": list(order),
            "trace": trace_out is not None, "trace_out": trace_out}
    child = spawn_worker(spec, env)
    result = child.result()
    if child.code != 0 or child.setup_s is None or result is None:
        return {"failure": "census-fresh worker exited %d: %s"
                % (child.code, child.err.decode(errors="replace")[-300:])}
    result.update(failure=None, setup_s=child.setup_s, rss_mb=child.rss_mb)
    return result


# ---------------------------------------------------------------------------
# h-sample


def h_sample(seed: int, seconds: int, trace: bool) -> Run:
    """All passes run in one warm worker, which draws stream "<seed>".  Before
    each pass a probe worker is started and timed to its READY line, so the
    set-up samples spread over the whole run; the warm worker waits on its
    standard input meanwhile, so one process runs at a time."""
    run = Run()
    env = child_env()
    probe = {"workload": "h-sample", "stream": "probe", "probe": True}
    spawn_worker(probe, env)  # untimed: bytecode cache
    spec = {"workload": "h-sample", "stream": str(seed), "batch": HSAMPLE_BATCH,
            "trace": trace}
    if trace:
        spec["trace_out"] = str(_trace_dir("h-sample", seed) / "spans.json.gz")
    t0 = perf_counter()
    with subprocess.Popen([PY, str(BENCH / "worker.py"), json.dumps(spec)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        ready = proc.stdout.readline().strip() == b"READY"
        if ready:
            run.setup_s.append(perf_counter() - t0)
            for _ in _passes(seconds):
                run.setup_s.append(spawn_worker(probe, env).setup_s)
                proc.stdin.write(b"pass\n")
                proc.stdin.flush()
                if proc.stdout.readline().strip() != b"DONE":
                    break
        proc.stdin.close()
        out, err = proc.stdout.read(), proc.stderr.read()
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if ready and proc.returncode == 0 and lines else None
    if result is None or None in run.setup_s:
        run.record(["h-sample worker exited %d: %s"
                    % (proc.returncode, err.decode(errors="replace")[-300:])])
        return run
    batches, traced = result["batches"], result["traced"]
    for b in batches + traced:
        run.record(b["problems"], n=b["n"], failed=b["failed"])
    run.pass_s = [b["wall_s"] for b in batches]
    run.op_s = worker.summarize(result["times"])
    run.ops_done = sum(b["n"] for b in batches)
    run.rss_mb = [result["rss_mb"]]
    if trace and traced:
        hs = [dict(zip(("hsample.drawn", "hsample.order_p.hits", "hsample.involutions"),
                       b["counts"])) for b in traced]
        cli = {_cli_metric(c): 0.0 for c in SUBCOMMANDS}
        cli["cli.cpu_s"] = 0.0
        run.per_layer = _per_layer([b["trace"] for b in traced], hs, cli,
                                   [b["wall_s"] for b in traced], run.pass_s, run)
    return run


# ---------------------------------------------------------------------------
# metrics


def _per_layer(summaries, counters, cli, traced_s, untraced_s, run) -> dict:
    """Per-layer metrics from identical traced passes: counts from the first
    (they must repeat exactly), times as medians."""
    first = summaries[0]
    for s, c in zip(summaries[1:], counters[1:]):
        if s["calls"] != first["calls"] or s["counters"] != first["counters"] \
                or c != counters[0]:
            run.warnings.append("trace counts differ between identical passes")
    out = dict(cli)
    for name in layers.TRACED:
        if not name.startswith("cli."):
            out[name + ".calls"] = first["calls"][name]
            out[name + ".self_s"] = statistics.median(s["self_s"][name] for s in summaries)
    out.update(first["counters"])
    out["cyclotomic.cot_product.distinct_args"] = len(first["cot_args"])
    for name, unit in PER_LAYER.items():
        if unit == "count" and name not in out:
            out[name] = counters[0].get(name, 0)
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return out


def end_to_end(run: Run) -> dict:
    return {"setup_s": statistics.median(run.setup_s),
            "wall_s": statistics.median(run.pass_s),
            "elements_per_s": run.ops_done / sum(run.pass_s),
            "peak_rss_mb": statistics.median(run.rss_mb)}


def describe(summary: dict) -> str:
    if summary["tail"] is None:
        return "no percentile with ten samples beyond it (n=%d)" % summary["n"]
    return "p%g %.6g (n=%d)" % (summary["tail"][0], summary["tail"][1], summary["n"])


WORKLOADS = {"verify-cold": verify_cold, "census-fresh": census_fresh, "h-sample": h_sample}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "k3census" / "__init__.py").is_file():
        print("bench: no package at %s; run from the root of a k3census checkout" % SRC,
              file=sys.stderr)
        return 2
    run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    if not run.pass_s or (args.trace and not run.per_layer):
        print("bench: no pass completed: %s" % run.problems[:3], file=sys.stderr)
        return 1
    e2e = end_to_end(run)
    samples = {"setup_s": run.setup_s, "wall_s": run.pass_s}
    for name, value in e2e.items():
        extra = describe(worker.summarize(samples[name])) if name in samples else ""
        print("%-16s %12.6g %-5s %s" % (name, value, END_TO_END[name], extra))
    print("%-16s %12.6g %-5s per operation, %s" % ("op_s", run.op_s["median"], "s",
                                                   describe(run.op_s)))
    print("%-16s %12.6g %-5s %d failed of %d attempted" % (
        "failed_frac", run.failed / run.attempted, "1", run.failed, run.attempted))
    for problem in run.problems[:10]:
        print("problem: %s" % problem)
    for warning in run.warnings:
        print("warning: %s" % warning)
    for command, dig in sorted(run.digests.items()):
        print("digest %-20s %s" % (command, dig))
    if args.trace:
        values, units = run.per_layer, PER_LAYER
        for name, value in values.items():
            print("%-52s %14.6g %s" % (name, value, units[name]))
    else:
        values, units = e2e, END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
