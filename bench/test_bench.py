"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

They check that the layer wrappers see every call a profiler sees, that
every call count and work counter repeats exactly, that BENCHMARK.json
names exactly the metrics the benchmark prints, and that the benchmark
refuses to run without the package.  The repeat test runs each workload
twice and takes about a minute.
"""

from __future__ import annotations

import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run

ROOT = Path(__file__).resolve().parent.parent


def _original(name: str):
    mod_name, attr = name.split(".", 1)
    owner = sys.modules["k3census." + mod_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_traced_calls_match_cprofile():
    from k3census import cli

    cfg = cli.RunConfig()

    def operation():
        # census p7 reaches cot_product through gindex's from-import and
        # embed_str through census's; lemma 6.4 reaches minimal_polynomial
        # through cli's
        cli.census_p7(cfg)
        cli.verify_lemma_6_4(cfg)

    layers._package_modules()
    originals = {name: _original(name) for name in layers.TRACED}
    operation()  # fill the package's caches so both runs do the same work
    prof = cProfile.Profile()
    prof.runcall(operation)
    prof.create_stats()
    profiled = {key: value[1] for key, value in prof.stats.items()}
    tracer = layers.Tracer().install()
    try:
        operation()
    finally:
        tracer.uninstall()
    assert all(_original(name) is fn for name, fn in originals.items())
    compared = 0
    for idx, name in enumerate(layers.TRACED):
        fn = originals[name]
        if hasattr(fn, "cache_info"):
            continue  # the profiler sees only cache misses of an lru_cache
        code = fn.__code__
        want = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert tracer.calls[idx] == want, name
        compared += bool(want)
    assert tracer.calls[layers.TRACED.index("cyclotomic.cot_product")] > 0
    assert compared >= 10


def _traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    assert "warning:" not in out.stdout
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_counts_repeat_exactly():
    counts = {}
    for workload in sorted(run.WORKLOADS):
        counts[workload] = _traced_counts(workload, 1)
        assert counts[workload] == _traced_counts(workload, 1), workload
    hsample = ("hsample.drawn", "hsample.order_p.hits", "hsample.involutions")
    seed1, seed2 = counts["h-sample"], _traced_counts("h-sample", 2)
    assert [seed1[k] for k in hsample] != [seed2[k] for k in hsample]
    assert seed1["hsample.drawn"] == seed2["hsample.drawn"] == run.HSAMPLE_BATCH


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".trace", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "h-sample",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
