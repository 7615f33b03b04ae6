"""Layer tracing for the k3census benchmark, installed from outside the package.

The layers are the package modules.  `Tracer.install` replaces each traced
function with a wrapper at every place that holds a reference to it: the
defining module, every module that from-imported it, module-level dicts such
as `cli.VERIFIERS`, and every class attribute that aliases a method (for
example `CycNum.__rmul__ = __mul__`).  Wrapping only the defining module would
miss, say, every `cot_product` call made through `gindex`.

Each wrapper records one span (name, start, end, parent span, operation id)
and adds its call count and self time, which is the span's duration minus
the time covered by its child spans.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from time import perf_counter

# Traced functions per module, as attribute paths on the module.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main", "verify_lemma_4_2", "verify_lemma_4_5", "verify_lemma_5_1",
            "verify_lemma_5_2", "verify_lemma_5_3", "verify_lemma_6_3",
            "verify_lemma_6_4", "verify_lemma_6_5", "verify_remark_4_7",
            "verify_theorem_1_7", "census_p5", "census_p7", "census_q8",
            "census_involution", "defect_table"),
    "sgnperm": ("parity_witness", "involution_class", "square_roots",
                "classify_order4", "fixed_roots", "four_a_prime_elements",
                "search_z2_4_obstruction", "search_q8_obstruction"),
    "e8": ("enumerate_roots", "root_subsystem_type", "matrix_in_f_basis"),
    "reps": ("decompose_element", "decompose_matrix", "coxeter_witness",
             "lift_summand"),
    "linalg": ("smith_normal_form", "solve", "charpoly", "mat_mul"),
    "cyclotomic": ("CycNum.__mul__", "CycNum.__add__", "CycNum.inverse",
                   "cot_product", "csc_squared", "csc_cot",
                   "minimal_polynomial", "embed_str"),
    "gindex": ("signature_g", "spin_value", "spin_number", "point_defect",
               "orbifold_signature"),
    "census": ("run_p5", "refine_p5", "solve_p7", "p7_stage1", "delta_values"),
    "kummer": ("verify_e8_bases",),
}

TRACED = tuple("%s.%s" % (mod, attr) for mod, attrs in LAYERS.items() for attr in attrs)

# Work counters derived from the outputs of traced calls.  All of them repeat
# exactly for the same inputs.
COUNTERS = ("sgnperm.square_roots.found", "sgnperm.q8.pairs",
            "sgnperm.four_a_prime.size", "census.refine_p5.candidates_out")


def _count_square_roots(tracer, args, result, parent):
    tracer.counters["sgnperm.square_roots.found"] += len(result)
    if parent == "sgnperm.search_q8_obstruction":
        # the Q8 search scans every ordered pair of square roots of c
        tracer.counters["sgnperm.q8.pairs"] += len(result) ** 2


def _count_four_a_prime(tracer, args, result, parent):
    key = "sgnperm.four_a_prime.size"
    tracer.counters[key] = max(tracer.counters[key], len(result))


def _count_refined(tracer, args, result, parent):
    tracer.counters["census.refine_p5.candidates_out"] += len(result)


def _note_cot_args(tracer, args, result, parent):
    p, a, b = args[:3]
    tracer.cot_args.add((p, a % p, b % p))


HOOKS = {
    "sgnperm.square_roots": _count_square_roots,
    "sgnperm.four_a_prime_elements": _count_four_a_prime,
    "census.refine_p5": _count_refined,
    "cyclotomic.cot_product": _note_cot_args,
}


def _package_modules():
    importlib.import_module("k3census")
    for mod in LAYERS:
        importlib.import_module("k3census." + mod)
    return [m for name, m in sorted(sys.modules.items())
            if name == "k3census" or name.startswith("k3census.")]


class Tracer:
    """Spans, call counts, self times and work counters of one process."""

    def __init__(self):
        self.op = None            # id shared by the spans of one operation
        self.spans: list = []     # (name index, start, end, parent index, op)
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cot_args: set = set()
        self._stack: list = []    # open spans: [span index, child seconds, name index]
        self._undo: list = []

    def _wrap(self, idx: int, fn):
        hook = HOOKS.get(TRACED[idx])
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0, idx]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[idx] += 1
                self_s[idx] += took - frame[1]
                if parent is not None:
                    parent[1] += took
                spans[frame[0]] = (idx, start, end,
                                   -1 if parent is None else parent[0], self.op)
            if hook is not None:
                hook(self, args, result, None if parent is None else TRACED[parent[2]])
            return result

        return functools.update_wrapper(traced, fn)

    def _rebind(self, site, original, wrapper):
        """Point every reference to `original` held by `site` (a module or
        class namespace, or a dict inside a module) at `wrapper`."""
        for key, value in list(vars(site).items()):
            if value is original:
                setattr(site, key, wrapper)
                self._undo.append((setattr, site, key, original))
            elif isinstance(value, dict) and not isinstance(site, type):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                        self._undo.append((dict.__setitem__, value, k, original))

    def install(self):
        """Wrap every traced function at every binding site in the package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for idx, name in enumerate(TRACED):
            mod_name, attr = name.split(".", 1)
            owner = sys.modules["k3census." + mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                original, sites = cls.__dict__[attr], [cls]
            else:
                original, sites = getattr(owner, attr), modules
            wrapper = self._wrap(idx, original)
            for site in sites:
                self._rebind(site, original, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            setter, site, key, original = self._undo.pop()
            setter(site, key, original)

    def summary(self) -> dict:
        return {"calls": dict(zip(TRACED, self.calls)),
                "self_s": dict(zip(TRACED, self.self_s)),
                "counters": dict(self.counters),
                "cot_args": sorted(self.cot_args)}

    def dump(self, path: str):
        """Write the spans kept in memory as gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": TRACED,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def merge(summaries) -> dict:
    """Sum call counts, self times and counters over processes; the
    four-A-prime size is taken as the maximum, cot arguments as a union."""
    out = {"calls": dict.fromkeys(TRACED, 0), "self_s": dict.fromkeys(TRACED, 0.0),
           "counters": dict.fromkeys(COUNTERS, 0), "cot_args": set()}
    for s in summaries:
        for name in TRACED:
            out["calls"][name] += s["calls"][name]
            out["self_s"][name] += s["self_s"][name]
        for key in COUNTERS:
            if key == "sgnperm.four_a_prime.size":
                out["counters"][key] = max(out["counters"][key], s["counters"][key])
            else:
                out["counters"][key] += s["counters"][key]
        out["cot_args"].update(tuple(x) for x in s["cot_args"])
    out["cot_args"] = sorted(out["cot_args"])
    return out
