"""Spans around chevkit's public functions, installed from outside src/.

install() rebinds each target at every place it is reachable: the module
attribute where it is defined, every ``from ... import`` copy in another
chevkit module (the package's re-exports included), and every alias on its
class (``__rmul__ = __mul__``).  uninstall() puts the originals back.

Each span adds its duration to its parent's child time; a function's self
time is its duration minus its children's.  Counters read from arguments
and return values are computed after the span closes and are excluded from
every self time, so they land in ``other`` with the rest of the harness.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# metric name -> (module, attribute or Class.attribute)
TARGETS = {
    "jets.jet_matrix": ("chevkit.jets", "jet_matrix"),
    "jets.analysis": ("chevkit.jets", "JetSystem.analysis"),
    "linalg.staged_elimination": ("chevkit.linalg", "staged_elimination"),
    "linalg.from_vectors": ("chevkit.linalg", "Subspace.from_vectors"),
    "linalg.rank_kernel": ("chevkit.linalg", "Matrix.rank_kernel"),
    "linalg.contains": ("chevkit.linalg", "Subspace.contains"),
    "staircase.diagram_from_generators":
        ("chevkit.staircase", "diagram_from_generators"),
    "staircase.ideal_jet_space": ("chevkit.staircase", "ideal_jet_space"),
    "staircase.normal_form": ("chevkit.staircase", "normal_form"),
    "wedge.membership_kernel": ("chevkit.wedge", "membership_kernel"),
    "wedge.membership_operator": ("chevkit.wedge", "membership_operator"),
    "poly.Poly_mul": ("chevkit.poly", "Poly.__mul__"),
    "poly.TruncatedSeries_mul": ("chevkit.poly", "TruncatedSeries.__mul__"),
    "poly.taylor": ("chevkit.poly", "Poly.taylor"),
    "chevalley.engine_init": ("chevkit.chevalley", "ChevalleyEngine.__init__"),
    "chevalley.relation_jets":
        ("chevkit.chevalley", "ChevalleyEngine.relation_jets"),
    "chevalley.diagram_threshold":
        ("chevkit.chevalley", "ChevalleyEngine.diagram_threshold"),
    "chevalley.sample_leaf_chevalley":
        ("chevkit.chevalley", "sample_leaf_chevalley"),
    "experiments.run_table": ("chevkit.experiments", "run_table"),
    "experiments.verify_consistency":
        ("chevkit.experiments", "verify_consistency"),
    "experiments.product_order_probe":
        ("chevkit.experiments", "product_order_probe"),
    "scenario.load_scenario": ("chevkit.scenario", "load_scenario"),
    "cli.canonical_json": ("chevkit.cli", "canonical_json"),
}
LAYERS = ("poly", "jets", "linalg", "staircase", "wedge", "chevalley",
          "experiments", "scenario", "cli")


def _chevkit_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "chevkit" or name.startswith("chevkit.")]


def resolve(name):
    """(owner, attribute, raw object) for a target; owner is a class for
    methods, the defining module otherwise."""
    modname, path = TARGETS[name]
    owner = importlib.import_module(modname)
    if "." in path:
        cls_name, path = path.split(".")
        owner = getattr(owner, cls_name)
        return owner, path, vars(owner)[path]
    return owner, path, getattr(owner, path)


class Tracer:
    """Per-function call counts and self times, plus work counters."""

    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)   # scaled, closed passes
        self._pass_self = dict.fromkeys(TARGETS, 0.0)  # raw, open pass
        self.counters = dict.fromkeys(
            ("jet_cells", "analysis_requests", "analysis_hits",
             "elim_cells", "vectors_in", "rank_out", "max_coeff_bits",
             "chain_orders"), 0)
        self._stack = []
        self._undo = []
        self._analyses = weakref.WeakKeyDictionary()
        self._chains = weakref.WeakKeyDictionary()
        self.wrappers = {}

    # counters, each called as hook(args, kwargs, result)

    def _count_jet(self, args, kwargs, jm):
        rows, cols = jm.shape
        self.counters["jet_cells"] += rows * cols

    def _count_analysis(self, args, kwargs, result):
        system, level = args[0], args[1] if len(args) > 1 else kwargs["l"]
        seen = self._analyses.setdefault(system, set())
        self.counters["analysis_requests"] += 1
        self.counters["analysis_hits"] += level in seen
        seen.add(level)

    def _count_elimination(self, args, kwargs, elim):
        rows = args[0] if args else kwargs["rows"]
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        self.counters["elim_cells"] += len(rows) * ncols
        bits = max((abs(v).bit_length() for row in elim.rows for v in row),
                   default=0)
        if bits > self.counters["max_coeff_bits"]:
            self.counters["max_coeff_bits"] = bits

    def _count_subspace(self, args, kwargs, subspace):
        vectors = args[1] if len(args) > 1 else kwargs["vectors"]
        self.counters["vectors_in"] += len(vectors)
        self.counters["rank_out"] += subspace.dim

    def _count_chain(self, args, kwargs, rj):
        engine, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
        seen = self._chains.setdefault(engine, set())
        if k not in seen:
            seen.add(k)
            self.counters["chain_orders"] += len(rj.chain)

    def _hooks(self):
        return {
            "jets.jet_matrix": self._count_jet,
            "jets.analysis": self._count_analysis,
            "linalg.staged_elimination": self._count_elimination,
            "linalg.from_vectors": self._count_subspace,
            "chevalley.relation_jets": self._count_chain,
        }

    # spans

    def _wrap(self, name, func, hook):
        stack = self._stack
        calls, self_s = self.calls, self._pass_self
        clock = time.perf_counter

        # from_vectors iterates its input once; a list can also be counted
        materialize = name == "linalg.from_vectors"

        @functools.wraps(func)
        def span(*args, **kwargs):
            if materialize and len(args) > 1:
                args = (args[0], list(args[1])) + args[2:]
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                begin = clock()
                hook(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - begin
            return result

        span.chevkit_bench_span = name
        return span

    def close_pass(self, scale):
        """Fold the open pass's self times into the totals, scaled."""
        for name, value in self._pass_self.items():
            self.self_s[name] += value * scale
            self._pass_self[name] = 0.0

    def install(self):
        hooks = self._hooks()
        for name in TARGETS:
            owner, attr, raw = resolve(name)
            hook = hooks.get(name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, hook))
            else:
                wrapped = self._wrap(name, raw, hook)
            self.wrappers[name] = wrapped
            owners = [owner] if isinstance(owner, type) else _chevkit_modules()
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is raw:
                        setattr(target, key, wrapped)
                        self._undo.append((target, key, raw))

    def uninstall(self):
        while self._undo:
            target, key, raw = self._undo.pop()
            setattr(target, key, raw)
        self.wrappers = {}

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # report

    def metrics(self, passes, pass_s, untraced_pass_s):
        """Per-pass means; pass_s and untraced_pass_s are per-pass walls."""
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        traced = 0.0
        for layer in LAYERS:
            total = sum(v for n, v in self.self_s.items()
                        if n.split(".")[0] == layer) / passes
            out[f"{layer}.self_s"] = (total, "s")
            traced += total
        c = self.counters
        engines = self.calls["chevalley.engine_init"]
        out.update({
            "jets.jet_matrix.cells": (c["jet_cells"] / passes, "count"),
            "jets.analysis.hit_ratio": (
                c["analysis_hits"] / c["analysis_requests"]
                if c["analysis_requests"] else 0.0, "ratio"),
            "linalg.staged_elimination.cells":
                (c["elim_cells"] / passes, "count"),
            "linalg.from_vectors.vectors_in":
                (c["vectors_in"] / passes, "count"),
            "linalg.from_vectors.rank_ratio": (
                c["rank_out"] / c["vectors_in"] if c["vectors_in"] else 0.0,
                "ratio"),
            "linalg.max_coeff_bits": (c["max_coeff_bits"], "bits"),
            "staircase.diagram.builds_per_engine": (
                self.calls["staircase.diagram_from_generators"] / engines
                if engines else 0.0, "ratio"),
            "chevalley.chain_orders": (c["chain_orders"] / passes, "count"),
            "other.self_s": (pass_s - traced, "s"),
            "trace.pass_s": (pass_s, "s"),
            "trace.overhead_frac": (pass_s / untraced_pass_s - 1.0, "frac"),
        })
        return out
