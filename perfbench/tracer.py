"""Span tracing installed from outside the package.

:class:`Tracer` replaces selected public functions with wrappers in every
``maxvar.*`` namespace that binds them (``maxvar.cli.from_samples`` is
wrapped along with ``maxvar.dist.from_samples``), and replaces the
``cumulative`` and ``survival`` cached properties of
``EmpiricalDistribution``. Each call records one span: name, start, end,
parent span, op id and work counts. Spans stay in memory; ``uninstall``
puts every original object back. Nothing under ``src/`` is edited, and an
untraced run never constructs a tracer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _atoms(args, kwargs, result):
    return {"atoms": _arg(args, kwargs, 0, "d").atom_count}


def _from_samples(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 0, "raw")), "atoms": result.atom_count}


def _load_csv(args, kwargs, result):
    return {"rows": result.rows.shape[0],
            "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _mixture_quad(args, kwargs, result):
    return {"atoms": _arg(args, kwargs, 0, "d").atom_count,
            "panels": _arg(args, kwargs, 2, "q").panels}


def _mc(args, kwargs, result):
    return {"atoms": _arg(args, kwargs, 0, "d").atom_count,
            "trials": int(_arg(args, kwargs, 2, "trials"))}


def _render_json(args, kwargs, result):
    return {"bytes": len(result)}


def _run_suite(args, kwargs, result):
    return {"trials": int(_arg(args, kwargs, 1, "trials"))}


def _main_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv") or sys.argv[1:]
    return f"cli.main.{argv[0]}"


# (module, function, work counter). The span name is "<module>.<function>"
# with the module's leading underscore dropped, since metric names must
# start with a letter or digit.
FUNCTIONS = (
    ("cli", "load_csv", _load_csv),
    ("cli", "portfolio_law", None),
    ("cli", "run_query", None),
    ("cli", "emit_envelope", None),
    ("cli", "emit_curve", None),
    ("cli", "cmd_verify", None),
    ("_serialize", "render_json", _render_json),
    ("dist", "from_samples", _from_samples),
    ("dist", "affine", None),
    ("measures", "var", None),
    ("measures", "cvar_min", None),
    ("measures", "cvar_choquet", None),
    ("measures", "maxvar_choquet", _atoms),
    ("measures", "maxvar_spectral", _atoms),
    ("measures", "maxvar_mixture_exact", _atoms),
    ("measures", "maxvar_mixture_quad", _mixture_quad),
    ("measures", "suggest_rule", None),
    ("measures", "maxvar_mc", _mc),
    ("measures", "minvar", _atoms),
    ("envelope", "extremal_density", _atoms),
    ("envelope", "core_check", _atoms),
    ("envelope", "dual_gap", _atoms),
    ("envelope", "mixture_density", _atoms),
    ("axioms", "run_suite", _run_suite),
)
# Cached per-law arrays; a span is one computation, since later reads hit
# the cache without calling the function.
PROPERTIES = ("cumulative", "survival")
# Every check_* and _check_* function of maxvar.axioms shares this span name.
CHECKS_SPAN = "axioms.checks"
SUBCOMMANDS = ("var", "cvar", "maxvar", "minvar", "envelope", "curve", "verify")

def _span(mod: str, fn: str) -> str:
    return f"{mod.lstrip('_')}.{fn}"


SPANS = (
    *(_span(mod, fn) for mod, fn, _ in FUNCTIONS),
    *(f"dist.{prop}" for prop in PROPERTIES),
    CHECKS_SPAN,
)
WORK = {
    "cli.load_csv": ("rows", "bytes"),
    "dist.from_samples": ("rows", "atoms"),
    "measures.maxvar_choquet": ("atoms",),
    "measures.maxvar_spectral": ("atoms",),
    "measures.maxvar_mixture_exact": ("atoms",),
    "measures.minvar": ("atoms",),
    "measures.maxvar_mixture_quad": ("panels",),
    "measures.maxvar_mc": ("trials",),
    "envelope.extremal_density": ("atoms",),
    "envelope.core_check": ("atoms",),
    "envelope.dual_gap": ("atoms",),
    "envelope.mixture_density": ("atoms",),
    "serialize.render_json": ("bytes",),
    "axioms.run_suite": ("trials",),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit. All values are per op:
    totals over the traced loop divided by the ops it ran."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "calls/op"
        units[f"{span}.busy_s"] = "s/op"
        units[f"{span}.self_s"] = "s/op"
        for count in WORK.get(span, ()):
            units[f"{span}.{count}"] = f"{count}/op"
    for sub in SUBCOMMANDS:
        units[f"cli.main.{sub}.busy_s"] = "s/op"
    units["op.busy_s"] = "s/op"
    units["op.self_s"] = "s/op"
    units["trace_overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Records spans while installed; see the module notes."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, work=None, name_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent, self.op_id, {})
            if work is not None:
                self.spans[index][5].update(work(args, kwargs, result))
            return result

        return traced

    def _rebind(self, original, wrapper) -> None:
        """Point every maxvar namespace that binds ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "maxvar" or mod_name.startswith("maxvar.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        import maxvar.axioms as axioms
        import maxvar.cli as cli
        from maxvar.dist import EmpiricalDistribution

        if self._restore:
            raise RuntimeError("tracer is already installed")
        main = cli.main
        self._rebind(main, self._wrap(main, "cli.main", name_of=_main_name))
        for mod, fn, work in FUNCTIONS:
            original = getattr(sys.modules[f"maxvar.{mod}"], fn)
            self._rebind(original, self._wrap(original, _span(mod, fn), work))
        for attr, value in list(vars(axioms).items()):
            if attr.startswith(("check_", "_check_")) and callable(value):
                self._rebind(value, self._wrap(value, CHECKS_SPAN))
        for prop in PROPERTIES:
            original = EmpiricalDistribution.__dict__[prop]
            traced = functools.cached_property(
                self._wrap(original.func, f"dist.{prop}")
            )
            traced.__set_name__(EmpiricalDistribution, prop)
            setattr(EmpiricalDistribution, prop, traced)
            self._restore.append((EmpiricalDistribution, prop, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def aggregate(self, ops: int, op_busy: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans, per op over ``ops`` ops
        whose latencies sum to ``op_busy`` seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = dict.fromkeys(metric_units(), 0.0)
        top_level = 0.0
        for i, (name, start, end, parent, _, work) in enumerate(self.spans):
            busy = end - start
            if parent < 0:
                top_level += busy
            if name.startswith("cli.main."):
                totals[f"{name}.busy_s"] += busy
                continue
            totals[f"{name}.calls"] += 1
            totals[f"{name}.busy_s"] += busy
            totals[f"{name}.self_s"] += busy - child_time[i]
            for key in WORK.get(name, ()):
                totals[f"{name}.{key}"] += work.get(key, 0)
        totals["op.busy_s"] = op_busy
        totals["op.self_s"] = op_busy - top_level
        return {name: value / ops for name, value in totals.items()}

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, **work}) + "\n")
