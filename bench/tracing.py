"""In-memory spans around public ``mabkcert`` functions, and the layer metrics.

``instrumented`` swaps each traced function for a wrapper in every
``mabkcert`` module namespace that holds it, so calls are seen however the
caller looks the name up: ``npa`` imports ``solve`` by name, ``blochopt`` and
``npa`` import ``mabk_expression`` by name, and ``cli.cmd_reproduce`` calls
its sibling commands through module globals.  Outside the ``with`` block the
original functions are back in place, so untraced runs pay nothing.

Layers are the module names; a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# Every module the patch table names must be loaded before patching.
from mabkcert import (  # noqa: F401
    blochopt, cli, correlators, mabk, npa, sdp, stabilizer,
)
from workloads import FREE_MAXIMUM, HONEST_MAXIMUM, optimum_hits

MODULES = ("cli", "mabk", "stabilizer", "correlators", "blochopt", "npa", "sdp")
CLI_COMMANDS = {
    "cmd_mabk_show": "mabk-show",
    "cmd_theorem1": "theorem1",
    "cmd_optimize": "optimize",
    "cmd_npa": "npa",
    "cmd_reproduce": "reproduce-paper",
}
OPTIMIZER_KEYS = ("n3", "n4", "n5", "n3-free", "n4-free", "n5-free")
NPA_KEYS = ("l2-pc", "l2-free", "l3-pc", "l3-free")
NPA_STAGES = {
    "generate_monomials": "generate_s",
    "build_moment_structure": "build_s",
    "reduce_structure": "reduce_s",
    "lower_to_sdp": "lower_s",
}
SDP_CALLS = {
    "solve": "solve_s",
    "verify_certificate": "verify_s",
    "certified_upper_bound": "certify_s",
}

# (module, function) pairs that get a span; the span is named "module.function".
TRACED = (
    [("cli", "main")]
    + [("cli", f) for f in CLI_COMMANDS]
    + [
        ("mabk", "mabk_expression"),
        ("stabilizer", "ghz_expansion"),
        ("correlators", "ghz_expectation"),
        ("blochopt", "maximize_honest_mabk"),
        ("blochopt", "maximize_unconstrained_mabk"),
        ("npa", "npa_upper_bound"),
    ]
    + [("npa", f) for f in NPA_STAGES]
    + [("sdp", f) for f in SDP_CALLS]
)

# The one-time GHZ expansion is cached by correlators.identity_free_elements,
# so its time shows only in the traced set-up.
SETUP_METRICS = ("stabilizer.expansion_s",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records one span per traced call: name, start, end and parent span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), float("nan"), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        _annotate(span, fn, args, kwargs, result)
        return result


def _annotate(span: Span, fn, args, kwargs, result) -> None:
    """Attach the attributes the layer metrics group and count by."""
    if span.name.startswith("blochopt.maximize_"):
        n = inspect.signature(fn).bind(*args, **kwargs).arguments["n"]
        honest = span.name == "blochopt.maximize_honest_mabk"
        span.attrs = {
            "key": f"n{n}" if honest else f"n{n}-free",
            "optimum": (HONEST_MAXIMUM if honest else FREE_MAXIMUM)[n],
            "values": list(result.per_restart_values),
            "converged": result.converged_count,
        }
    elif span.name == "npa.npa_upper_bound":
        arguments = inspect.signature(fn).bind(*args, **kwargs).arguments
        pinned = "pc" if arguments["with_constraint"] else "free"
        span.attrs = {
            "key": f"l{arguments['level']}-{pinned}",
            "basis_size": result.basis_size,
            "reduced_size": result.reduced_size,
            "moment_classes": result.n_moment_classes,
        }
    elif span.name == "sdp.solve":
        span.attrs = {"iterations": result.iterations}


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every traced function through ``tracer`` inside the block."""
    namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "mabkcert"]
    swapped: list[tuple[object, str, object]] = []
    try:
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"mabkcert.{module_name}"], func_name)
            wrapper = _wrapper(tracer, f"{module_name}.{func_name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        swapped.append((ns, attr, original))
        yield tracer
    finally:
        for ns, attr, original in swapped:
            setattr(ns, attr, original)


def _self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _npa_key(spans: list[Span], i: int) -> str | None:
    """Problem label of the npa_upper_bound call that span ``i`` belongs to."""
    while i is not None:
        if spans[i].name == "npa.npa_upper_bound":
            return spans[i].attrs.get("key")
        i = spans[i].parent
    return None


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    names = [("cli.self_s", "s", "lower")]
    names += [(f"cli.{c}_s", "s", "lower") for c in CLI_COMMANDS.values()]
    names += [
        ("mabk.expression_calls", "count", "lower"),
        ("mabk.expression_s", "s", "lower"),
        ("stabilizer.expansion_s", "s", "lower"),
        ("correlators.expectation_calls", "count", "lower"),
        ("correlators.us_per_expectation", "us", "lower"),
    ]
    for k in OPTIMIZER_KEYS:
        names += [
            (f"blochopt.maximize_s.{k}", "s", "lower"),
            (f"blochopt.ms_per_restart.{k}", "ms", "lower"),
            (f"blochopt.optimum_hits.{k}", "count", "higher"),
            (f"blochopt.local_max_hits.{k}", "count", "lower"),
            (f"blochopt.converged_frac.{k}", "frac", "higher"),
        ]
    names += [
        ("blochopt.restarts_per_s", "1/s", "higher"),
        ("blochopt.s_per_optimum", "s", "lower"),
    ]
    for p in NPA_KEYS:
        names += [(f"npa.{m}.{p}", "s", "lower") for m in NPA_STAGES.values()]
        names += [
            (f"npa.basis_size.{p}", "count", "lower"),
            (f"npa.reduced_size.{p}", "count", "lower"),
            (f"npa.moment_classes.{p}", "count", "lower"),
            (f"sdp.solve_s.{p}", "s", "lower"),
            (f"sdp.iterations.{p}", "count", "lower"),
            (f"sdp.ms_per_iteration.{p}", "ms", "lower"),
            (f"sdp.verify_s.{p}", "s", "lower"),
            (f"sdp.certify_s.{p}", "s", "lower"),
        ]
    names += [(f"{m}.self_s", "s", "lower") for m in MODULES if m != "cli"]
    names += [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return names


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced workload run; absent layers read 0."""
    out = {name: 0.0 for name, _, _ in metric_names()}
    out["trace.spans"] = float(len(spans))
    restarts: Counter[str] = Counter()
    converged: Counter[str] = Counter()
    for s, own in zip(spans, _self_times(spans)):
        out[f"{s.module}.self_s"] += own
        func = s.name.split(".", 1)[1]
        if s.module == "cli" and func in CLI_COMMANDS:
            out[f"cli.{CLI_COMMANDS[func]}_s"] += s.duration
        elif s.name == "mabk.mabk_expression":
            out["mabk.expression_calls"] += 1
            if s.parent is None or spans[s.parent].name != s.name:  # not recursion
                out["mabk.expression_s"] += s.duration
        elif s.name == "stabilizer.ghz_expansion":
            out["stabilizer.expansion_s"] += s.duration
        elif s.name == "correlators.ghz_expectation":
            out["correlators.expectation_calls"] += 1
            out["correlators.us_per_expectation"] += s.duration * 1e6
        elif s.name.startswith("blochopt.maximize_"):
            k = s.attrs["key"]
            values = s.attrs["values"]
            hits = optimum_hits(values, s.attrs["optimum"])
            out[f"blochopt.maximize_s.{k}"] += s.duration
            out[f"blochopt.optimum_hits.{k}"] += hits
            out[f"blochopt.local_max_hits.{k}"] += len(values) - hits
            restarts[k] += len(values)
            converged[k] += s.attrs["converged"]
        elif s.name == "npa.npa_upper_bound":
            p = s.attrs["key"]
            for m in ("basis_size", "reduced_size", "moment_classes"):
                out[f"npa.{m}.{p}"] = float(s.attrs[m])
        elif s.module == "npa":
            out[f"npa.{NPA_STAGES[func]}.{_npa_key(spans, s.parent)}"] += s.duration
        elif s.module == "sdp":
            p = _npa_key(spans, s.parent)
            out[f"sdp.{SDP_CALLS[func]}.{p}"] += s.duration
            if func == "solve":
                out[f"sdp.iterations.{p}"] += s.attrs["iterations"]

    calls = out["correlators.expectation_calls"]
    if calls:
        out["correlators.us_per_expectation"] /= calls
    for k, r in restarts.items():
        out[f"blochopt.ms_per_restart.{k}"] = out[f"blochopt.maximize_s.{k}"] * 1e3 / r
        out[f"blochopt.converged_frac.{k}"] = converged[k] / r
    for p in NPA_KEYS:
        iterations = out[f"sdp.iterations.{p}"]
        if iterations:
            solve_ms = out[f"sdp.solve_s.{p}"] * 1e3
            out[f"sdp.ms_per_iteration.{p}"] = solve_ms / iterations
    return out


def restart_totals(metrics: dict[str, float]) -> tuple[float, float]:
    """(restarts, restarts ending at the known maximum) summed over optimizer calls."""
    hits = sum(metrics[f"blochopt.optimum_hits.{k}"] for k in OPTIMIZER_KEYS)
    trapped = sum(metrics[f"blochopt.local_max_hits.{k}"] for k in OPTIMIZER_KEYS)
    return hits + trapped, hits


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def spans_payload(spans: list[Span]) -> list[dict]:
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "attrs": {k: v for k, v in s.attrs.items() if k != "values"},
        }
        for s in spans
    ]
