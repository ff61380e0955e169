"""Span recorder for traced benchmark runs, and the per-layer metrics.

`install(tracer)` wraps the public callables at each korovkinlab module
boundary from the outside, so the program's own files stay unchanged:

- cli: the names it imports from config, engine and choquet;
- engine: `estimate_choquet_boundary` and `check_positivity`;
- choquet: the `linprog` it calls and `verify_peak_certificate`;
- config: the grid factories it imports from space;
- operators: `KernelOperator.apply`, and `OperatorFamily.operator` on a
  cache miss (a kernel build);
- functions: `ScalarFunction.values`, and the evaluation rules returned
  by `named_function` and `function_from_values` (counted, not spanned:
  there are hundreds of thousands of calls).

Spans live in memory until `Tracer.dump`. A layer's self time is its span
minus the part of it that child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from functools import cached_property

# per-layer metric name -> (unit, better); the order is the output order
PER_LAYER = {
    "choquet.lp_calls": ("count", "lower"),
    "choquet.lp_per_point": ("count", "lower"),
    "choquet.lp_s": ("s", "lower"),
    "choquet.lp_s_p50": ("s", "lower"),
    "choquet.lp_s_p90": ("s", "lower"),
    "choquet.lp_rows_mean": ("count", "lower"),
    "choquet.lp_rows_max": ("count", "lower"),
    "choquet.scan_s": ("s", "lower"),
    "choquet.scan_self_s": ("s", "lower"),
    "choquet.verify_s": ("s", "lower"),
    "choquet.verify_calls": ("count", "lower"),
    "choquet.indeterminate": ("count", "lower"),
    "functions.rule_calls": ("count", "lower"),
    "functions.values_s": ("s", "lower"),
    "operators.apply_s": ("s", "lower"),
    "operators.apply_calls": ("count", "lower"),
    "operators.kernel_build_s": ("s", "lower"),
    "operators.kernel_builds": ("count", "lower"),
    "operators.positivity_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "config.build_s": ("s", "lower"),
    "space.build_s": ("s", "lower"),
    "space.pairwise_bytes": ("B_computed", "lower"),
    "engine.hypotheses_s": ("s", "lower"),
    "engine.convergence_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# a percentile is resolved only when at least this many samples lie above it
TAIL_SAMPLES = 10


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)


class Tracer:
    """Collects nested spans of one run; single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.rule_calls = 0
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, attrs=None):
        """`fn` recorded as span `name`; `attrs(args, kwargs, result)` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def count_rule(self, rule):
        def counted(x):
            self.rule_calls += 1
            return rule(x)

        return counted

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "rule_calls": self.rule_calls,
            "spans": [{"run_id": self.run_id, **dataclasses.asdict(s)} for s in self.spans],
        }


def install(tracer: Tracer) -> None:
    """Wrap korovkinlab's module-boundary callables so they record spans."""
    from korovkinlab import choquet, cli, config, engine, functions, operators

    def lp_rows(args, kwargs, result):
        rows = 0
        for key in ("A_ub", "A_eq"):
            mat = kwargs.get(key)
            if mat is not None:
                rows += len(mat)
        return {"rows": rows}

    def scan_attrs(args, kwargs, estimate):
        notes = [
            {"point": p.index, "note": p.note}
            for p in estimate.points
            if p.label is choquet.Classification.INDETERMINATE
        ]
        return {"points": len(estimate.points), "indeterminate": notes}

    def space_attrs(args, kwargs, space):
        return {"points": space.n_points}

    choquet.linprog = tracer.wrap("choquet.linprog", choquet.linprog, lp_rows)
    choquet.verify_peak_certificate = tracer.wrap(
        "choquet.verify", choquet.verify_peak_certificate
    )
    for mod in (cli, engine):
        mod.estimate_choquet_boundary = tracer.wrap(
            "choquet.scan", choquet.estimate_choquet_boundary, scan_attrs
        )
    engine.check_positivity = tracer.wrap("operators.positivity", engine.check_positivity)
    cli.verify_hypotheses = tracer.wrap("engine.hypotheses", cli.verify_hypotheses)
    cli.run_convergence = tracer.wrap("engine.convergence", cli.run_convergence)
    for name in (
        "load_config",
        "validate_config",
        "build_experiment",
        "build_spaces",
        "build_spans",
        "build_choquet_params",
    ):
        setattr(cli, name, tracer.wrap(f"config.{name}", getattr(cli, name)))
    for name in (
        "make_interval_grid",
        "make_circle_grid",
        "make_disc_grid",
        "make_box_grid",
        "make_custom_space",
    ):
        setattr(config, name, tracer.wrap("space.build", getattr(config, name), space_attrs))

    kernel_op = operators.KernelOperator
    kernel_op.apply = tracer.wrap("operators.apply", kernel_op.apply)
    family_operator = operators.OperatorFamily.operator
    traced_build = tracer.wrap("operators.kernel_build", family_operator)

    def operator(self, n):
        if int(n) in self._cache:
            return family_operator(self, n)
        return traced_build(self, n)

    operators.OperatorFamily.operator = operator

    values = cached_property(tracer.wrap("functions.values", functions.ScalarFunction.values.func))
    values.__set_name__(functions.ScalarFunction, "values")
    functions.ScalarFunction.values = values

    def counted_result(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            f = fn(*args, **kwargs)
            return dataclasses.replace(f, rule=tracer.count_rule(f.rule))

        return wrapper

    functions.named_function = counted_result(functions.named_function)
    config.named_function = counted_result(config.named_function)
    operators.function_from_values = counted_result(operators.function_from_values)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q < 100."""
    ranked = sorted(values)
    return ranked[max(0, -(-len(ranked) * q // 100) - 1)]


def layer_metrics(trace: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in PER_LAYER."""
    spans = trace["spans"]
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def self_total(*names):
        return sum(own[s["id"]] for n in names for s in by_name.get(n, []))

    names = {s["id"]: s["name"] for s in spans}
    lp = [s["end"] - s["start"] for s in by_name.get("choquet.linprog", [])]
    rows = [s["attrs"]["rows"] for s in by_name.get("choquet.linprog", [])]
    scans = by_name.get("choquet.scan", [])
    points = sum(s["attrs"].get("points", 0) for s in scans)
    config_top = [
        s
        for s in spans
        if s["name"].startswith("config.")
        and not (s["parent"] is not None and names[s["parent"]].startswith("config."))
    ]
    grids = by_name.get("space.build", [])
    return {
        "choquet.lp_calls": len(lp),
        "choquet.lp_per_point": len(lp) / points if points else 0.0,
        "choquet.lp_s": sum(lp),
        "choquet.lp_s_p50": percentile(lp, 50) if lp else 0.0,
        "choquet.lp_s_p90": percentile(lp, 90) if lp else 0.0,
        "choquet.lp_rows_mean": sum(rows) / len(rows) if rows else 0.0,
        "choquet.lp_rows_max": max(rows, default=0),
        "choquet.scan_s": total("choquet.scan"),
        "choquet.scan_self_s": self_total("choquet.scan"),
        "choquet.verify_s": total("choquet.verify"),
        "choquet.verify_calls": len(by_name.get("choquet.verify", [])),
        "choquet.indeterminate": sum(len(s["attrs"].get("indeterminate", [])) for s in scans),
        "functions.rule_calls": trace["rule_calls"],
        "functions.values_s": total("functions.values"),
        "operators.apply_s": total("operators.apply"),
        "operators.apply_calls": len(by_name.get("operators.apply", [])),
        "operators.kernel_build_s": total("operators.kernel_build"),
        "operators.kernel_builds": len(by_name.get("operators.kernel_build", [])),
        "operators.positivity_s": total("operators.positivity"),
        "cli.import_s": trace["import_s"],
        "config.build_s": sum(s["end"] - s["start"] for s in config_top),
        "space.build_s": total("space.build"),
        "space.pairwise_bytes": sum(8 * s["attrs"].get("points", 0) ** 2 for s in grids),
        "engine.hypotheses_s": total("engine.hypotheses"),
        "engine.convergence_s": total("engine.convergence"),
        "engine.self_s": self_total("engine.hypotheses", "engine.convergence"),
        "cli.self_s": self_total("cli.main"),
        "trace.overhead_s": overhead_s,
    }


def unresolved_percentiles(trace: dict) -> list[str]:
    """Percentile metrics with fewer than TAIL_SAMPLES calls above them."""
    n = sum(1 for s in trace["spans"] if s["name"] == "choquet.linprog")
    return [
        f"choquet.lp_s_p{q}" for q in (50, 90) if n * (100 - q) / 100 < TAIL_SAMPLES
    ]


def self_time_table(trace: dict) -> dict[str, float]:
    """Total self time per span name, largest first."""
    own = self_times(trace["spans"])
    table: dict[str, float] = {}
    for s in trace["spans"]:
        table[s["name"]] = table.get(s["name"], 0.0) + own[s["id"]]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))
