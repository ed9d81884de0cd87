"""Spans around the calls into each ``cmdist`` layer, recorded from outside.

The traced run replaces public functions on the modules where their callers
look them up (``cmdist.convex.lower_star_diagram``, ``cmdist.cli.cmd_maximize``
and so on) with wrappers that record a span: name, start, end, parent and
run id, plus a few counts.  Spans stay in memory until the run writes them
out.  The package itself is not changed; spans inside it are later work.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field


def _points(args, result):
    return {"points": result.total_multiplicity()}


def _points_in(args, result):
    return {"points_in": args[0].total_multiplicity() + args[1].total_multiplicity()}


# (modules holding the name, function name, span name or a function of the
#  call's arguments that gives it, function of (args, result) giving counts)
WRAPS = [
    (("convex",), "lower_star_diagram", lambda args: f"persistence.k{args[2]}", _points),
    (("convex",), "bottleneck_distance", "diagram.bottleneck", _points_in),
    (("diagram",), "candidate_costs", "diagram.candidate_costs",
     lambda args, result: {"candidates": len(result)}),
    (("convex", "pareto", "cli"), "g_value", "convex.g_value", None),
    (("convex", "pareto", "cli"), "cmd_maximize", "convex.cmd_maximize", None),
    (("convex", "cli"), "grid_scan", "convex.grid_scan", None),
    (("convex", "cli"), "matching_distance_scan", "convex.matching_distance_scan", None),
    (("pareto", "cli"), "special_values", "pareto.special_values",
     lambda args, result: {"count": len(result)}),
    (("pareto", "cli"), "cmd_via_special_values", "pareto.cmd_via_special_values", None),
    (("cli",), "main", "cli.main", None),
    (("complexes",), "fixture", "complexes.fixture", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    run: str
    phase: str           # "setup" or "round-<i>"
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counts):
        def wrapper(*args, **kwargs):
            span = Span(name(args) if callable(name) else name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1, self.run_id, self.phase)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        wrapped = {}
        for modules, attr, name, counts in WRAPS:
            for mod_name in modules:
                module = importlib.import_module(f"cmdist.{mod_name}")
                original = getattr(module, attr)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(original, name, counts)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span], rounds: int, traced_round_s: float,
                  untraced_round_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round of the traced run, as name -> (value, unit).

    ``complexes.fixture.busy_s`` covers the set-up phase instead, since that
    is where the benchmark builds its fixtures.
    """
    own = self_seconds(spans)
    solve = [i for i, s in enumerate(spans) if s.phase != "setup"]

    def named(name):
        return [spans[i] for i in solve if spans[i].name == name]

    def per_round(x):
        return x / rounds

    out: dict[str, tuple[float, str]] = {}
    for layer in ("persistence.k0", "persistence.k1", "diagram.bottleneck"):
        ms = [s.seconds * 1e3 for s in named(layer)]
        out[f"{layer}.calls"] = (per_round(len(ms)), "count")
        out[f"{layer}.busy_s"] = (per_round(sum(ms) / 1e3), "s")
        out[f"{layer}.ms_p50"] = (statistics.median(ms) if ms else 0.0, "ms")
        if layer == "diagram.bottleneck":
            out[f"{layer}.ms_max"] = (max(ms, default=0.0), "ms")
    persistence = [spans[i] for i in solve if spans[i].name.startswith("persistence.")]
    out["persistence.points_out"] = (per_round(sum(s.counts["points"] for s in persistence)), "count")
    bottlenecks = named("diagram.bottleneck")
    out["diagram.points_in_max"] = (max((s.counts["points_in"] for s in bottlenecks), default=0), "count")
    cands = named("diagram.candidate_costs")
    out["diagram.candidates"] = (per_round(sum(s.counts["candidates"] for s in cands)), "count")
    out["diagram.candidate_costs.busy_s"] = (per_round(sum(s.seconds for s in cands)), "s")
    slices = [s for s in bottlenecks
              if s.parent >= 0 and spans[s.parent].name == "convex.matching_distance_scan"]
    out["convex.evaluations"] = (per_round(len(named("convex.g_value")) + len(slices)), "count")
    out["convex.self_s"] = (per_round(sum(own[i] for i in solve if spans[i].name.startswith("convex."))), "s")
    specials = named("pareto.special_values")
    out["pareto.special_values.calls"] = (per_round(len(specials)), "count")
    out["pareto.special_values.busy_s"] = (per_round(sum(s.seconds for s in specials)), "s")
    out["pareto.special_values.count"] = (per_round(sum(s.counts["count"] for s in specials)), "count")
    out["cli.self_s"] = (per_round(sum(own[i] for i in solve if spans[i].name == "cli.main")), "s")
    out["complexes.fixture.busy_s"] = (
        sum((s.seconds for s in spans if s.phase == "setup" and s.name == "complexes.fixture"),
            0.0), "s")
    out["trace.overhead_s"] = (traced_round_s - untraced_round_s, "s")
    return out


def layer_shares(metrics: dict[str, tuple[float, str]], round_s: float) -> dict[str, float]:
    """Share of a traced round spent in each layer (busy time, or self time)."""
    keys = ("persistence.k0.busy_s", "persistence.k1.busy_s", "diagram.bottleneck.busy_s",
            "diagram.candidate_costs.busy_s", "convex.self_s", "pareto.special_values.busy_s",
            "cli.self_s")
    return {k.rsplit(".", 1)[0]: metrics[k][0] / round_s for k in keys}
