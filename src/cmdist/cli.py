"""Command-line interface.

Commands
--------
diagram     persistence diagram of a combination phi^t on one input
bottleneck  bottleneck distance between two inputs at one t
cmd         certified maximization over t (branch-and-bound, special values, or grid)
matchdist   sampled lower bound of the classical two-parameter distance
predict     contour-predicted diagram coordinates vs the mesh diagram
special     special-value report for a pair of contour families
compare     cmd and matchdist side by side on the same input pair

Inputs are built-in fixtures (``--fixture cone:64``), OFF meshes with a
two-column values file, or contour JSON files.  JSON output is
deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from . import jsonio, plots
from .complexes import BiFunction, fixture, load_complex
from .convex import (
    DEFAULT_EPS,
    cmd_maximize,
    g_value,
    grid_scan,
    matching_distance_scan,
    slice_grid,
)
from .pareto import analytic_contours, cmd_via_special_values, load_contours, position_predict, special_values
from .persistence import lower_star_diagram

COMMANDS = ("diagram", "bottleneck", "cmd", "matchdist", "predict", "special", "compare")


@dataclass
class RunConfig:
    command: str
    fixture: str | None = None
    fixture2: str | None = None
    mesh: str | None = None
    values: str | None = None
    mesh2: str | None = None
    values2: str | None = None
    contours: str | None = None
    contours2: str | None = None
    degree: int = 0
    eps: float = DEFAULT_EPS
    mode: str = "bnb"
    grid: str | None = None
    t: float | None = None
    out: str | None = None
    plot: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.degree not in (0, 1, 2):
            raise ValueError(f"degree must be 0, 1 or 2, got {self.degree}")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.mode not in ("bnb", "special", "grid"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _parse_fixture_flag(text: str) -> tuple[str, int]:
    name, _, res = text.rpartition(":")
    if not name:
        raise ValueError(f"fixture flag {text!r} must look like name:resolution")
    try:
        resolution = int(res)
    except ValueError:
        raise ValueError(f"bad resolution in fixture flag {text!r}") from None
    return name, resolution


def _load_input(config: RunConfig, which: int) -> BiFunction:
    fixture_flag = config.fixture if which == 1 else config.fixture2
    mesh = config.mesh if which == 1 else config.mesh2
    values = config.values if which == 1 else config.values2
    if fixture_flag:
        name, res = _parse_fixture_flag(fixture_flag)
        return fixture(name, res)[1]
    if mesh and values:
        return load_complex(mesh, values)[1]
    flag = "--fixture" if which == 1 else "--fixture2"
    raise ValueError(f"input {which} missing: pass {flag} NAME:RES or --mesh/--values paths")


def _load_contour_set(config: RunConfig, which: int):
    path = config.contours if which == 1 else config.contours2
    if path:
        return load_contours(path)
    fixture_flag = config.fixture if which == 1 else config.fixture2
    if fixture_flag:
        name, _ = _parse_fixture_flag(fixture_flag)
        return analytic_contours(name)
    raise ValueError(f"no contour source for input {which}: pass --contours or a closed fixture")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        na, nb = text.lower().split("x")
        return int(na), int(nb)
    except ValueError:
        raise ValueError(f"grid flag {text!r} must look like AxB, e.g. 11x11") from None


def _require_t(config: RunConfig) -> float:
    if config.t is None:
        raise ValueError(f"command {config.command!r} needs --t")
    if not 0.0 <= config.t <= 1.0:
        raise ValueError(f"--t must lie in [0, 1], got {config.t}")
    return config.t


def _emit(config: RunConfig, payload: dict) -> None:
    text = jsonio.dumps_canonical(payload)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_result_payload(result, config: RunConfig) -> dict:
    obj = result.to_json()
    obj["degree"] = config.degree
    obj["eps"] = config.eps
    return obj


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    if config.command == "diagram":
        f = _load_input(config, 1)
        t = _require_t(config)
        dgm = lower_star_diagram(f.complex, f.at(t), config.degree)
        payload = dgm.to_json()
        payload["t"] = t
        _emit(config, payload)
        if config.plot:
            plots.diagram_svg(dgm, config.plot)
        return 0

    if config.command == "bottleneck":
        f, h = _load_input(config, 1), _load_input(config, 2)
        t = _require_t(config)
        value = g_value(f, h, config.degree, t)
        _emit(config, {"degree": config.degree, "t": t, "bottleneck": value})
        return 0

    if config.command == "cmd":
        f, h = _load_input(config, 1), _load_input(config, 2)
        specials = []
        if config.mode == "special":
            specials = special_values(_load_contour_set(config, 1), _load_contour_set(config, 2))
        result = _run_cmd(config, f, h, specials)
        _emit(config, _cmd_result_payload(result, config))
        if config.plot:
            plots.trace_svg(result.trace, config.plot,
                            special_ts=[sv.t for sv in specials if sv.condition != "degenerate-family"],
                            title=f"g(t), degree {config.degree}")
        return 0

    if config.command == "matchdist":
        f, h = _load_input(config, 1), _load_input(config, 2)
        _emit(config, {"degree": config.degree, **_matchdist(config, f, h)})
        return 0

    if config.command == "predict":
        f = _load_input(config, 1)
        contours = _load_contour_set(config, 1)
        t = _require_t(config)
        predicted = position_predict(contours, t)
        dgm = lower_star_diagram(f.complex, f.at(t), config.degree)
        coords = dgm.coordinates()
        deviation = max(
            (min(abs(w - p) for p in predicted) for w in coords), default=0.0
        ) if predicted else math.inf
        _emit(config, {
            "degree": config.degree,
            "t": t,
            "predicted": predicted,
            "diagram_coordinates": coords,
            "max_deviation": deviation,
        })
        if config.plot:
            plots.contours_svg(contours, config.plot)
        return 0

    if config.command == "special":
        c1 = _load_contour_set(config, 1)
        c2 = _load_contour_set(config, 2)
        report = special_values(c1, c2)
        _emit(config, {"special_values": [sv.to_json() for sv in report]})
        if config.plot:
            plots.contours_svg(list(c1) + list(c2), config.plot)
        return 0

    if config.command == "compare":
        f, h = _load_input(config, 1), _load_input(config, 2)
        result = cmd_maximize(f, h, config.degree, config.eps)
        md = _matchdist(config, f, h)
        cmd_payload = _cmd_result_payload(result, config)
        del cmd_payload["trace"]  # the table is the point here; cmd keeps the full trace
        _emit(config, {"degree": config.degree, "cmd": cmd_payload, "matchdist": md})
        witness, grid = md["witness"], md["grid"]
        rows = [
            ("convex matching distance", _num(result.value)),
            ("  argmax t", _num(result.argmax_t)),
            ("  certificate gap", _num(result.gap)),
            (f"matching distance (sampled, {grid['n_a']}x{grid['n_b']})", _num(md["value"])),
            ("  witness (a, b)", f"({_num(witness['a'])}, {_num(witness['b'])})"),
        ]
        rule = "-" * 58
        table = "\n".join([rule, *(f"{label:<34}{cell:>24}" for label, cell in rows), rule])
        # stdout carries the table only when the JSON went to --out
        print(table, file=sys.stdout if config.out else sys.stderr)
        return 0

    raise ValueError(f"unknown command {config.command!r}")


def _num(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return format(x, ".6g")


def _matchdist(config: RunConfig, f: BiFunction, h: BiFunction) -> dict:
    """Sampled matching distance over the --grid slices, as its JSON block."""
    na, nb = _parse_grid("11x11" if config.grid is None else config.grid)
    value, witness, _trace = matching_distance_scan(f, h, config.degree, slice_grid(na, nb))
    return {"kind": "sampled-lower-bound", "value": value,
            "witness": {"a": witness.a, "b": witness.b}, "grid": {"n_a": na, "n_b": nb}}


def _run_cmd(config: RunConfig, f: BiFunction, h: BiFunction, specials):
    if config.mode == "bnb":
        return cmd_maximize(f, h, config.degree, config.eps)
    if config.mode == "grid":
        if config.grid is None:
            return grid_scan(f, h, config.degree)
        return grid_scan(f, h, config.degree, _parse_grid(config.grid)[0])
    return cmd_via_special_values(f, h, config.degree, specials)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmdist",
        description="Convex matching distance toolbox for plane-valued vertex data",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--fixture", help="built-in surface, e.g. cone:64 or ellipsoid(2,1):64")
    parser.add_argument("--fixture2", help="second input fixture")
    parser.add_argument("--mesh", help="OFF mesh path for input 1")
    parser.add_argument("--values", help="two-column values path for input 1")
    parser.add_argument("--mesh2", help="OFF mesh path for input 2")
    parser.add_argument("--values2", help="two-column values path for input 2")
    parser.add_argument("--contours", help="contour JSON path for input 1")
    parser.add_argument("--contours2", help="contour JSON path for input 2")
    parser.add_argument("--degree", type=int, default=0, help="homology degree (0, 1 or 2)")
    parser.add_argument("--eps", type=float, default=DEFAULT_EPS, help="certificate tolerance")
    parser.add_argument("--mode", choices=("bnb", "special", "grid"), default="bnb")
    parser.add_argument("--grid",
                        help="slice grid AxB for matchdist/compare (default 11x11); "
                             "cmd --mode grid scans A cells (default 256) and ignores B")
    parser.add_argument("--t", type=float, help="combination parameter in [0, 1]")
    parser.add_argument("--out", help="write JSON here instead of stdout")
    parser.add_argument("--plot", help="write an SVG plot here")
    return parser


def config_from_args(argv) -> RunConfig:
    return RunConfig(**vars(build_parser().parse_args(argv)))


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return 0 if exc.code in (0, None) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
