"""The benchmark's three workloads: their inputs, operations and checks.

A workload is built once per run (the set-up) and then runs whole rounds of
the same operations.  Operations look ``cmdist`` functions up on their
modules at call time, so the traced run sees the wrappers it installs.
Checks run after the timed rounds and compare every output against
``checks``, never against a stored copy of earlier output.

``cmdist`` is imported inside :func:`build`, not at the top of this file,
so that its import time counts in the set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# Round sizes: see the README for why each workload runs these sizes.
CONE_DISK_EPS = 5e-2    # 129 evaluations, all of degree-0 persistence on smooth data
NOISY_RESOLUTION = 40
NOISY_DRAWS = 16
NOISY_GRID = 8
SPHERE_PAIR = ("sphere", "ellipsoid(2,1)")


def use_source_tree() -> bool:
    """Put the checkout's ``src`` first on ``sys.path``; False when it holds no cmdist."""
    src = ROOT / "src"
    if not (src / "cmdist" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


@dataclass
class Outcome:
    """What one operation produced, judged after the timed region.

    ``failure`` names a fault that makes the operation count as failed;
    ``problems`` lists outputs that disagree with the independent checks.
    """

    evaluations: int = 0
    problems: list[str] = field(default_factory=list)
    failure: str | None = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cmdist`` command line in-process, with stdout captured."""
    from cmdist import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_payload(command: str, result) -> tuple[dict | None, Outcome]:
    """Decode CLI stdout, which must be one JSON document.

    When it is not, the operation fails as ``<command>-stdout-not-json``, and
    the leading JSON document is still returned so its numbers get checked.
    """
    code, text = result
    if code != 0:
        return None, Outcome(failure=f"{command}-exit-status: {code}")
    outcome = Outcome()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        outcome.failure = f"{command}-stdout-not-json: {exc}"
        try:
            payload, _end = json.JSONDecoder().raw_decode(text)
        except json.JSONDecodeError:
            return None, outcome
    return payload, outcome


def noise_draws(seed: int, sizes: tuple[int, ...], draws: int):
    """Uniform noise in [-NOISE, NOISE) for each draw and each vertex function.

    Draw ``j`` comes from the generator seeded with ``(seed, j)``, so the
    same seed always yields byte-identical noise.
    """
    import numpy as np

    out = []
    for j in range(draws):
        rng = np.random.default_rng([seed, j])
        out.append([rng.uniform(-checks.NOISE, checks.NOISE, n) for n in sizes])
    return out


class SmoothDeg0:
    """BnB worst case on cone/disk, sphere/ellipsoid BnB and the special route."""

    def __init__(self, seed: int):
        from cmdist import complexes

        self.cone = complexes.fixture("cone", 64)[1]
        self.disk = complexes.fixture("disk", 64)[1]
        self.sphere = complexes.fixture(SPHERE_PAIR[0], 64)[1]
        self.ellipsoid = complexes.fixture(SPHERE_PAIR[1], 64)[1]

    def ops(self):
        from cmdist import convex

        special = ["cmd", "--fixture", f"{SPHERE_PAIR[0]}:64", "--fixture2",
                   f"{SPHERE_PAIR[1]}:64", "--mode", "special"]
        return [
            ("cmd-cone-disk-deg0", lambda: convex.cmd_maximize(self.cone, self.disk, 0, CONE_DISK_EPS)),
            ("cmd-sphere-ellipsoid-deg0",
             lambda: convex.cmd_maximize(self.sphere, self.ellipsoid, 0, 1e-3)),
            ("cli-cmd-special", lambda: run_cli(special)),
        ]

    def check(self, out: dict) -> dict[str, Outcome]:
        res = {}
        r = out["cmd-cone-disk-deg0"]
        res["cmd-cone-disk-deg0"] = Outcome(r.evaluations, checks.at_most_problems(
            "cone/disk deg0 trace", [g for _t, g in r.trace], checks.TOL))

        bnb = out["cmd-sphere-ellipsoid-deg0"]
        probs = checks.curve_problems("sphere/ellipsoid deg0 trace", bnb.trace,
                                      checks.sphere_ellipsoid_deg0, checks.TOL)
        probs += _max_at_zero("sphere/ellipsoid deg0 bnb", bnb.value, bnb.argmax_t)
        res["cmd-sphere-ellipsoid-deg0"] = Outcome(bnb.evaluations, probs)

        payload, outcome = _cli_payload("cmd", out["cli-cmd-special"])
        if payload is not None:
            outcome.evaluations = payload["evaluations"]
            trace = [(row["t"], row["g"]) for row in payload["trace"]]
            outcome.problems += checks.curve_problems(
                "special route trace", trace, checks.sphere_ellipsoid_deg0, checks.TOL)
            outcome.problems += _max_at_zero("special route", payload["value"], payload["argmax_t"])
            if not abs(payload["value"] - bnb.value) <= payload["eps"] + checks.TOL:
                outcome.problems.append(
                    f"special route {payload['value']!r} disagrees with bnb {bnb.value!r}")
        res["cli-cmd-special"] = outcome
        return res


def _max_at_zero(label: str, value: float, argmax_t: float) -> list[str]:
    """Certified maximum of the sphere/ellipsoid curve: 1 at t = 0."""
    out = []
    if not abs(value - 1.0) <= checks.TOL:
        out.append(f"{label}: maximum {value!r}, expected 1 +- {checks.TOL:g}")
    if argmax_t != 0.0:
        out.append(f"{label}: argmax_t {argmax_t!r}, expected 0")
    return out


class SmoothDeg1:
    """``cmdist compare`` in degree 1: GF(2) reduction in BnB and in the slice scan."""

    ARGV = ["compare", "--fixture", "cone:64", "--fixture2", "disk:64", "--degree", "1",
            "--eps", "1e-2", "--grid", "3x3"]

    def __init__(self, seed: int):
        import cmdist.cli  # noqa: F401  (the CLI builds its own fixtures)

    def ops(self):
        return [("cli-compare-deg1", lambda: run_cli(self.ARGV))]

    def check(self, out: dict) -> dict[str, Outcome]:
        payload, outcome = _cli_payload("compare", out["cli-compare-deg1"])
        if payload is not None:
            cmd, md = payload["cmd"], payload["matchdist"]
            outcome.evaluations = cmd["evaluations"] + md["grid"]["n_a"] * md["grid"]["n_b"]
            # compare drops the g trace, so the curve is checked at the reported maximum
            outcome.problems += checks.curve_problems(
                "cone/disk deg1 maximum", [(cmd["argmax_t"], cmd["value"])],
                checks.cone_disk_deg1, checks.TOL)
            if not abs(cmd["value"] - 0.5) <= checks.TOL:
                outcome.problems.append(f"cone/disk deg1 maximum {cmd['value']!r}, expected 0.5")
            outcome.problems += checks.at_most_problems(
                "cone/disk deg1 matchdist", [md["value"]], checks.TOL)
        return {"cli-compare-deg1": outcome}


class NoisyDeg0:
    """``grid_scan`` on noisy sphere/ellipsoid pairs: diagrams of many points."""

    def __init__(self, seed: int):
        from cmdist import complexes, persistence
        from cmdist.complexes import BiFunction, VertexFunction

        self.lower_star = persistence.lower_star_diagram  # unwrapped, for the checks
        self._reference: dict[tuple[int, float], float] = {}
        base = [complexes.fixture(name, NOISY_RESOLUTION)[1] for name in SPHERE_PAIR]
        sizes = tuple(f.complex.n_vertices for f in base for _ in (0, 1))
        self.pairs = []
        for n1, n2, n3, n4 in noise_draws(seed, sizes, NOISY_DRAWS):
            s, e = base
            self.pairs.append((
                BiFunction(s.complex, VertexFunction(s.phi1.values + n1),
                           VertexFunction(s.phi2.values + n2)),
                BiFunction(e.complex, VertexFunction(e.phi1.values + n3),
                           VertexFunction(e.phi2.values + n4)),
            ))

    def ops(self):
        from cmdist import convex

        def scan(f, h):
            return lambda: convex.grid_scan(f, h, 0, NOISY_GRID)

        return [(f"grid-noisy-{j}", scan(f, h)) for j, (f, h) in enumerate(self.pairs)]

    def reference(self, j: int, t: float) -> float:
        """Independent bottleneck of draw ``j`` at ``t``; every round asks for the same ones."""
        if (j, t) not in self._reference:
            f, h = self.pairs[j]
            d1 = self.lower_star(f.complex, f.at(t), 0)
            d2 = self.lower_star(h.complex, h.at(t), 0)
            self._reference[j, t] = checks.bottleneck_reference(d1.expanded(), d2.expanded())
        return self._reference[j, t]

    def check(self, out: dict) -> dict[str, Outcome]:
        res = {}
        for j in range(len(self.pairs)):
            name = f"grid-noisy-{j}"
            r = out[name]
            probs = checks.curve_problems(
                f"{name} stability", r.trace, checks.sphere_ellipsoid_deg0,
                2 * checks.NOISE + checks.TOL)
            for t, g in r.trace:
                probs += checks.exact_problems(f"{name} bottleneck at t={t:g}", g,
                                               self.reference(j, t))
            res[name] = Outcome(r.evaluations, probs)
        return res


WORKLOADS = {
    "smooth-deg0": SmoothDeg0,
    "smooth-deg1": SmoothDeg1,
    "noisy-deg0": NoisyDeg0,
}


def build(name: str, seed: int):
    """Import ``cmdist`` and build the named workload's inputs."""
    return WORKLOADS[name](seed)
