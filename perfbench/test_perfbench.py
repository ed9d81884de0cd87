"""Self-tests of the benchmark: its checkers must reject wrong outputs.

Run with ``python3 -m pytest -q perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import json
import math
import random

import pytest

import checks
import run
import workloads

assert workloads.use_source_tree(), "run from a checkout that has src/cmdist"

from cmdist import CmdResult, PersistenceDiagram, bottleneck_distance, candidate_costs  # noqa: E402


def _diagram(pairs):
    return PersistenceDiagram.from_pairs(0, pairs)


def _random_diagram(rng: random.Random, n: int, essential: int):
    pts = []
    for _ in range(n):
        b = rng.uniform(-1, 1)
        pts.append((b, b + rng.uniform(0.01, 1)))
    pts += [(rng.uniform(-1, 1), math.inf) for _ in range(essential)]
    return _diagram(pts)


@pytest.mark.parametrize("seed", range(20))
def test_reference_bottleneck_matches_package(seed):
    rng = random.Random(seed)
    d1 = _random_diagram(rng, rng.randrange(0, 12), 1)
    d2 = _random_diagram(rng, rng.randrange(0, 12), 1)
    assert checks.bottleneck_reference(d1.expanded(), d2.expanded()) == bottleneck_distance(d1, d2)


def test_reference_bottleneck_essential_mismatch_is_infinite():
    d1 = _diagram([(0.0, math.inf)])
    d2 = _diagram([(0.0, math.inf), (1.0, math.inf)])
    assert checks.bottleneck_reference(d1.expanded(), d2.expanded()) == math.inf


def test_exact_check_rejects_value_one_candidate_step_off():
    rng = random.Random(3)
    d1, d2 = _random_diagram(rng, 8, 1), _random_diagram(rng, 6, 1)
    value = bottleneck_distance(d1, d2)
    cands = candidate_costs(d1, d2)
    i = cands.index(value)
    want = checks.bottleneck_reference(d1.expanded(), d2.expanded())
    assert checks.exact_problems("b", value, want) == []
    for j in (i - 1, i + 1):
        if 0 <= j < len(cands):
            assert checks.exact_problems("b", cands[j], want)


@pytest.mark.parametrize("curve", [checks.sphere_ellipsoid_deg0, checks.cone_disk_deg1])
def test_curve_check_rejects_trace_shifted_by_a_tenth(curve):
    trace = [(t / 16, curve(t / 16)) for t in range(17)]
    assert checks.curve_problems("c", trace, curve, checks.TOL) == []
    shifted = [(t, g + 0.1) for t, g in trace]
    assert len(checks.curve_problems("c", shifted, curve, checks.TOL)) == len(trace)


def test_at_most_check_rejects_value_above_limit():
    assert checks.at_most_problems("m", [0.0, 0.05], checks.TOL) == []
    assert checks.at_most_problems("m", [0.0, 0.1], checks.TOL)


def _cmd(trace, mode="branch-and-bound"):
    best_t, best = max(trace, key=lambda row: (row[1], -row[0]))
    return CmdResult(best, best_t, 0.0, len(trace), mode, tuple(trace))


def _special_stdout(trace):
    return 0, json.dumps({**_cmd(trace, "special-values").to_json(), "degree": 0, "eps": 1e-3})


def test_smooth_deg0_check_accepts_analytic_and_rejects_shift():
    w = workloads.SmoothDeg0.__new__(workloads.SmoothDeg0)
    curve = [(t / 8, checks.sphere_ellipsoid_deg0(t / 8)) for t in range(9)]
    good = {
        "cmd-cone-disk-deg0": _cmd([(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)]),
        "cmd-sphere-ellipsoid-deg0": _cmd(curve),
        "cli-cmd-special": _special_stdout(curve),
    }
    res = w.check(good)
    assert all(not o.problems and o.failure is None for o in res.values())
    assert sum(o.evaluations for o in res.values()) == 3 + 9 + 9

    shifted = [(t, g + 0.1) for t, g in curve]
    bad = dict(good, **{"cmd-cone-disk-deg0": _cmd([(0.0, 0.1), (1.0, 0.0)]),
                        "cmd-sphere-ellipsoid-deg0": _cmd(shifted),
                        "cli-cmd-special": _special_stdout(shifted)})
    assert all(o.problems for o in w.check(bad).values())


def _compare_stdout(value, argmax_t, matchdist, table=True):
    payload = {"degree": 1,
               "cmd": {"value": value, "argmax_t": argmax_t, "gap": 1e-3, "evaluations": 73},
               "matchdist": {"value": matchdist, "grid": {"n_a": 11, "n_b": 11}}}
    return 0, json.dumps(payload) + ("\n------\ntable\n" if table else "")


def test_smooth_deg1_counts_compare_fault_and_still_checks_numbers():
    w = workloads.SmoothDeg1.__new__(workloads.SmoothDeg1)
    (outcome,) = w.check({"cli-compare-deg1": _compare_stdout(0.5, 0.5, 0.0)}).values()
    assert outcome.failure.startswith("compare-stdout-not-json")
    assert outcome.problems == [] and outcome.evaluations == 73 + 121

    (fixed,) = w.check({"cli-compare-deg1": _compare_stdout(0.5, 0.5, 0.0, table=False)}).values()
    assert fixed.failure is None

    for wrong in (_compare_stdout(0.4, 0.5, 0.0), _compare_stdout(0.5, 0.3, 0.0),
                  _compare_stdout(0.5, 0.5, 0.1)):
        (bad,) = w.check({"cli-compare-deg1": wrong}).values()
        assert bad.problems


def test_noisy_check_rejects_bottleneck_one_candidate_step_off(monkeypatch):
    monkeypatch.setattr(workloads, "NOISY_DRAWS", 1)
    w = workloads.NoisyDeg0(seed=5)
    f, h = w.pairs[0]
    t = 0.5
    d1, d2 = w.lower_star(f.complex, f.at(t), 0), w.lower_star(h.complex, h.at(t), 0)
    value = bottleneck_distance(d1, d2)
    res = w.check({"grid-noisy-0": _cmd([(t, value)], "grid")})
    assert res["grid-noisy-0"].problems == []
    cands = candidate_costs(d1, d2)
    step = cands[cands.index(value) + 1]
    assert w.check({"grid-noisy-0": _cmd([(t, step)], "grid")})["grid-noisy-0"].problems


def test_noise_is_a_function_of_the_seed():
    sizes = (5, 7)
    a = workloads.noise_draws(11, sizes, 3)
    b = workloads.noise_draws(11, sizes, 3)
    c = workloads.noise_draws(12, sizes, 3)
    flat = lambda draws: b"".join(x.tobytes() for draw in draws for x in draw)
    assert flat(a) == flat(b)
    assert flat(a) != flat(c)
    assert all(abs(x).max() <= checks.NOISE for draw in a for x in draw)


def test_solve_time_drops_a_slow_stretch_in_one_round():
    # operation "a" hit a slow stretch in round 1, "b" in round 2
    op_times = {"a": [1.0, 1.8, 1.1], "b": [2.0, 2.1, 3.6]}
    assert run.round_seconds(op_times) == 1.1 + 2.1
