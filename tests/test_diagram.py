import json
import math
import time

import numpy as np
import pytest

from cmdist import (
    PersistenceDiagram,
    SimplicialComplex,
    bottleneck_distance,
    candidate_costs,
    lower_star_diagram,
)
from cmdist.jsonio import dumps_canonical

from conftest import get_fixture
from oracles import (
    DIAGONAL,
    DiagramPoint,
    bit_rows,
    bottleneck_bruteforce,
    bottleneck_candidate_grid,
    bottleneck_scipy_matching,
    point_distance,
    points,
)

INF = math.inf


def dgm(*pairs, degree=0):
    return PersistenceDiagram.from_pairs(degree, pairs)


def random_diagram(rng, max_points=6, degree=0, infinite_fraction=0.25):
    n = int(rng.integers(0, max_points + 1))
    pts = []
    for _ in range(n):
        birth = float(np.round(rng.uniform(-2, 2), 3))
        if rng.random() < infinite_fraction:
            pts.append((birth, INF))
        else:
            pts.append((birth, birth + float(np.round(rng.uniform(0.001, 3), 3))))
    return PersistenceDiagram.from_pairs(degree, pts)


# --- extended metric --------------------------------------------------------


def test_point_metric_table():
    assert point_distance(DiagramPoint(0, 1), DIAGONAL) == 0.5
    assert point_distance(DIAGONAL, DiagramPoint(0, 1)) == 0.5
    assert point_distance(DiagramPoint(0, INF), DiagramPoint(1, INF)) == 1.0
    assert point_distance(DiagramPoint(0, 2), DiagramPoint(0.5, 1.5)) == 0.5
    assert point_distance(DiagramPoint(0, 1), DiagramPoint(5, INF)) == INF
    assert point_distance(DIAGONAL, DIAGONAL) == 0.0


def test_point_invariants():
    with pytest.raises(ValueError, match="birth < death"):
        DiagramPoint(1.0, 1.0)
    with pytest.raises(ValueError, match="birth < death"):
        DiagramPoint(2.0, 1.0)
    with pytest.raises(ValueError, match="multiplicity"):
        DiagramPoint(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="finite"):
        DiagramPoint(INF, INF)


def test_diagram_rows_are_rejected_as_points_were():
    """The constructor, from_pairs and from_json reject each bad row with one message."""
    cases = [
        ([(1.0, 1.0)], r"need birth < death, got \(1.0, 1.0\)"),
        ([(2.0, 1.0)], r"need birth < death, got \(2.0, 1.0\)"),
        ([(0.0, 1.0, 0)], "multiplicity must be a positive integer"),
        ([(INF, INF)], "birth must be finite"),
        ([(0.0, 1.0, 2.7)], "multiplicity must be a positive integer"),  # no silent truncation
        ([(0.0, 1.0, INF)], "multiplicity must be a positive integer"),
        ([(0.0, 1.0, 0), (INF, INF)], "multiplicity"),  # the first bad row decides
    ]
    for rows, message in cases:
        json_rows = [dict(zip(("birth", "death", "multiplicity"), row)) for row in rows]
        for build in (lambda: PersistenceDiagram(0, rows),
                      lambda: PersistenceDiagram.from_pairs(0, rows),
                      lambda: PersistenceDiagram.from_json({"degree": 0, "points": json_rows})):
            with pytest.raises(ValueError, match=message):
                build()
    for build in (lambda: PersistenceDiagram(-1, []), lambda: PersistenceDiagram.from_pairs(-1, []),
                  lambda: PersistenceDiagram.from_json({"degree": -1, "points": []})):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            build()
    with pytest.raises(ValueError, match="degree"):
        PersistenceDiagram.from_json({"degree": 0.5, "points": []})
    for row in [(0,), (0, 1, 1, 1)]:
        with pytest.raises(ValueError, match="birth, death"):
            PersistenceDiagram.from_pairs(0, [row])
    assert PersistenceDiagram.from_pairs(0, [(0, 1, 2.0)]) == dgm((0, 1), (0, 1))


def test_diagram_merges_duplicates():
    d = dgm((0, 1), (0, 1), (0, 2))
    assert [(p.birth, p.death, p.multiplicity) for p in points(d)] == [
        (0.0, 1.0, 2),
        (0.0, 2.0, 1),
    ]
    assert d.total_multiplicity() == 3


def test_array_model_views():
    # repeated finite points, and an essential point sharing a finite point's birth
    d = dgm((0.5, 2), (0, 1), (0, INF), (0, 1), (0, 2), degree=1)
    assert d.finite.tolist() == [[0.0, 1.0], [0.0, 1.0], [0.0, 2.0], [0.5, 2.0]]
    assert d.essential.tolist() == [0.0]
    assert points(d) == (DiagramPoint(0.0, 1.0, 2), DiagramPoint(0.0, 2.0, 1),
                        DiagramPoint(0.0, INF, 1), DiagramPoint(0.5, 2.0, 1))
    assert d.expanded() == [(0.0, 1.0), (0.0, 1.0), (0.0, 2.0), (0.0, INF), (0.5, 2.0)]
    assert d.coordinates() == [0.0, 1.0, 0.0, 2.0, 0.0, 0.5, 2.0]
    assert d.total_multiplicity() == 5
    assert json.dumps(d.to_json()) == (
        '{"degree": 1, "points": [{"birth": 0.0, "death": 1.0, "multiplicity": 2}, '
        '{"birth": 0.0, "death": 2.0, "multiplicity": 1}, '
        '{"birth": 0.0, "death": "inf", "multiplicity": 1}, '
        '{"birth": 0.5, "death": 2.0, "multiplicity": 1}]}')
    assert PersistenceDiagram.from_json(d.to_json()) == d


def test_array_model_views_with_an_empty_side():
    essential_only = dgm((0, INF), (-1, INF))
    assert essential_only.finite.shape == (0, 2)
    assert essential_only.essential.tolist() == [-1.0, 0.0]
    assert points(essential_only) == (DiagramPoint(-1.0, INF), DiagramPoint(0.0, INF))
    assert essential_only.expanded() == [(-1.0, INF), (0.0, INF)]
    assert essential_only.coordinates() == [-1.0, 0.0]
    assert essential_only.total_multiplicity() == 2
    assert json.dumps(essential_only.to_json()) == (
        '{"degree": 0, "points": [{"birth": -1.0, "death": "inf", "multiplicity": 1}, '
        '{"birth": 0.0, "death": "inf", "multiplicity": 1}]}')
    finite_only = dgm((1, 3), (1, 3))
    assert finite_only.essential.shape == (0,)
    assert points(finite_only) == (DiagramPoint(1.0, 3.0, 2),)
    assert json.dumps(finite_only.to_json()) == (
        '{"degree": 0, "points": [{"birth": 1.0, "death": 3.0, "multiplicity": 2}]}')
    empty = dgm(degree=2)
    assert (points(empty), empty.expanded(), empty.coordinates()) == ((), [], [])
    assert empty.total_multiplicity() == 0
    assert json.dumps(empty.to_json()) == '{"degree": 2, "points": []}'
    for d in (essential_only, finite_only, empty):
        assert PersistenceDiagram.from_json(d.to_json()) == d


def test_built_and_pass_diagrams_compare_and_hash_alike():
    # a path with values 0, 2, 0, 2, 0: three components born at 0, two dying at 2
    path = SimplicialComplex(np.zeros((5, 3)), np.array([[0, 1], [1, 2], [2, 3], [3, 4]]),
                             np.empty((0, 3), dtype=np.int64))
    passes = lower_star_diagram(path, np.array([0.0, 2.0, 0.0, 2.0, 0.0]), 0)
    built = dgm((0, INF), (0, 2), (0, 2))
    assert passes == built
    assert hash(passes) == hash(built)
    assert passes != dgm((0, INF), (0, 2)) and passes != dgm((0, INF), (0, 2), (0, 2), degree=1)
    assert dgm((-0.0, 1)) == dgm((0.0, 1)) and hash(dgm((-0.0, 1))) == hash(dgm((0.0, 1)))


def test_diagram_is_immutable():
    d = dgm((0, 1), (0, INF))
    with pytest.raises(AttributeError):
        d.degree = 1
    with pytest.raises(AttributeError):
        d.finite = np.zeros((0, 2))
    with pytest.raises(ValueError):
        d.finite[0, 0] = 0.5
    with pytest.raises(ValueError):
        d.essential[0] = 0.5
    assert d == dgm((0, 1), (0, INF))


# --- bottleneck -------------------------------------------------------------


def test_identical_diagrams_have_zero_distance():
    d = dgm((0, 1), (2, 5), (1, INF))
    assert bottleneck_distance(d, d) == 0.0


def test_single_point_versus_empty():
    assert bottleneck_distance(dgm((0, 1)), dgm()) == 0.5


def test_unmatched_essential_class_is_infinite():
    assert bottleneck_distance(dgm((0, INF)), dgm()) == INF
    assert bottleneck_bruteforce(dgm((0, INF)), dgm()) == INF


def test_two_point_example():
    assert bottleneck_bruteforce(dgm((0, 4)), dgm((1, 3))) == 1.0
    assert bottleneck_distance(dgm((0, 4)), dgm((1, 3))) == 1.0


def test_slice_example_pair():
    d1 = dgm((0, 1), (0, INF))
    d2 = dgm((0, INF))
    assert bottleneck_bruteforce(d1, d2) == 0.5
    assert bottleneck_distance(d1, d2) == 0.5


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree"):
        bottleneck_distance(dgm((0, 1)), dgm((0, 1), degree=1))
    with pytest.raises(ValueError, match="degree"):
        bottleneck_bruteforce(dgm((0, 1)), dgm((0, 1), degree=1))


def test_bruteforce_size_limit():
    bulky = dgm(*[(i, i + 1) for i in range(7)])
    with pytest.raises(ValueError, match="limited"):
        bottleneck_bruteforce(bulky, bulky)


def test_candidate_costs_examples():
    assert 0.5 in candidate_costs(dgm((0, 1)), dgm())
    assert candidate_costs(dgm((0, 2)), dgm((1, 2))) == [0.0, 0.5, 1.0, 2.0]


def test_oracle_agreement_with_infinite_points():
    rng = np.random.default_rng(101)
    for _ in range(300):
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        fast = bottleneck_distance(d1, d2)
        slow = bottleneck_bruteforce(d1, d2)
        assert fast == slow  # same float arithmetic on both routes: exact


def test_result_is_a_candidate():
    rng = np.random.default_rng(202)
    for _ in range(200):
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        value = bottleneck_distance(d1, d2)
        if math.isinf(value):
            continue
        assert value == 0.0 or value in candidate_costs(d1, d2)


def test_one_sided_bottleneck_matches_bruteforce():
    """One side without finite points: the closed form retires every finite point."""
    rng = np.random.default_rng(303)
    empty = dgm()
    assert bottleneck_distance(empty, empty) == bottleneck_bruteforce(empty, empty) == 0.0
    for trial in range(200):
        d1 = random_diagram(rng)  # at most 6 points, so each pair stays within the brute-force limit
        n_essential = sum(p.multiplicity for p in points(d1) if p.is_essential)
        births = np.round(rng.uniform(-2, 2, n_essential), 3).tolist()
        essential_only = dgm(*[(b, INF) for b in births])
        finite_only = dgm(*[(b, d) for b, d in d1.expanded() if d < INF])
        for p, q in ((d1, essential_only), (finite_only, empty)):
            for x, y in ((p, q), (q, p)):
                assert bottleneck_distance(x, y) == bottleneck_bruteforce(x, y), trial


def tied_diagram(rng, max_points, degree=0):
    """Coordinates on a 0.25 grid, so costs tie and points repeat."""
    pts = []
    for _ in range(int(rng.integers(0, max_points + 1))):
        birth = float(rng.integers(-8, 8)) / 4
        death = INF if rng.random() < 0.1 else birth + float(rng.integers(1, 12)) / 4
        pts.append((birth, death))
    return PersistenceDiagram.from_pairs(degree, pts)


def test_candidate_grid_oracle_agreement_on_random_diagrams():
    rng = np.random.default_rng(505)
    for trial in range(300):
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        assert bottleneck_distance(d1, d2) == bottleneck_candidate_grid(d1, d2), trial
    for trial in range(300):
        d1 = tied_diagram(rng, 25)
        d2 = tied_diagram(rng, 25)
        assert bottleneck_distance(d1, d2) == bottleneck_candidate_grid(d1, d2), trial


def test_candidate_grid_oracle_agreement_on_noisy_fixtures():
    rng = np.random.default_rng(606)
    (cx1, f1), (cx2, f2) = get_fixture("sphere", 32), get_fixture("ellipsoid(2,1)", 32)
    sizes = []
    for t in (0.0, 0.3, 0.7, 1.0):
        v1 = f1.at(t) + rng.uniform(-0.1, 0.1, size=cx1.n_vertices)
        v2 = f2.at(t) + rng.uniform(-0.1, 0.1, size=cx2.n_vertices)
        for k in (0, 1):
            d1, d2 = lower_star_diagram(cx1, v1, k), lower_star_diagram(cx2, v2, k)
            sizes.append(d1.total_multiplicity() + d2.total_multiplicity())
            assert bottleneck_distance(d1, d2) == bottleneck_candidate_grid(d1, d2), (t, k)
    assert max(sizes) >= 40  # beyond the reach of the brute-force oracle


def test_chain_pair_has_no_recursion_or_time_cliff():
    # Every D1 point lies between two D2 points at distance 1, and every
    # point is far from the diagonal: augmenting paths run the whole chain.
    n = 1500
    d1 = dgm(*[(2.0 * i, 2.0 * i + 100) for i in range(n)], (0.0, INF))
    d2 = dgm(*[(2.0 * i + 1, 2.0 * i + 101) for i in range(n)], (0.5, INF))
    start = time.perf_counter()
    value = bottleneck_distance(d1, d2)
    elapsed = time.perf_counter() - start
    assert value == 1.0
    assert elapsed < 5.0


def test_scipy_oracle_agreement_on_large_random_diagrams():
    # Sizes the candidate-grid oracle cannot reach in time; finite points only,
    # so that unequal essential counts do not end the search early.
    rng = np.random.default_rng(707)
    for trial in range(40):
        d1 = random_diagram(rng, max_points=200, infinite_fraction=0.0)
        d2 = random_diagram(rng, max_points=200, infinite_fraction=0.0)
        assert bottleneck_distance(d1, d2) == bottleneck_scipy_matching(d1, d2), trial
    for trial in range(40):
        d1, d2 = (dgm(*[p for p in tied_diagram(rng, 200).expanded() if p[1] < INF])
                  for _ in range(2))
        assert bottleneck_distance(d1, d2) == bottleneck_scipy_matching(d1, d2), trial


def test_scipy_oracle_agreement_on_noisy_fixtures():
    rng = np.random.default_rng(808)
    (cx1, f1), (cx2, f2) = get_fixture("sphere", 64), get_fixture("ellipsoid(2,1)", 64)
    sizes = []
    for t in (0.0, 0.3, 0.7, 1.0):
        v1 = f1.at(t) + rng.uniform(-0.1, 0.1, size=cx1.n_vertices)
        v2 = f2.at(t) + rng.uniform(-0.1, 0.1, size=cx2.n_vertices)
        for k in (0, 1):
            d1, d2 = lower_star_diagram(cx1, v1, k), lower_star_diagram(cx2, v2, k)
            sizes.append(min(d1.total_multiplicity(), d2.total_multiplicity()))
            assert bottleneck_distance(d1, d2) == bottleneck_scipy_matching(d1, d2), (t, k)
    assert max(sizes) >= 100


def test_mirrored_chain_pair_has_no_time_cliff():
    # The L-infinity chain runs against the sort order of the births: a binary
    # search with SciPy's bipartite matching took tens of seconds on this pair.
    n = 300
    d1 = dgm(*[(1 - i * 1e-4, 100.0 + 2 * i) for i in range(n)], (0.0, INF))
    d2 = dgm(*[(1 + i * 1e-4, 101.0 + 2 * i) for i in range(n)], (0.5, INF))
    start = time.perf_counter()
    value = bottleneck_distance(d1, d2)
    elapsed = time.perf_counter() - start
    assert value == 1.0
    assert elapsed < 2.0


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(303)
    for _ in range(60):
        d1 = random_diagram(rng, max_points=4)
        d2 = random_diagram(rng, max_points=4)
        d3 = random_diagram(rng, max_points=4)
        d12 = bottleneck_distance(d1, d2)
        assert d12 == bottleneck_distance(d2, d1)
        assert bottleneck_distance(d1, d1) == 0.0
        d13 = bottleneck_distance(d1, d3)
        d23 = bottleneck_distance(d2, d3)
        if math.isfinite(d13) and math.isfinite(d23):
            assert d12 <= d13 + d23 + 1e-12


def test_diagram_stability_under_value_perturbation():
    rng = np.random.default_rng(404)
    eps = 0.01
    for name in ("cone", "sphere"):
        cx, f = get_fixture(name, 16)
        values = f.at(0.4)
        noisy = values + rng.uniform(-eps, eps, size=len(values))
        for k in (0, 1):
            d0 = lower_star_diagram(cx, values, k)
            d1 = lower_star_diagram(cx, noisy, k)
            assert bottleneck_distance(d0, d1) <= eps + 1e-12


def test_canonical_json_keeps_the_sign_of_zero():
    """-0.0 is written as -0.0: ``-0`` would read back as the int 0 and lose its sign."""
    d = dgm((-0.0, 1.0), (-2.0, -0.0), (-0.0, INF))
    text = dumps_canonical(d.to_json())
    again = PersistenceDiagram.from_json(json.loads(text))
    assert again.finite.view(np.int64).tolist() == d.finite.view(np.int64).tolist()
    assert again.essential.view(np.int64).tolist() == d.essential.view(np.int64).tolist()
    assert dumps_canonical(again.to_json()) == text
    assert dumps_canonical([-0.0, 0.0, 1.0]) == "[\n  -0.0,\n  0,\n  1\n]\n"
    # equal points of either sign stay apart, -0.0 first among equal values, in any input order
    mixed = [(0.0, INF), (-0.0, INF), (0.0, 1.0), (-0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]
    texts = set()
    for order in (mixed, mixed[::-1]):
        d = dgm(*order, degree=1)
        rows = [(p["birth"], p["death"], p["multiplicity"]) for p in d.to_json()["points"]]
        assert repr(rows) == repr([(-1.0, -0.0, 1), (-1.0, 0.0, 1), (-0.0, 1.0, 2), (0.0, 1.0, 1),
                                   (-0.0, "inf", 1), (0.0, "inf", 1)])
        text = dumps_canonical(d.to_json())
        again = PersistenceDiagram.from_json(json.loads(text))
        assert bit_rows(again) == bit_rows(d)
        assert dumps_canonical(again.to_json()) == text
        texts.add(text)
    assert len(texts) == 1


def test_json_round_trip():
    d = dgm((0, 1), (2, INF), (0, 1))
    again = PersistenceDiagram.from_json(d.to_json())
    assert again == d
    assert again.to_json() == d.to_json()
    for name in ("cone", "disk", "sphere", "ellipsoid(2,1)"):
        cx, f = get_fixture(name, 16)
        for k in (0, 1, 2):
            for t in (0.0, 0.5, 1.0):
                d = lower_star_diagram(cx, f.at(t), k)
                text = json.dumps(d.to_json())
                again = PersistenceDiagram.from_json(json.loads(text))
                assert again == d and json.dumps(again.to_json()) == text, (name, k, t)
