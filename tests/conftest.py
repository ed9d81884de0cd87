import numpy as np
import pytest

from cmdist import fixture

_CACHE = {}


def get_fixture(name: str, resolution: int):
    key = (name, resolution)
    if key not in _CACHE:
        _CACHE[key] = fixture(name, resolution)
    return _CACHE[key]


@pytest.fixture(scope="session")
def cone64():
    return get_fixture("cone", 64)


@pytest.fixture(scope="session")
def disk64():
    return get_fixture("disk", 64)


@pytest.fixture(scope="session")
def sphere64():
    return get_fixture("sphere", 64)


@pytest.fixture(scope="session")
def ellipsoid64():
    return get_fixture("ellipsoid(2,1)", 64)


@pytest.fixture(scope="session")
def all_fixture_names():
    return ("cone", "disk", "sphere", "ellipsoid(2,1)")


def random_complex(rng: np.random.Generator, max_vertices: int = 9):
    """Small random 2-complex closed under faces, at most ~200 simplices."""
    from cmdist import SimplicialComplex

    n = int(rng.integers(3, max_vertices + 1))
    vertices = rng.normal(size=(n, 3))
    tri_candidates = [
        (i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
    ]
    keep = rng.random(len(tri_candidates)) < 0.35
    triangles = [t for t, k in zip(tri_candidates, keep) if k]
    extra = []
    for _ in range(int(rng.integers(0, 5))):
        i, j = rng.choice(n, size=2, replace=False)
        extra.append((min(i, j), max(i, j)))
    if triangles:
        return SimplicialComplex.from_triangles(vertices, triangles, extra)
    edges = extra or [(0, 1)]
    return SimplicialComplex(vertices, np.unique(np.asarray(edges), axis=0),
                             np.empty((0, 3), dtype=np.int64))


def random_vertex_values(rng: np.random.Generator, n: int, ties: bool = False):
    values = rng.normal(size=n)
    if ties and n >= 4:
        values[: n // 2] = np.round(values[: n // 2], 1)
    return values


def signed_zero_plateaus(rng: np.random.Generator, values):
    """Each value rounded to one decimal, or replaced by -0.0 or 0.0, at random."""
    zeros = np.where(rng.random(len(values)) < 0.5, -0.0, 0.0)
    return np.where(rng.random(len(values)) < 0.5, zeros, np.round(values, 1))
