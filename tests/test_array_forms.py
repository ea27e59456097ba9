"""The array forms used by the verify suites against their scalar twins, on
the same seeded points."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import hypersub
from conftest import scalar_key_margin
from hypersub.geometry import (
    BOUNDARY_CLAMP,
    ORIGIN,
    POINCARE_DISK,
    DiskPoint,
    Tangent,
    ZeroVector,
)
from hypersub.oracles import (
    busemann_gradient,
    busemann_value,
    distance_oracle,
    two_busemann_oracle,
)
from hypersub.verify import (
    HypothesisUnverified,
    TriangleSample,
    _key_margins,
    _law_of_cosines_margins,
    _triangles,
    angle_array,
    busemann_gradient_array,
    busemann_value_array,
    distance_array,
    exp_array,
    inner_array,
    law_of_cosines_margin,
    log_array,
    norm_array,
    sample_point,
)

M = POINCARE_DISK
N = 2000
REL = 1e-12


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(60)
    p = [sample_point(rng) for _ in range(N)]
    q = [sample_point(rng) for _ in range(N)]
    phi = rng.uniform(0.0, 2.0 * math.pi, N)
    eta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, N))
    return p, q, np.exp(1j * phi), eta


def z(points):
    return np.array([pt.z for pt in points])


def assert_rel(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    assert np.all(np.abs(got - want) <= REL * np.abs(want))


def test_distance(points):
    p, q, _, _ = points
    assert_rel(distance_array(z(p), z(q)), [M.distance(a, b) for a, b in zip(p, q)])
    assert np.all(distance_array(z(p), z(p)) == 0.0)


def test_log(points):
    p, q, _, _ = points
    assert_rel(log_array(z(p), z(q)), [M.log(a, b).v for a, b in zip(p, q)])
    assert np.all(log_array(z(p), z(p)) == 0.0)


@pytest.mark.parametrize("length", [1e-6, 0.5, 3.0, 40.0])
def test_exp(points, length):
    # at length 40 the endpoints round to within a few ulps of the unit
    # circle, and most of them are clamped to BOUNDARY_CLAMP
    p, _, u, _ = points
    v = u * (0.5 * length * (1.0 - np.abs(z(p)) ** 2))
    got = exp_array(z(p), v)
    assert_rel(got, [M.exp(a, Tangent.from_complex(a, b)).z for a, b in zip(p, v)])
    assert np.all(np.abs(got) < 1.0)
    clamped = np.mean(np.abs(np.abs(got) - BOUNDARY_CLAMP) <= 2e-16)
    assert clamped > 0.9 if length == 40.0 else clamped == 0.0


def test_exp_of_zero_tangent_is_the_base(points):
    p, _, _, _ = points
    assert np.array_equal(exp_array(z(p), np.zeros(N, dtype=complex)), z(p))


def test_norm_and_inner(points):
    p, q, u, _ = points
    v = log_array(z(p), z(q))
    tv = [Tangent.from_complex(a, b) for a, b in zip(p, v)]
    tu = [Tangent.from_complex(a, b) for a, b in zip(p, u)]
    assert_rel(norm_array(z(p), v), [M.norm(t) for t in tv])
    got = inner_array(z(p), u, v)
    want = np.array([M.inner(a, b) for a, b in zip(tu, tv)])
    # the inner product cancels between components; compare on the scale of
    # the norms it is bounded by
    scale = norm_array(z(p), u) * norm_array(z(p), v)
    assert np.all(np.abs(got - want) <= REL * scale)


def test_cos_angle(points):
    # cos(alpha), not alpha: arccos is ill-conditioned near 0 and pi
    p, q, u, _ = points
    v = log_array(z(p), z(q))
    want = [
        math.cos(M.angle(Tangent.from_complex(a, b), Tangent.from_complex(a, c)))
        for a, b, c in zip(p, u, v)
    ]
    assert np.all(np.abs(np.cos(angle_array(u, v)) - want) <= 1e-12)
    with pytest.raises(ZeroVector):
        angle_array(u, np.zeros(N, dtype=complex))


def test_busemann_value_and_gradient(points):
    p, _, _, eta = points
    got = busemann_value_array(eta, z(p))
    want = np.array([busemann_value(e, a) for e, a in zip(eta, p)])
    # the value is a difference of two logs; compare on their scale
    scale = np.abs(np.log(np.abs(z(p) - eta) ** 2)) + np.abs(np.log1p(-np.abs(z(p)) ** 2))
    assert np.all(np.abs(got - want) <= REL * scale)
    want = [busemann_gradient(e, a).v for e, a in zip(eta, p)]
    assert_rel(busemann_gradient_array(eta, z(p)), want)
    with pytest.raises(ValueError):
        busemann_value_array(2.0 * eta, z(p))


def test_law_of_cosines_chunk_matches_the_scalar_margin():
    for kappa in (1.0, 2.0):
        margins, rejected = _law_of_cosines_margins(kappa, np.random.default_rng(61), 500)
        # the chunk sampler draws the same triangles as this replay
        (p, q, r, _, _, _), again = _triangles(np.random.default_rng(61), 500)
        assert again == rejected
        for i in range(500):
            tri = TriangleSample.from_points(
                M, *(DiskPoint.from_complex(v[i]) for v in (p, q, r))
            )
            want = law_of_cosines_margin(kappa, tri)
            scale = math.cosh(kappa * tri.b) * math.cosh(kappa * tri.c)
            assert abs(margins[i] - want) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["distance", "two-busemann"])
def test_key_margins_match_the_scalar_margin(kind):
    # f(x) and its subgradient come from the scalar oracle, so this checks the
    # array margin alone
    rng = np.random.default_rng(62)
    rows, want = [], []
    while len(want) < 300:
        anchor = sample_point(rng, 2.0)
        x = sample_point(rng, 2.5)
        if kind == "distance":
            oracle, xbar = distance_oracle(anchor), anchor
        else:
            oracle, xbar = two_busemann_oracle(), ORIGIN
        d = M.distance(x, xbar)
        delta = 0.25 * d
        sup = delta if kind == "distance" else math.log1p(math.sinh(delta) ** 2)
        fx, g = oracle.evaluate(M, x)
        if d < 0.2 or not sup < fx:
            continue
        lam = 10.0 ** rng.uniform(-3.0, 0.0)
        want.append(scalar_key_margin(M, oracle, x, xbar, delta, lam))
        rows.append((x.z, xbar.z, fx, g.v, delta, lam, sup))
    cols = [np.array(col) for col in zip(*rows)]
    got = _key_margins(*cols)
    scale = np.cosh(distance_array(cols[0], cols[1])) * np.cosh(cols[5])
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize(
    "broken, message",
    [
        ("delta", r"d\(x, xbar\) < 2 delta"),
        ("sup", r"sup f on the ball >= f\(x\)"),
        ("g", "zero subgradient"),
    ],
)
def test_key_margins_reject_a_failed_hypothesis(broken, message):
    # distance-oracle configurations with xbar at the anchor 0, where f(x) = d
    # and sup f over B[0, delta] = delta; then the second row breaks one
    # hypothesis
    x = np.array([0.5, -0.3j, 0.2 + 0.6j])
    d = distance_array(x, 0j)
    cols = {"g": log_array(x, 0j) * (-1.0 / d), "delta": 0.4 * d, "sup": 0.4 * d}

    def margins():
        return _key_margins(x, 0j, d, cols["g"], cols["delta"], np.full(3, 0.1), cols["sup"])

    assert np.all(margins() >= -1e-12)
    cols[broken][1] = {"delta": 0.6 * d[1], "sup": d[1], "g": 0j}[broken]
    with pytest.raises(HypothesisUnverified, match=message):
        margins()


def module_level_imports(module: str) -> set[str]:
    """The modules a hypersub module imports outside any function body."""
    tree = ast.parse((Path(hypersub.__file__).parent / f"{module}.py").read_text())
    names, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("module", ["geometry", "oracles", "schedules", "solver"])
def test_numpy_is_imported_at_module_level_by_verify_alone(module):
    def numpy_names(names):
        return {n for n in names if n == "numpy" or n.startswith("numpy.")}

    assert numpy_names(module_level_imports("verify")) == {"numpy"}
    assert numpy_names(module_level_imports(module)) == set()
