import numpy as np
import pytest
from hypothesis import given, strategies as st

from carnotreach.group import (
    DilationWeights,
    GroupElement,
    dilate,
    flow_const,
    identity,
    inverse,
    multiply,
)
from carnotreach.words import InvariantViolation

coord = st.floats(min_value=-10, max_value=10, allow_nan=False)
element = st.builds(
    lambda x, y: GroupElement.of(x, y),
    st.tuples(coord, coord, coord),
    st.tuples(coord, coord, coord),
)


def close(a: GroupElement, b: GroupElement, tol=1e-12):
    return all(abs(u - v) <= tol for u, v in zip(a.x + a.y, b.x + b.y))


def test_identity_is_neutral():
    g = GroupElement.of((1, 2, 3), (4, 5, 6))
    assert multiply(identity(), g) == g
    assert multiply(g, identity()) == g


def test_multiply_hand_example():
    a = GroupElement.of((1, 0, 0), (0, 0, 0))
    b = GroupElement.of((0, 1, 0), (0, 0, 0))
    c = multiply(a, b)
    assert c.x == (1, 1, 0)
    assert c.y == (1, 0, 0)


def test_inverse_examples():
    assert inverse(identity()) == identity()
    g = GroupElement.of((1, 0, 0), (0, 0, 0))
    assert inverse(g).x == (-1, 0, 0)
    h = GroupElement.of((1, 1, 0), (1, 0, 0))
    assert inverse(h) == GroupElement.of((-1, -1, 0), (-1, 0, 0))
    assert close(multiply(h, inverse(h)), identity())


@given(element, element, element)
def test_associativity(a, b, c):
    lhs = multiply(multiply(a, b), c)
    rhs = multiply(a, multiply(b, c))
    assert close(lhs, rhs, 1e-11)


@given(element)
def test_inverse_cancels(g):
    assert close(multiply(g, inverse(g)), identity(), 1e-11)


def test_dilate_examples():
    g = GroupElement.of((1, 1, 1), (1, 1, 1))
    assert dilate(DilationWeights((1, 1, 1)), g) == g
    d = dilate(DilationWeights((2, 3, 5)), g)
    assert d.x == (2, 3, 5)
    assert d.y == (6, 10, 15)


def test_dilate_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        DilationWeights((1, 0, 1))
    with pytest.raises(ValueError):
        DilationWeights((1, -2, 1))


@given(element, element, st.tuples(*[st.floats(min_value=0.1, max_value=5)] * 3))
def test_dilate_is_automorphism(a, b, c):
    w = DilationWeights(c)
    assert close(dilate(w, multiply(a, b)), multiply(dilate(w, a), dilate(w, b)), 1e-10)


def test_flow_const_examples():
    g = flow_const(identity(), (1, 0, 0), 1.0)
    assert g == GroupElement.of((1, 0, 0), (0, 0, 0))

    g = GroupElement.of((1, 0, 0), (0, 0, 0))
    h = flow_const(g, (0, 1, 0), 1.0)
    assert h.x == (1, 1, 0)
    assert h.y == (1, 0, 0)

    assert flow_const(g, (0, 0, 1), 0.0) == g


def test_flow_const_rejects_bad_input():
    with pytest.raises(ValueError):
        flow_const(identity(), (1, 0, 0), -1.0)
    with pytest.raises(ValueError):
        flow_const(identity(), (1, -1, 0), 1.0)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: GroupElement.of((1.0, 2.0), (0, 0, 0)), "group-element"),
        (lambda: GroupElement.of((0, 0, 0), (1, 2, 3, 4)), "group-element"),
        (lambda: GroupElement.of(None, (0, 0, 0)), "group-element"),
        (lambda: DilationWeights((1.0, 2.0)), "dilation-weights"),
        (lambda: DilationWeights((1, -2, 1)), "dilation-weights"),
        (lambda: flow_const(identity(), (1, 0), 1.0), "flow-control"),
        (lambda: flow_const(identity(), 1.0, 1.0), "flow-control"),
        (lambda: flow_const(identity(), (1, -1, 0), 1.0), "flow-control"),
        (lambda: flow_const(identity(), (1, 0, 0), -1.0), "flow-duration"),
    ],
)
def test_group_rejections_name_the_bad_input(build, name):
    # mistyped and non-finite entries: tests/test_package.py, every public constructor
    with pytest.raises(InvariantViolation) as exc:
        build()
    assert exc.value.name == name


def test_flow_semigroup_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = GroupElement.of(rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3))
        u = rng.uniform(0, 2, 3)
        s, t = rng.uniform(0, 3, 2)
        once = flow_const(g, u, s + t)
        twice = flow_const(flow_const(g, u, s), u, t)
        assert close(once, twice, 1e-12)


def test_flow_time_additivity_on_simplex():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = rng.dirichlet(np.ones(3))
        t = rng.uniform(0, 4)
        g = flow_const(identity(), u, t)
        assert abs(sum(g.x) - t) <= 1e-12


def test_dilation_equivariance_of_flow():
    rng = np.random.default_rng(2)
    for _ in range(200):
        g = GroupElement.of(rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3))
        u = rng.uniform(0, 2, 3)
        t = rng.uniform(0, 2)
        c = rng.uniform(0.2, 3, 3)
        w = DilationWeights(tuple(c))
        lhs = dilate(w, flow_const(g, u, t))
        rhs = flow_const(dilate(w, g), tuple(c * u), t)
        assert close(lhs, rhs, 1e-10)
