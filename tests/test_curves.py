import numpy as np
import pytest

from torus_holonomy import (
    CirclePath,
    ParameterPolynomial,
    WaypointPath,
    concatenate,
    line_integral,
    reparameterize,
    step_intervals,
)


def test_circle_closed_and_velocity():
    c = CirclePath.circle((0.5, -1.0), 2.0, 3.0)
    assert c.is_closed
    assert np.allclose(c.point(0.0), [2.5, -1.0])
    # centered finite difference agrees with the analytic velocity
    h = 1e-6
    for t in (0.4, 1.7, 2.9):
        fd = (c.point(t + h) - c.point(t - h)) / (2 * h)
        assert np.allclose(fd, c.velocity(t), atol=1e-6)


def test_circle_open_arc():
    arc = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5)
    assert not arc.is_closed
    assert np.allclose(arc.point(1.0), [-1.0, 0.0])


def test_constant_loop():
    still = CirclePath(center=(0.3, 0.4), u=(0.0, 0.0), v=(0.0, 0.0), duration=1.0)
    assert still.is_closed
    assert np.allclose(still.velocity(0.5), 0.0)


@pytest.mark.parametrize("radius", [1e4, 1e6])
def test_large_circle_closed(radius):
    loop = CirclePath.circle((0.0, 0.0), radius, 1.0)
    assert loop.is_closed
    shifted = CirclePath.circle((radius, 0.0), radius, 1.0, turns=3, phase=np.pi)
    assert shifted.is_closed
    # a gap that is small in absolute terms but large against the scale stays open
    almost = CirclePath.circle((0.0, 0.0), radius, 1.0, turns=1.0 - 1e-9)
    assert not almost.is_closed


def test_large_circle_holonomy_accepted():
    from torus_holonomy import ControlConnection, TorusModel, holonomy

    model = TorusModel(1, (0,), (0.25,), 2)
    conn = ControlConnection(1, 2, {(0, 0): {(0,): ParameterPolynomial(2, {(0, 1): 1e-8})}})
    rep = holonomy(model, conn, CirclePath.circle((0.0, 0.0), 1e4, 1.0), 50)
    assert rep.unitarity_defect <= 1e-12


def test_chained_curve_at_large_scale():
    radius = 1e6
    loop = CirclePath.circle((0.0, 0.0), radius, 1.0, turns=7)
    back = WaypointPath(((radius, 0.0), (0.0, radius), (radius, 0.0)), 1.0)
    both = concatenate(loop, back)
    assert both.is_closed
    with pytest.raises(ValueError):
        concatenate(loop, WaypointPath(((radius, 1.0), (0.0, radius)), 1.0))


def test_waypoints_basic():
    path = WaypointPath(((0.0, 0.0), (1.0, 0.0), (1.0, 2.0)), 2.0)
    assert path.breakpoints == (1.0,)
    assert np.allclose(path.point(0.0), [0.0, 0.0])
    assert np.allclose(path.point(2.0), [1.0, 2.0])
    assert np.allclose(path.point(1.0), [1.0, 0.0])
    # velocity vanishes at the joint and endpoints (smooth traversal)
    assert np.allclose(path.velocity(0.0), 0.0)
    assert np.allclose(path.velocity(1.0), 0.0, atol=1e-12)
    assert np.allclose(path.velocity(2.0), 0.0, atol=1e-12)
    closed = WaypointPath(((0.0,), (1.0,), (0.0,)), 1.0)
    assert closed.is_closed


def test_reverse_and_concatenate():
    a = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5)
    b = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5, phase=np.pi)
    both = concatenate(a, b)
    assert both.is_closed
    assert both.breakpoints == (1.0,)
    assert np.allclose(both.point(1.5), b.point(0.5))
    rev = both.reverse()
    assert np.allclose(rev.point(0.3), both.point(both.duration - 0.3))
    assert np.allclose(rev.velocity(0.3), -both.velocity(both.duration - 0.3))
    with pytest.raises(ValueError):
        concatenate(a, a)  # endpoints do not meet


def test_reparameterize_validation():
    base = CirclePath.circle((0.0, 0.0), 1.0, 1.0)
    warped = reparameterize(base, lambda t: t**2, lambda t: 2 * t, 1.0)
    assert np.allclose(warped.point(0.5), base.point(0.25))
    assert np.allclose(warped.velocity(0.5), base.velocity(0.25) * 1.0)
    with pytest.raises(ValueError):
        reparameterize(base, lambda t: np.sin(2 * np.pi * t), lambda t: 2 * np.pi * np.cos(2 * np.pi * t), 1.0)
    with pytest.raises(ValueError):
        reparameterize(base, lambda t: 0.5 * t, lambda t: 0.5, 1.0)  # endpoint not preserved


def test_step_intervals_uniform():
    c = CirclePath.circle((0.0, 0.0), 1.0, 2.0)
    times = step_intervals(c, 8)
    assert len(times) == 9
    assert times[0] == 0.0 and times[-1] == 2.0
    assert np.allclose(np.diff(times), 0.25)


def test_step_intervals_align_with_breakpoints():
    path = WaypointPath(((0.0,), (1.0,), (3.0,)), 2.0)
    times = step_intervals(path, 7)
    assert len(times) == 8
    assert any(abs(t - 1.0) < 1e-15 for t in times)
    with pytest.raises(ValueError):
        step_intervals(path, 1)


def test_step_intervals_deterministic():
    path = WaypointPath(((0.0,), (1.0,), (3.0,), (4.0,)), 3.0)
    a = step_intervals(path, 11)
    b = step_intervals(path, 11)
    assert np.array_equal(a, b)
    assert len(a) == 12


# --- line integral oracle ----------------------------------------------------


def test_line_integral_circle_closed_form():
    # P_0 = a + b sigma_1, P_1 = c + d sigma_0 on a radius-r circle:
    # closed form integral = pi r^2 (d - b)
    r = 0.8
    circle = CirclePath.circle((0.0, 0.0), r, 1.0)
    a, b, c, d = 0.3, 0.2, 0.1, -0.15
    polys = {
        0: ParameterPolynomial(2, {(0, 0): a, (0, 1): b}),
        1: ParameterPolynomial(2, {(0, 0): c, (1, 0): d}),
    }
    assert line_integral(polys, circle) == pytest.approx(np.pi * r * r * (d - b), abs=1e-13)


def test_line_integral_segment_closed_form():
    # int of sigma^2 dsigma from 0 to 2 = 8/3, independent of traversal speed
    path = WaypointPath(((0.0,), (2.0,)), 5.0)
    polys = {0: ParameterPolynomial(1, {(2,): 1.0})}
    assert line_integral(polys, path) == pytest.approx(8.0 / 3.0, abs=1e-13)


def test_line_integral_path_only():
    circle = CirclePath.circle((0.1, 0.2), 0.5, 1.0)
    polys = {0: ParameterPolynomial(2, {(1, 1): 0.7}), 1: ParameterPolynomial(2, {(0, 0): 0.4})}
    base = line_integral(polys, circle)
    warped = reparameterize(circle, lambda t: t**2, lambda t: 2 * t, 1.0)
    assert line_integral(polys, warped) == pytest.approx(base, abs=1e-13)
    assert line_integral(polys, circle.reverse()) == pytest.approx(-base, abs=1e-13)


def test_line_integral_concatenation_additive():
    a = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5)
    b = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5, phase=np.pi)
    polys = {0: ParameterPolynomial(2, {(0, 1): 1.0})}
    total = line_integral(polys, concatenate(a, b))
    closed = line_integral(polys, CirclePath.circle((0.0, 0.0), 1.0, 1.0))
    assert total == pytest.approx(closed, abs=1e-10)
