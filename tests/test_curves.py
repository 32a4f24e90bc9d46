import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_holonomy import (
    CirclePath,
    ParameterPolynomial,
    WaypointPath,
    concatenate,
    line_integral,
    reparameterize,
    step_intervals,
)
from torus_holonomy.curves import ChainedCurve, ReparameterizedCurve, ReversedCurve, segment_edges


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


def test_step_intervals_of_a_reversed_curve_mirror_its_base():
    path = WaypointPath(((0.0,), (1.0,), (3.0,), (4.0,)), 3.0)
    for curve in (path, concatenate(path, path.reverse())):
        times = step_intervals(curve.reverse(), 11)
        assert np.array_equal(times, curve.duration - step_intervals(curve, 11)[::-1])
        assert set(curve.reverse().breakpoints) <= set(times)


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


# --- sample(times) ------------------------------------------------------------


def _scalar_point_velocity(curve, t: float):
    """The per-class scalar formulas that ``sample`` replaced, one time at a time."""
    if isinstance(curve, CirclePath):
        th = curve.phase + 2.0 * np.pi * curve.turns * t / curve.duration
        rate = 2.0 * np.pi * curve.turns / curve.duration
        u, v = np.asarray(curve.u), np.asarray(curve.v)
        point = np.asarray(curve.center) + np.cos(th) * u + np.sin(th) * v
        return point, rate * (-np.sin(th) * u + np.cos(th) * v)
    if isinstance(curve, WaypointPath):
        segments = len(curve.points) - 1
        seg_dur = curve.duration / segments
        i = min(int(t / seg_dur), segments - 1) if t < curve.duration else segments - 1
        u = np.clip((t - i * seg_dur) / seg_dur, 0.0, 1.0)
        a, b = np.asarray(curve.points[i]), np.asarray(curve.points[i + 1])
        blend = u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)
        return a + blend * (b - a), (1.0 - np.cos(2.0 * np.pi * u)) / seg_dur * (b - a)
    if isinstance(curve, ReversedCurve):
        point, velocity = _scalar_point_velocity(curve.base, curve.duration - t)
        return point, -velocity
    if isinstance(curve, ChainedCurve):
        t1 = curve.first.duration
        return _scalar_point_velocity(curve.first, t) if t <= t1 else _scalar_point_velocity(curve.second, t - t1)
    if isinstance(curve, ReparameterizedCurve):
        point, velocity = _scalar_point_velocity(curve.base, curve.tau(t))
        return point, velocity * curve.tau_dot(t)
    raise TypeError(type(curve))


def _ellipse():
    return CirclePath((0.5, -1.0, 0.2), (2.0, 0.0, 0.3), (0.0, 1.5, 0.0), 3.0, turns=2.0, phase=0.4)


def _waypoints():
    # 0.7 / 3 is not exact, so t / seg_dur lands just off an integer at the
    # joints, and a + (b - a) differs from b in the last bit for these points
    return WaypointPath(((0.2, 0.3), (0.9, -1.9), (0.1, 0.2), (-0.5, 1.3)), 0.7)


def _chained():
    # the circle still moves at t1 while the waypoints start at rest, so the
    # velocity at t1 tells which side owns the joint
    circle = CirclePath.circle((0.0, 0.0), 1.0, 1.0, phase=0.3)
    start = tuple(circle.point(0.0))
    return concatenate(circle, WaypointPath((start, (2.0, 0.5), start), 2.0))


SAMPLED_CURVES = {
    "circle": _ellipse,
    "waypoints": _waypoints,
    "reversed": lambda: _waypoints().reverse(),
    "chained": _chained,
    "reparameterized": lambda: reparameterize(_ellipse(), lambda t: 3.0 * t * t, lambda t: 6.0 * t, 1.0),
}


@pytest.fixture(params=sorted(SAMPLED_CURVES))
def sampled_curve(request):
    return SAMPLED_CURVES[request.param]()


def _grid(curve):
    return np.union1d(np.linspace(0.0, curve.duration, 201), segment_edges(curve))


def test_sample_matches_closed_form(sampled_curve):
    times = _grid(sampled_curve)
    points, velocities = sampled_curve.sample(times)
    assert points.shape == velocities.shape == (times.size, sampled_curve.dimension)
    reference = [_scalar_point_velocity(sampled_curve, float(t)) for t in times]
    np.testing.assert_allclose(points, [p for p, _ in reference], rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(velocities, [v for _, v in reference], rtol=0.0, atol=1e-13)


def test_sample_velocity_matches_finite_differences(sampled_curve):
    h = 1e-6
    times = np.linspace(0.0, sampled_curve.duration, 37)
    # velocity may jump at a joint (ChainedCurve), so stay off the segment edges
    gaps = np.abs(times[:, None] - np.asarray(segment_edges(sampled_curve))[None, :])
    times = times[np.min(gaps, axis=1) > 2 * h]
    ahead, _ = sampled_curve.sample(times + h)
    behind, _ = sampled_curve.sample(times - h)
    _, velocities = sampled_curve.sample(times)
    np.testing.assert_allclose((ahead - behind) / (2 * h), velocities, rtol=0.0, atol=1e-6)


def test_sample_bit_identical_at_joints(sampled_curve):
    # segment starts, interior joints (ChainedCurve's t1 among them) and the end
    edges = segment_edges(sampled_curve)
    points, velocities = sampled_curve.sample(edges)
    for t, point, velocity in zip(edges, points, velocities):
        ref_point, ref_velocity = _scalar_point_velocity(sampled_curve, t)
        assert np.array_equal(point, ref_point) and np.array_equal(velocity, ref_velocity), t


def test_point_and_velocity_are_rows_of_sample(sampled_curve):
    times = _grid(sampled_curve)
    points, velocities = sampled_curve.sample(times)
    for t, point, velocity in zip(times, points, velocities):
        assert np.array_equal(sampled_curve.point(float(t)), point)
        assert np.array_equal(sampled_curve.velocity(float(t)), velocity)


def test_sample_empty_times(sampled_curve):
    points, velocities = sampled_curve.sample(np.zeros(0))
    assert points.shape == velocities.shape == (0, sampled_curve.dimension)



def test_right_limit_moves_only_a_velocity_jump(sampled_curve):
    # the limit from the right at a joint is the next segment's
    times = _grid(sampled_curve)
    points, velocities = sampled_curve.sample(times)
    segments = sampled_curve.segments(times)
    joint = np.isin(times, sampled_curve.breakpoints)
    # by default a time reads the segment that contains it; a joint, the one that ends there
    edges = np.concatenate([[-np.inf], sampled_curve.breakpoints, [np.inf]])
    assert np.all((edges[segments] < times) & (times < edges[segments + 1]) | joint)
    assert np.array_equal(times[joint], edges[segments[joint] + 1])
    # at a joint the next segment moves only a velocity that jumps
    next_points, next_velocities = sampled_curve.sample(times[joint], segments[joint] + 1)
    jump = np.zeros(joint.sum(), dtype=bool)
    if isinstance(sampled_curve, ChainedCurve):
        jump = times[joint] == sampled_curve.first.duration
        assert jump.sum() == 1
    assert np.array_equal(next_points[~jump], points[joint][~jump])
    assert np.array_equal(next_velocities[~jump], velocities[joint][~jump])


def test_chain_joint_limits_from_each_side():
    chain = _chained()
    t1 = chain.first.duration
    k = chain.breakpoints.index(t1)  # the segment that ends at t1
    _, left = chain.sample([t1], [k])
    _, right = chain.sample([t1], [k + 1])
    assert np.array_equal(left[0], chain.first.velocity(t1))
    assert np.array_equal(right[0], chain.second.velocity(0.0))
    assert np.linalg.norm(left[0] - right[0]) > 1.0  # the circle moves, the waypoints start at rest
    # walked backwards, the segments swap sides: the joint's left limit is the
    # forward right limit, and the velocities change sign
    back = chain.reverse()
    j = len(back.breakpoints) - 1 - k
    assert back.breakpoints[j] == back.duration - t1
    _, back_left = back.sample([back.duration - t1], [j])
    _, back_right = back.sample([back.duration - t1], [j + 1])
    assert np.array_equal(back_left[0], -right[0]) and np.array_equal(back_right[0], -left[0])
    # off the joints the index passed down is the one the chain picks itself
    times = np.linspace(0.0, back.duration, 301)
    off = ~np.isin(times, back.breakpoints)
    back_points, back_velocities = back.sample(times[off])
    points, velocities = chain.sample(back.duration - times[off])
    assert np.array_equal(back_points, points) and np.array_equal(back_velocities, -velocities)
    # segments of a nested curve, by hand: the chain's are circle | loop | loop
    # (joints 1 and 2), and chaining its reverse after it appends them mirrored
    nested = concatenate(chain, back)
    assert nested.breakpoints == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert nested.segments([0.5, 1.0, 1.5, 3.0, 3.5, 4.0, 5.5, 6.0]).tolist() == [0, 0, 1, 2, 3, 3, 5, 5]


# --- one-sided limits at the joints of nested derived curves ---------------------

# Non-dyadic durations, so the float maps of the derived curves (T - t, tau,
# t - t1) do not land exactly on a joint
_DURATIONS = (0.3, 0.7, 1.3)
_HOME = (1.0, 0.0)


@st.composite
def _loop_at_home(draw, depth: int):
    """A loop through _HOME: a circle or waypoint loop, or a derived curve of such loops.

    Every drawn curve starts and ends at _HOME, so any two of them chain.
    """
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        duration = draw(st.sampled_from(_DURATIONS))
        if draw(st.booleans()):
            radius = draw(st.sampled_from((0.4, 1.3)))
            turns = draw(st.sampled_from((1.0, -1.0, 2.0)))
            return CirclePath.circle((1.0 - radius, 0.0), radius, duration, turns=turns)
        inner = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
        return WaypointPath((_HOME, draw(inner), draw(inner), _HOME), duration)
    base = draw(_loop_at_home(depth - 1))
    operation = draw(st.sampled_from(("concatenate", "reverse", "reparameterize")))
    if operation == "concatenate":
        return concatenate(base, draw(_loop_at_home(depth - 1)))
    if operation == "reverse":
        return base.reverse()
    # tau(t) = T (a s + (1 - a) s^2) with s = t / duration: monotone, ends fixed
    a, duration, T = draw(st.sampled_from((0.3, 1.0))), draw(st.sampled_from(_DURATIONS)), base.duration
    return reparameterize(
        base,
        lambda t: T * (a * t / duration + (1.0 - a) * (t / duration) ** 2),
        lambda t: T / duration * (a + 2.0 * (1.0 - a) * t / duration),
        duration,
    )


# 100 examples, about 1 s
@settings(derandomize=True, max_examples=100, deadline=None)
@given(_loop_at_home(3))
def test_segments_give_the_one_sided_limits_of_nested_curves(curve):
    # Segments k and k + 1 at joint k must give the velocities just before and
    # just after it.  The oracle samples delta off the joint and passes no
    # segment; it misses by the acceleration times delta, at most 5e3 delta
    # over these examples, while the velocity jumps among them are 1.9 or more.
    delta = 1e-8
    for k, b in enumerate(curve.breakpoints):
        for segment, t in ((k, b - delta), (k + 1, b + delta)):
            _, limit = curve.sample([b], [segment])
            _, near = curve.sample([t])
            assert np.max(np.abs(limit[0] - near[0])) <= 1e6 * delta, (k, segment)
