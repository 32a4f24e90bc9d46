"""Parameter-space curves: circles/ellipses, waypoint paths, and derived curves.

A curve knows its duration, interior breakpoints (times where smoothness
may degrade), whether it closes, and ``sample(times)``: its points and
velocities at an array of times, computed with arrays in every class.
Integration grids are always aligned with breakpoints so ordered products
and RK4 never step across a joint; that also makes the propagator group
laws exact at the discrete level for matched step counts.  Where the
velocity jumps at a joint (a ``ChainedCurve``), ``sample(times, segment)``
reads time i on segment ``segment[i]``, the k-th ending at ``breakpoints[k]``.
A stepper takes a step's segment from its midpoint, so no float has to land
on a joint; derived curves carry the index through to their bases.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, StepCountError
from .fields import ParameterPolynomial

# Closure and joint gaps are compared relative to the curve's scale (at
# least 1): rounding in a point grows with the coordinates it is built from,
# so a one-turn circle of radius R closes only to about R * 1e-16.
CLOSED_TOL = 1e-12
JOIN_TOL = 1e-9
_SCALE_SAMPLES = 9


class ParameterCurve(abc.ABC):
    """Piecewise-smooth path ``xi : [0, T] -> R^d`` with velocity access."""

    dimension: int
    duration: float
    breakpoints: tuple[float, ...] = ()

    @abc.abstractmethod
    def sample(self, times, segment=None) -> tuple[np.ndarray, np.ndarray]:
        """Points and velocities at a 1-D array of S times, two (S, d) arrays.

        Time i is read on segment ``segment[i]`` (default: ``segments(times)``),
        so at a joint the two adjacent segments give the one-sided limits;
        curves that are C^1 across their joints ignore the index.
        """

    def segments(self, times, segment=None) -> np.ndarray:
        """``segment`` as an array; by default each time's segment, at a joint the one that ends there."""
        return np.searchsorted(self.breakpoints, times) if segment is None else np.asarray(segment)

    def step_segments(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each step's segment (its midpoint's), and the steps that start one: step 0 and each after a joint."""
        segments = self.segments(0.5 * (times[:-1] + times[1:]))
        return segments, np.flatnonzero(np.diff(segments, prepend=-1))

    def point(self, t: float) -> np.ndarray:
        return self.sample([t])[0][0]

    def velocity(self, t: float) -> np.ndarray:
        return self.sample([t])[1][0]

    @property
    def scale(self) -> float:
        """Largest norm of the curve's points, sampled on a uniform grid; at least 1."""
        points, _ = self.sample(np.linspace(0.0, self.duration, _SCALE_SAMPLES))
        return max(1.0, float(np.max(np.linalg.norm(points, axis=1))))

    @property
    def is_closed(self) -> bool:
        (start, end), _ = self.sample([0.0, self.duration])
        return bool(np.linalg.norm(start - end) <= CLOSED_TOL * self.scale)

    def reverse(self) -> "ParameterCurve":
        return ReversedCurve(self)


@dataclass(frozen=True)
class CirclePath(ParameterCurve):
    """Circle/ellipse ``center + cos(theta) u + sin(theta) v`` traversed smoothly.

    ``theta(t) = phase + 2 pi turns t / duration``.  Integer ``turns`` close
    the loop; ``turns=0`` with any duration is the constant (zero-velocity)
    loop.
    """

    center: tuple[float, ...]
    u: tuple[float, ...]
    v: tuple[float, ...]
    duration: float
    turns: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        center = tuple(float(x) for x in self.center)
        u = tuple(float(x) for x in self.u)
        v = tuple(float(x) for x in self.v)
        if not len(center) == len(u) == len(v):
            raise DimensionMismatchError("center, u, v must have equal length")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "dimension", len(center))
        object.__setattr__(self, "breakpoints", ())

    @classmethod
    def circle(
        cls,
        center: Sequence[float],
        radius: float,
        duration: float,
        axes: tuple[int, int] = (0, 1),
        turns: float = 1.0,
        phase: float = 0.0,
    ) -> "CirclePath":
        d = len(center)
        if not all(0 <= a < d for a in axes) or axes[0] == axes[1]:
            raise DimensionMismatchError(f"circle axes {axes} invalid for dimension {d}")
        u = [0.0] * d
        v = [0.0] * d
        u[axes[0]] = radius
        v[axes[1]] = radius
        return cls(tuple(center), tuple(u), tuple(v), duration, turns, phase)

    def sample(self, times, segment=None) -> tuple[np.ndarray, np.ndarray]:
        theta = self.phase + 2.0 * np.pi * self.turns * np.asarray(times, dtype=float) / self.duration
        rate = 2.0 * np.pi * self.turns / self.duration
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        u, v = np.asarray(self.u), np.asarray(self.v)
        return np.asarray(self.center) + cos * u + sin * v, rate * (-sin * u + cos * v)


def _blend(u: float) -> float:
    # C^2 ease over [0,1]: zero velocity and acceleration at both ends.
    return u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)


def _blend_rate(u: float) -> float:
    return 1.0 - np.cos(2.0 * np.pi * u)


@dataclass(frozen=True)
class WaypointPath(ParameterCurve):
    """Piecewise-linear waypoints traversed with a smooth speed profile.

    Each segment takes an equal share of the duration; the traversal speed
    vanishes at the joints, so point and velocity are continuous across
    segments.  Segment joints are reported as breakpoints.
    """

    points: tuple[tuple[float, ...], ...]
    duration: float

    def __post_init__(self):
        pts = tuple(tuple(float(x) for x in p) for p in self.points)
        if len(pts) < 2:
            raise ValueError("need at least two waypoints")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise DimensionMismatchError("waypoints of unequal dimension")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        segments = len(pts) - 1
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(
            self,
            "breakpoints",
            tuple(self.duration * i / segments for i in range(1, segments)),
        )

    def sample(self, times, segment=None) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(times, dtype=float)
        segments = len(self.points) - 1
        seg_dur = self.duration / segments
        # The segment rule of int(t / seg_dur): a binary search on the joints
        # may pick the other segment at a joint and change the last bits there.
        i = np.where(t < self.duration, np.minimum((t / seg_dur).astype(int), segments - 1), segments - 1)
        u = np.clip((t - i * seg_dur) / seg_dur, 0.0, 1.0)[:, None]
        start, delta = np.asarray(self.points)[i], np.diff(self.points, axis=0)[i]
        return start + _blend(u) * delta, _blend_rate(u) / seg_dur * delta


@dataclass(frozen=True)
class ReversedCurve(ParameterCurve):
    """The same trace walked backwards."""

    base: ParameterCurve

    def __post_init__(self):
        T = self.base.duration
        object.__setattr__(self, "dimension", self.base.dimension)
        object.__setattr__(self, "duration", T)
        object.__setattr__(self, "breakpoints", tuple(sorted(T - b for b in self.base.breakpoints)))

    def sample(self, times, segment=None) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(times, dtype=float)
        # segment k walks the base's segment len(breakpoints) - k backwards
        k = self.segments(t, segment)
        points, velocities = self.base.sample(self.duration - t, len(self.breakpoints) - k)
        return points, -velocities


@dataclass(frozen=True)
class ChainedCurve(ParameterCurve):
    """Concatenation: run ``first`` over [0, T1], then ``second``."""

    first: ParameterCurve
    second: ParameterCurve

    def __post_init__(self):
        if self.first.dimension != self.second.dimension:
            raise DimensionMismatchError("cannot chain curves of different dimensions")
        gap = np.linalg.norm(self.first.point(self.first.duration) - self.second.point(0.0))
        if gap > JOIN_TOL * max(self.first.scale, self.second.scale):
            raise ValueError(f"curves do not connect (gap {gap:.3e})")
        t1 = self.first.duration
        object.__setattr__(self, "dimension", self.first.dimension)
        object.__setattr__(self, "duration", t1 + self.second.duration)
        joints = tuple(self.first.breakpoints) + (t1,) + tuple(t1 + b for b in self.second.breakpoints)
        object.__setattr__(self, "breakpoints", joints)

    def sample(self, times, segment=None) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(times, dtype=float)
        k = self.segments(t, segment)
        split = len(self.first.breakpoints) + 1  # the second piece's segment 0
        head, tail = k < split, k >= split
        points, velocities = np.empty((2, t.size, self.dimension))
        points[head], velocities[head] = self.first.sample(t[head], k[head])
        points[tail], velocities[tail] = self.second.sample(t[tail] - self.first.duration, k[tail] - split)
        return points, velocities


def concatenate(first: ParameterCurve, second: ParameterCurve) -> ParameterCurve:
    return ChainedCurve(first, second)


@dataclass(frozen=True)
class ReparameterizedCurve(ParameterCurve):
    """``xi o tau`` for a smooth monotone clock map tau : [0, T'] -> [0, T]."""

    base: ParameterCurve
    tau: Callable[[float], float]
    tau_dot: Callable[[float], float]
    duration: float

    _CHECK_SAMPLES = 257

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        T = self.base.duration
        if abs(self.tau(0.0)) > 1e-9 * max(1.0, T) or abs(self.tau(self.duration) - T) > 1e-9 * max(1.0, T):
            raise ValueError("tau must map [0, duration] onto [0, base duration]")
        samples = np.linspace(0.0, self.duration, self._CHECK_SAMPLES)
        rates = [self.tau_dot(float(t)) for t in samples]
        if min(rates) < -1e-12:
            raise ValueError("tau must be monotone non-decreasing")
        values = [self.tau(float(t)) for t in samples]
        if np.any(np.diff(values) < -1e-12):
            raise ValueError("tau must be monotone non-decreasing")
        object.__setattr__(self, "dimension", self.base.dimension)
        # Breakpoints pull back through tau; invert by bisection (tau monotone).
        object.__setattr__(self, "breakpoints", tuple(self._preimage(b) for b in self.base.breakpoints))

    def _preimage(self, target: float) -> float:
        lo, hi = 0.0, self.duration
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.tau(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def sample(self, times, segment=None) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(times, dtype=float)
        clock = np.array([(self.tau(s), self.tau_dot(s)) for s in t]).reshape(-1, 2)
        points, velocities = self.base.sample(clock[:, 0], self.segments(t, segment))
        return points, velocities * clock[:, 1:]


def reparameterize(
    curve: ParameterCurve,
    tau: Callable[[float], float],
    tau_dot: Callable[[float], float],
    duration: float,
) -> ParameterCurve:
    return ReparameterizedCurve(curve, tau, tau_dot, duration)


def segment_edges(curve: ParameterCurve) -> list[float]:
    """Start, interior breakpoints and end of the curve: its smooth segments' edges."""
    edges = [0.0] + [b for b in curve.breakpoints if 0.0 < b < curve.duration] + [curve.duration]
    return sorted(set(edges))


def step_intervals(curve: ParameterCurve, steps: int) -> np.ndarray:
    """Grid of steps+1 boundary times, split exactly at the curve's breakpoints.

    Steps are shared among smooth segments proportionally to their duration
    (largest-remainder rounding, at least one per segment).  Raises if there
    are more segments than steps.  A reversed curve steps on the mirror of
    its base's grid, so a loop and its reverse multiply the same factors
    and the discrete reversal law holds for every step count.
    """
    if steps < 1:
        raise StepCountError("steps must be >= 1")
    if isinstance(curve, ReversedCurve):
        return curve.duration - step_intervals(curve.base, steps)[::-1]
    edges = segment_edges(curve)
    nseg = len(edges) - 1
    if steps < nseg:
        raise StepCountError(f"{steps} steps cannot cover {nseg} smooth segments")
    durations = np.diff(edges)
    ideal = steps * durations / curve.duration
    counts = np.maximum(1, np.floor(ideal).astype(int))
    while counts.sum() > steps:
        k = int(np.argmax(counts))
        counts[k] -= 1
    remainders = ideal - counts
    while counts.sum() < steps:
        k = int(np.argmax(remainders))
        counts[k] += 1
        remainders[k] = -np.inf
    times = [np.linspace(edges[i], edges[i + 1], counts[i] + 1)[:-1] for i in range(nseg)]
    return np.concatenate(times + [np.array([curve.duration])])


def line_integral(polys: Mapping[int, ParameterPolynomial], curve: ParameterCurve) -> float:
    """Exact line integral ``sum_beta int P_beta(xi) dxi^beta`` along the curve.

    Serves as the independent oracle for Abelian control phases:

    * full-turn ``CirclePath``: the integrand is a trigonometric polynomial
      over a full period, so a uniform midpoint sum with more nodes than the
      trig degree is exact;
    * ``WaypointPath``: along each straight segment the pullback is a
      polynomial in the blend variable, integrated exactly by
      Gauss-Legendre (the smooth clock drops out by substitution);
    * reversed / chained / reparameterized curves reduce to their bases,
      which is precisely the path-only character of the integral;
    * non-integer circle turns fall back to high-order panels (accurate to
      roundoff for desk-scale analytic integrands).
    """
    for beta, poly in polys.items():
        if not 0 <= beta < curve.dimension:
            raise DimensionMismatchError(f"parameter axis {beta} out of range")
        if poly.dim != curve.dimension:
            raise DimensionMismatchError("polynomial dimension differs from curve dimension")

    if isinstance(curve, ReversedCurve):
        return -line_integral(polys, curve.base)
    if isinstance(curve, ChainedCurve):
        return line_integral(polys, curve.first) + line_integral(polys, curve.second)
    if isinstance(curve, ReparameterizedCurve):
        return line_integral(polys, curve.base)

    max_deg = max((p.degree for p in polys.values()), default=0)

    if isinstance(curve, CirclePath):
        if all(x == 0.0 for x in curve.u) and all(x == 0.0 for x in curve.v):
            return 0.0
        turns = curve.turns
        if float(turns).is_integer():
            if turns == 0:
                return 0.0
            degree = (max_deg + 1) * int(abs(turns))
            nodes = max(2 * degree + 3, 16)
            ts = (np.arange(nodes) + 0.5) * curve.duration / nodes
            # The circle's own formula: curve.sample is what the checked products read.
            center, u, v = np.asarray(curve.center), np.asarray(curve.u), np.asarray(curve.v)
            total = 0.0
            for t in ts:
                th = curve.phase + 2.0 * np.pi * turns * float(t) / curve.duration
                sigma = center + np.cos(th) * u + np.sin(th) * v
                vel = 2.0 * np.pi * turns / curve.duration * (-np.sin(th) * u + np.cos(th) * v)
                total += sum(p.evaluate(sigma).real * vel[b] for b, p in polys.items())
            return float(total * curve.duration / nodes)
        return _panel_integral(polys, curve)

    if isinstance(curve, WaypointPath):
        total = 0.0
        gl_nodes, gl_weights = np.polynomial.legendre.leggauss(max(1, (max_deg + 2) // 2 + 1))
        for a, b in zip(curve.points[:-1], curve.points[1:]):
            a = np.asarray(a)
            delta = np.asarray(b) - a
            # int_0^1 P(a + w delta) delta dw, exact for polynomials in w.
            for x, w in zip(gl_nodes, gl_weights):
                wpt = a + 0.5 * (x + 1.0) * delta
                total += 0.5 * w * sum(p.evaluate(wpt).real * delta[bb] for bb, p in polys.items())
        return float(total)

    return _panel_integral(polys, curve)


def _panel_integral(polys: Mapping[int, ParameterPolynomial], curve: ParameterCurve) -> float:
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(32)
    edges = segment_edges(curve)
    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels.extend(np.linspace(lo, hi, 5))
    panels = sorted(set(panels))
    total = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for x, w in zip(gl_nodes, gl_weights):
            t = mid + half * x
            sigma = curve.point(float(t))
            vel = curve.velocity(float(t))
            total += half * w * sum(p.evaluate(sigma).real * vel[b] for b, p in polys.items())
    return float(total)
