"""Stress minimization by per-pair stochastic descent with an annealed step.

Each iteration visits every unordered vertex pair once, in a fresh random
order, and moves the two endpoints along their connecting line so the pair
distance gets closer to the target.  The per-pair step width is

    mu(t) = min(1, eta(t) / d_ij**2)

so every pair starts fully corrected (mu = 1) under the default schedule
and the exponentially decaying eta(t) freezes the layout by the last
iteration.  There is no convergence test; the schedule itself enforces
termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DistanceMatrix
from .stress import JITTER_EPSILON, as_layout, stress

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Schedule:
    """Exponentially decaying step widths eta(t) for t in [0, t_max)."""

    t_max: int
    eta_max: float
    eta_min: float

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if not (0.0 < self.eta_min <= self.eta_max):
            raise ValueError(
                f"need 0 < eta_min <= eta_max, got {self.eta_min}, {self.eta_max}"
            )

    @property
    def decay(self) -> float:
        if self.t_max == 1:
            return 0.0
        return math.log(self.eta_max / self.eta_min) / (self.t_max - 1)

    def eta(self, t: int) -> float:
        """Unweighted step width at iteration t; eta(0) = eta_max, eta(t_max-1) = eta_min."""
        if not 0 <= t < self.t_max:
            raise ValueError(f"iteration {t} outside schedule range [0, {self.t_max})")
        return self.eta_max * math.exp(-self.decay * t)

    def mu(self, t: int, d: float) -> float:
        """Weighted step width for a pair at target distance d, capped at 1."""
        return min(1.0, self.eta(t) / (d * d))


def default_schedule(dist: DistanceMatrix, t_max: int = 15, eps: float = 0.01) -> Schedule:
    """Schedule spanning the distance range of a graph.

    eta_max = d_max**2 puts every pair at the mu = 1 cap initially;
    eta_min = eps * d_min**2 makes the final moves a factor eps of a full
    correction for the tightest pairs.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if dist.n < 2:
        return Schedule(t_max, 1.0, 1.0)
    targets = dist.pairs[2]
    return Schedule(t_max, float(targets.max()) ** 2, eps * float(targets.min()) ** 2)


@dataclass(frozen=True)
class SgdConfig:
    """Everything that pins down one deterministic run."""

    schedule: Schedule
    seed: int = 0


def pair_update(p, q, d: float, mu: float):
    """Move a single pair toward its target distance d by fraction mu.

    Shrinks or extends the segment p--q symmetrically: with mu = 1 the new
    distance is exactly d, and the midpoint is preserved exactly for any mu.
    Returns the two new points.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    delta = p - q
    length = math.hypot(float(delta[0]), float(delta[1]))
    if length <= 0.0:
        raise ValueError("coincident pair: update direction is undefined")
    move = (0.5 * mu * (length - d) / length) * delta
    return p - move, q + move


def _pair_table(dist: DistanceMatrix):
    """The i<j pair table in plain-Python form for the hot loop."""
    i, j, targets = dist.pairs
    return i.tolist(), j.tolist(), targets.tolist(), targets**-2.0


def _sweep(xs, ys, is_, js_, targets, mus, order, rng):
    """One pass of dyadic updates, in the given pair order, in place.

    Updates are sequential: each pair sees the already-moved positions of
    earlier pairs.  Coincident pairs are first nudged apart by
    JITTER_EPSILON in a random direction (both endpoints, opposite ways,
    so the midpoint is kept).
    """
    for p in order:
        i = is_[p]
        j = js_[p]
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        length = math.sqrt(dx * dx + dy * dy)
        if length <= 0.0:
            angle = rng.uniform(0.0, TWO_PI)
            ux = JITTER_EPSILON * math.cos(angle)
            uy = JITTER_EPSILON * math.sin(angle)
            xs[i] += ux
            ys[i] += uy
            xs[j] -= ux
            ys[j] -= uy
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            length = math.sqrt(dx * dx + dy * dy)
        step = 0.5 * mus[p] * (length - targets[p]) / length
        mx = step * dx
        my = step * dy
        xs[i] -= mx
        ys[i] -= my
        xs[j] += mx
        ys[j] += my


def run_sgd(
    dist: DistanceMatrix,
    init,
    config: SgdConfig,
    iterations: int | None = None,
    callback=None,
):
    """Run the full annealed schedule from a given initial layout.

    Returns (layout, trace) where trace[0] is the initial stress and
    trace[t] the stress after iteration t, one entry per iteration run.
    ``iterations`` truncates the run to the first steps of the schedule
    (the random stream is consumed identically, so a truncated run is a
    prefix of the full one).  Each iteration draws its pair permutation
    and then any jitter from one generator seeded by config.seed.
    ``callback(t, layout)`` fires after each iteration with 1-based t.
    """
    x = as_layout(init, dist.n)
    schedule = config.schedule
    steps = schedule.t_max if iterations is None else iterations
    if not 0 <= steps <= schedule.t_max:
        raise ValueError(f"iterations must be in [0, {schedule.t_max}], got {steps}")
    rng = np.random.default_rng(config.seed)
    is_, js_, targets, weights = _pair_table(dist)
    xs = x[:, 0].tolist()
    ys = x[:, 1].tolist()
    trace = [stress(x, dist)]
    for t in range(steps):
        mus = np.minimum(1.0, schedule.eta(t) * weights).tolist()
        order = rng.permutation(len(is_)).tolist()
        _sweep(xs, ys, is_, js_, targets, mus, order, rng)
        current = np.column_stack((xs, ys))
        trace.append(stress(current, dist))
        if callback is not None:
            callback(t + 1, current)
    return np.column_stack((xs, ys)), trace
