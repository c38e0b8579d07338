"""Stress minimization by per-pair stochastic descent with an annealed step.

Each iteration visits every unordered vertex pair once and moves the two
endpoints along their connecting line so the pair distance gets closer to
the target.  The pairs come in the n - 1 disjoint matching rounds of a
circle-method round robin (n rounds for odd n), so one vectorized step per
round equals a sequential sweep in some order; each iteration draws that
order afresh.  A seed's random stream is fixed per version of this sweep.
The per-pair step width is

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

# Default schedule: iteration count, and the final step as a fraction of a
# full correction for the tightest pairs.
ITERATIONS = 15
EPS = 0.01


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

    def mu(self, t: int, d):
        """Weighted step width for pairs at target distance d (a float or an
        array), capped at 1."""
        return np.minimum(1.0, self.eta(t) / (d * d))


def check_eps(eps: float) -> float:
    """Return eps if it lies in (0, 1), the range of a schedule's final relative step."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return eps


def default_schedule(dist: DistanceMatrix, t_max: int = ITERATIONS, eps: float = EPS) -> Schedule:
    """Schedule spanning the distance range of a graph.

    eta_max = d_max**2 puts every pair at the mu = 1 cap initially;
    eta_min = eps * d_min**2 makes the final moves a factor eps of a full
    correction for the tightest pairs.
    """
    check_eps(eps)
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


def _rounds(n: int):
    """Circle-method round robin: every unordered slot pair in exactly one round.

    Returns slot arrays (a, b) of shape (m - 1, m // 2), with m = n rounded
    up to even; row r pairs a[r, k] with b[r, k], and no slot occurs twice
    in a row.  Slot m - 1 stays fixed and meets the rotating slot r in
    column 0.  For odd n that fixed slot is a bye, so column 0 is dropped.
    """
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    k = np.arange(m // 2)
    a = (r + k) % (m - 1)
    b = (r - k) % (m - 1)
    b[:, 0] = m - 1
    if n % 2:
        return a[:, 1:], b[:, 1:]
    return a, b


def _round(z, i, j, d, mu, rng):
    """Update the disjoint pairs (i[k], j[k]) of points z = x + iy at once, in place.

    No vertex occurs twice in i and j together, so the result equals
    pair_update on each pair in turn, in any order.  Coincident pairs are
    first nudged apart by JITTER_EPSILON in a random direction (both
    endpoints, opposite ways, so the midpoint is kept).
    """
    delta = z[i] - z[j]
    length = np.abs(delta)
    coincident = length <= 0.0
    if coincident.any():
        nudge = JITTER_EPSILON * np.exp(1j * rng.uniform(0.0, TWO_PI, np.count_nonzero(coincident)))
        z[i[coincident]] += nudge
        z[j[coincident]] -= nudge
        delta = z[i] - z[j]
        length = np.abs(delta)
    move = (0.5 * mu * (length - d) / length) * delta
    z[i] -= move
    z[j] += move


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
    prefix of the full one).  One generator seeded by config.seed feeds
    every iteration, in this order: a permutation of the n vertices over
    the round-robin slots, a permutation of the rounds, then one jitter
    angle per coincident pair as the rounds meet them.
    ``callback(t, layout)`` fires after each iteration with 1-based t.
    """
    x = as_layout(init, dist.n)
    schedule = config.schedule
    steps = schedule.t_max if iterations is None else iterations
    if not 0 <= steps <= schedule.t_max:
        raise ValueError(f"iterations must be in [0, {schedule.t_max}], got {steps}")
    rng = np.random.default_rng(config.seed)
    slot_a, slot_b = _rounds(dist.n)
    # points as complex numbers x + iy: one gather and one scatter per endpoint
    z = x[:, 0] + 1j * x[:, 1]
    trace = [stress(x, dist)]
    for t in range(steps):
        vertex = rng.permutation(dist.n)
        order = rng.permutation(len(slot_a))
        a = vertex[slot_a[order]]
        b = vertex[slot_b[order]]
        d = dist.matrix[a, b]
        mu = schedule.mu(t, d)
        for i, j, d_round, mu_round in zip(a, b, d, mu):
            _round(z, i, j, d_round, mu_round, rng)
        current = np.column_stack((z.real, z.imag))
        trace.append(stress(current, dist))
        if callback is not None:
            callback(t + 1, current)
    return np.column_stack((z.real, z.imag)), trace
