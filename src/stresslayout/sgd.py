"""Stress minimization by per-pair stochastic descent with an annealed step.

Each iteration visits every unordered vertex pair once and moves the two
endpoints along their connecting line so the pair distance gets closer to
the target.  The pairs come in the n - 1 disjoint matching rounds of a
circle-method round robin (n rounds for odd n), so one vectorized step per
round equals a sequential sweep in some order; each iteration draws that
order afresh.  The rounds' vertex rows are gathered a chunk of rounds at
a time, about STRESS_BLOCK pairs each, from windows over the doubled ring
of slots, so a run's scratch memory beyond the distance matrix and its
pair table does not grow with n.  A seed's random stream is fixed per
version of this sweep.
The per-pair step width is

    mu(t) = min(1, eta(t) / d_ij**2)

where eta(t) decays exponentially from d_max**2 to eps * d_min**2 over the
run (step_widths), so every pair starts fully corrected (mu = 1) and the
layout freezes by the last iteration.  There is no convergence test; the
schedule itself enforces termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graphs import DistanceMatrix
from .stress import STRESS_BLOCK, as_layout, points, separate, stress

# Default schedule: iteration count, and the final step as a fraction of a
# full correction for the tightest pairs.
ITERATIONS = 15
EPS = 0.01


@dataclass(frozen=True)
class SgdConfig:
    """Everything that pins down one deterministic run.

    The schedule has two free values, its length and its final relative
    step eps; run_sgd derives the step widths from them and the graph.
    A refusal names each value by its command-line flag.
    """

    iterations: int = ITERATIONS
    eps: float = EPS
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"--iters: iterations must be positive, got {self.iterations}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"--eps: eps must be in (0, 1), got {self.eps}")
        if self.seed < 0:
            raise ValueError(f"--seed: seed must be nonnegative, got {self.seed}")


def step_widths(dist: DistanceMatrix, config: SgdConfig) -> list[float]:
    """Unweighted step widths eta(t) for t in [0, config.iterations).

    eta decays exponentially from d_max**2, which puts every pair at the
    mu = 1 cap initially, to eps * d_min**2, which makes the final moves a
    factor eps of a full correction for the tightest pairs.
    """
    if dist.n < 2:
        eta_max = eta_min = 1.0
    else:
        targets = dist.pairs[2]
        eta_max = float(targets.max()) ** 2
        eta_min = config.eps * float(targets.min()) ** 2
    t_max = config.iterations
    decay = 0.0 if t_max == 1 else math.log(eta_max / eta_min) / (t_max - 1)
    return [eta_max * math.exp(-decay * t) for t in range(t_max)]


def _round_rows(vertex):
    """Row builder for a circle-method round robin over the slots of vertex.

    With m = n rounded up to even, round r (0 <= r <= m - 2) pairs slot
    (r + k) % (m - 1) with slot (r - k) % (m - 1) for k = 1 .. m/2 - 1,
    and slot r with the fixed slot m - 1, a bye for odd n.  Every
    unordered slot pair occurs in exactly one round, and no slot occurs
    twice in a round.  With the ring of slots 0 .. m - 2 laid out twice,
    the m/2 slots forward from r are the window at r, and the m/2 slots
    backward from r are the window at r + m/2 read in reverse; column 0
    of that second row is the fixed slot for even n, and both rows drop
    column 0 for odd n.  Returns rows(rounds), which gathers the vertex
    arrays (a, b) of shape (len(rounds), n // 2), fresh copies of
    vertex's entries, with one indexing each; row r pairs a[r, k] with
    b[r, k].
    """
    n = len(vertex)
    m = n + n % 2
    half = m // 2
    skip = n % 2  # the bye column
    windows = sliding_window_view(np.tile(vertex[:m - 1], 2), half)  # the ring, laid out twice

    def rows(rounds):
        a = windows[rounds, skip:]
        b = windows[rounds + half, ::-1][:, skip:]
        if not skip:
            b[:, 0] = vertex[m - 1]
        return a, b

    return rows


def _round(z, i, j, d, half_mu, rng):
    """Update the disjoint pairs (i[k], j[k]) of points z = x + iy at once, in place.

    half_mu holds 0.5 * mu per pair: each pair moves symmetrically along
    its line by the fraction mu of the correction to its target d, so
    mu = 1 realizes d, and its midpoint stays.  No vertex occurs twice in
    i and j together, so the result equals updating the pairs one at a
    time, in any order.  Coincident pairs, found by counting nonzero
    lengths, are first nudged apart by stress.separate, one angle per
    pair from rng.
    """
    zi, zj = z[i], z[j]
    delta = zi - zj
    length = np.abs(delta)
    if np.count_nonzero(length) < len(length):
        coincident = length == 0.0
        separate(z, i[coincident], j[coincident], rng)
        zi, zj = z[i], z[j]
        delta = zi - zj
        length = np.abs(delta)
    move = (half_mu * (length - d) / length) * delta
    z[i] = zi - move
    z[j] = zj + move


def run_sgd(
    dist: DistanceMatrix,
    init,
    config: SgdConfig,
    steps: int | None = None,
    callback=None,
):
    """Run the full annealed schedule from a given initial layout.

    Returns (layout, trace) where trace[0] is the initial stress and
    trace[t] the stress after iteration t, one entry per iteration run.
    ``steps`` truncates the run to the first steps of the schedule
    (the random stream is consumed identically, so a truncated run is a
    prefix of the full one).  One generator seeded by config.seed feeds
    every iteration, in this order: a permutation of the n vertices over
    the round-robin slots, a permutation of the rounds, then one jitter
    angle per coincident pair as the rounds meet them.
    Each iteration takes the permuted rounds in chunks of about
    STRESS_BLOCK pairs.  Per chunk it gathers the vertex rows from
    windows over the doubled slot ring (_round_rows), then the targets
    from the flat distance matrix, cast to float64, so scratch memory
    stays bounded as n
    grows; neither the chunking nor the windows change the random stream
    or the result.
    The rounds move a copy of init in place through stress.points, and
    ``callback(t, layout)`` gets a copy of it after each 1-based iteration t.
    """
    x = as_layout(init, dist.n)
    if steps is None:
        steps = config.iterations
    if not 0 <= steps <= config.iterations:
        raise ValueError(f"steps must be in [0, {config.iterations}], got {steps}")
    widths = step_widths(dist, config)
    rng = np.random.default_rng(config.seed)
    m = dist.n + dist.n % 2
    rounds = m - 1
    chunk = max(1, STRESS_BLOCK // (m // 2))  # rounds per gather
    flat = dist.matrix.ravel()
    z = points(x)
    trace = [stress(x, dist)]
    for t, eta in enumerate(widths[:steps]):
        vertex = rng.permutation(dist.n)
        order = rng.permutation(rounds)
        rows = _round_rows(vertex)
        for start in range(0, rounds, chunk):
            a, b = rows(order[start:start + chunk])
            d = flat.take(a * dist.n + b).astype(np.float64)  # d * d wraps in uint8
            half_mu = 0.5 * np.minimum(1.0, eta / (d * d))
            for i, j, d_round, half_round in zip(a, b, d, half_mu):
                _round(z, i, j, d_round, half_round, rng)
        trace.append(stress(x, dist))
        if callback is not None:
            callback(t + 1, x.copy())
    return x, trace
