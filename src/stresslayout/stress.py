"""The stress objective over 2D layouts, and layout utilities.

A layout is a plain (n, 2) float array, which both optimizers move as n
complex numbers x + iy (points) and whose coincident points they nudge
apart (separate).  Stress sums, over unordered vertex pairs, the squared
deviation of layout distance from target distance, weighted by the
inverse squared target:

    sum_{i<j} (|x_i - x_j| - d_ij)**2 / d_ij**2

stress and both optimizers' sweeps all measure a layout distance as
np.abs of a complex difference of points.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import DistanceMatrix

# Both optimizers nudge coincident points this far apart before an update
# whose direction would otherwise be undefined.
JITTER_EPSILON = 1e-6

# stress() evaluates this many pair terms at a time: its scratch memory
# (about 0.8 MiB) does not grow with n, and at 2**14 pairs the numpy calls
# per block cost little next to their work.
STRESS_BLOCK = 1 << 14

# ExactSum's bins, one per float64 exponent field, and its array limit:
# 2**26 values of at most 26 bits each keep every float64 bin sum exact.
EXPONENT_BINS = 1 << 11
LOW_26 = (1 << 26) - 1
MAX_ARRAY_TERMS = 1 << 26


def as_layout(coords, n: int | None = None) -> np.ndarray:
    """Validate coordinates and return them as a new C-ordered (n, 2) float64 array."""
    x = np.array(coords, dtype=float, order="C")
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"layout must have shape (n, 2), got {x.shape}")
    if n is not None and x.shape[0] != n:
        raise ValueError(f"layout has {x.shape[0]} points, expected {n}")
    if not np.isfinite(x).all():
        raise ValueError("layout contains non-finite coordinates")
    return x


def points(x: np.ndarray) -> np.ndarray:
    """The rows of a C-ordered (n, 2) layout as n complex numbers x + iy (a view)."""
    return x.view(np.complex128).reshape(-1)


def separate(z, i, j, rng: np.random.Generator) -> None:
    """Nudge the points of each pair (i[k], j[k]) apart by JITTER_EPSILON, in place.

    z[i[k]] moves along the pair's uniform angle from rng and z[j[k]] the
    opposite way; a repeated index takes its nudges in pair order.
    """
    nudge = JITTER_EPSILON * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(j)))
    np.add.at(z, i, nudge)
    np.subtract.at(z, j, nudge)


def stress(coords, dist: DistanceMatrix) -> float:
    """Weighted squared deviation of layout distances from targets.

    Each length is np.abs of a complex difference of points, as in both
    optimizers: within about 2 ulp of the true distance, where np.hypot
    is within 0.6 ulp but makes a call about twice as slow.
    The pair terms are computed STRESS_BLOCK pairs at a time, so scratch
    memory stays fixed as n grows, and their sum over all blocks is
    exactly rounded (ExactSum): the value is math.fsum of the terms, bit
    for bit, whatever the block size.  The lengths' last bits depend on
    the CPU features numpy dispatches to.
    """
    z = points(as_layout(coords, dist.n))
    i, j, target = dist.pairs
    total = ExactSum()
    for start in range(0, len(target), STRESS_BLOCK):
        block = slice(start, start + STRESS_BLOCK)
        total.add(_pair_terms(z, i[block], j[block], target[block]))
    return total.value()


def _pair_terms(z, i, j, target) -> np.ndarray:
    """The stress terms of the pairs (i[k], j[k]) of points z = x + iy.

    Casts the block's int32 indices to intp and its targets to float64
    once.  A function of its own so that its scratch arrays are freed
    before ExactSum.add allocates its own.
    """
    delta = z[i.astype(np.intp)]
    delta -= z[j.astype(np.intp)]
    lengths = np.abs(delta)
    target = target.astype(np.float64, copy=False)
    return ((lengths - target) / target) ** 2


class ExactSum:
    """Exactly rounded sum of nonnegative float64 values: math.fsum of all
    values added, bit for bit, in any order.

    A value with exponent field e > 0 and mantissa bits m is
    (2**52 + m) * 2**(e - 1075); with e = 0 (zero or subnormal) it is
    m * 2**-1074.  Each bin, one per e, holds its value count (the
    implicit bits) and the sums of the upper and lower 26 bits of m.
    np.bincount's float64 sums of 26-bit integers are exact for arrays of
    up to MAX_ARRAY_TERMS values; the bins carry across arrays in int64.
    """

    def __init__(self):
        self.counts, self.highs, self.lows = (np.zeros(EXPONENT_BINS, np.int64) for _ in range(3))

    def add(self, values: np.ndarray) -> None:
        """Add a contiguous float64 array of nonnegative values."""
        if len(values) > MAX_ARRAY_TERMS:
            raise ValueError(f"ExactSum.add takes at most {MAX_ARRAY_TERMS} values at a time")
        bits = values.view(np.int64)
        exponents = bits >> 52
        self.counts += np.bincount(exponents, minlength=EXPONENT_BINS)
        self.highs += np.bincount(exponents, (bits >> 26) & LOW_26, EXPONENT_BINS).astype(np.int64)
        self.lows += np.bincount(exponents, bits & LOW_26, EXPONENT_BINS).astype(np.int64)

    def value(self) -> float:
        """The sum so far, from one Python int whose division by 2**1075 is
        correctly rounded.  As with fsum, a finite part that rounds beyond
        the float range raises OverflowError; otherwise an inf value gives
        inf.  (fsum also raises on some sums that round down to the float
        maximum, when its partials overflow; here those give the maximum.)
        """
        used = np.flatnonzero(self.counts[:-1])
        total = 0
        for e, count, high, low in zip(used.tolist(), self.counts[used].tolist(),
                                       self.highs[used].tolist(), self.lows[used].tolist()):
            implicit = count << 52 if e else 0
            total += (implicit + (high << 26) + low) << max(e, 1)
        finite = total / (1 << 1075)
        if self.counts[-1]:  # exponent field all ones: inf, or NaN if a mantissa bit is set
            return math.nan if self.highs[-1] or self.lows[-1] else math.inf
        return finite
