"""The stress objective over 2D layouts, and layout utilities.

A layout is a plain (n, 2) float array, which both optimizers move as n
complex numbers x + iy (points) and whose coincident points they nudge
apart (separate).  Stress sums, over unordered vertex pairs, the squared
deviation of layout distance from target distance, weighted by the
inverse squared target:

    sum_{i<j} (|x_i - x_j| - d_ij)**2 / d_ij**2

stress and both optimizers' sweeps all measure a layout distance as
np.abs of a complex difference of points.  stress sums its terms
exactly, by error-free extraction into float partials and one
math.fsum, so fixed seeds give the same value bit for bit.
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
    memory stays fixed as n grows.  Each block becomes a few floats with
    the same exact sum (_exact_partials), and one math.fsum over all of
    them rounds that sum once: the value is math.fsum of the terms, bit
    for bit, whatever the block size, with fsum's inf, NaN and
    OverflowError.  The lengths' last bits depend on the CPU features
    numpy dispatches to.
    """
    z = points(as_layout(coords, dist.n))
    i, j, target = dist.pairs
    partials = []
    for start in range(0, len(target), STRESS_BLOCK):
        block = slice(start, start + STRESS_BLOCK)
        partials += _exact_partials(_pair_terms(z, i[block], j[block], target[block]))
    return math.fsum(partials)


def _pair_terms(z, i, j, target) -> np.ndarray:
    """The stress terms of the pairs (i[k], j[k]) of points z = x + iy.

    Casts the block's int32 indices to intp and its targets to float64
    once.  A function of its own so that its scratch arrays are freed
    before _exact_partials allocates its own.
    """
    delta = z[i.astype(np.intp)]
    delta -= z[j.astype(np.intp)]
    lengths = np.abs(delta)
    target = target.astype(np.float64, copy=False)
    return ((lengths - target) / target) ** 2


def _exact_partials(terms: np.ndarray) -> list[float]:
    """Floats whose exact sum is the exact sum of the nonnegative float64
    terms p, which it overwrites.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate Floating-Point
    Summation Part I", SIAM J. Sci. Comput. 2008): with s the bit length
    of len + 1, sigma = 2**(frexp(max |p|)[1] + s) is at least
    (len + 2) max |p|.  Then q = (p + sigma) - sigma and p - q are
    exact, and every q is a multiple of ulp(sigma) / 2 whose partial
    sums, in any order, stay below sigma, so q.sum() is exact; the
    residuals p - q, of either sign, take the next pass.  The loop ends:
    each pass leaves max |p| at most 2**(s - 52) times what it was
    (2**-37 for a block of 2**14), and every residual lies on the grid
    of 2**-1074, below which it is 0.  Where the largest term is inf,
    NaN or at least 2**(1023 - s), so that sigma would overflow, the
    terms come back as they are, for fsum to give its own inf, NaN or
    OverflowError.
    """
    s = (len(terms) + 1).bit_length()
    top = terms.max(initial=0.0)
    if not top < 2.0 ** (1023 - s):
        return terms.tolist()
    partials = []
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + s)
        q = terms + sigma
        q -= sigma
        partials.append(float(q.sum()))
        terms -= q
        top = np.abs(terms, out=q).max()
    return partials
