"""Seedable Monte Carlo oracle for deployments, fading, and coverage.

Randomness contract
-------------------
All estimators draw from counter-based Philox streams keyed by
(seed, block index), with trials processed in fixed-size blocks of
``BLOCK_TRIALS``; the Poisson-field estimator shrinks its blocks so that
one holds at most about ``PPP_BLOCK_POINTS`` expected field points.
Blocks are statistically independent and the mapping from trial index to
block is fixed, so results are bit-reproducible for a given (seed,
trials, scenario) no matter how blocks are scheduled across threads or
processes.  Accumulation is an integer success count and
therefore order-independent.  No wall-clock seeding anywhere.

Within a block the draw order is fixed and documented per estimator
(positions first, then any receiver index, then fading gains).  Fading
gains use NumPy's exact Gamma rejection sampler, not an approximation.

What is reproducible is the draw streams and every count computed from
them, not the bits of intermediate distances.  The coverage kernel never
builds Cartesian coordinates: from the uniform draws (rho, v, w) of a node
and of the receiver (index 0) it forms the squared link distance in polar
form, with one sine per link,

    d^2 = R^2 [(sqrt(rho_i) - sqrt(rho_0))^2
               + 4 sqrt(rho_i) sqrt(rho_0) sin^2(pi (v_i - v_0))]
          + H^2 (w_i - w_0)^2,

which is within a few 1e-16 d_max^2 of the Cartesian value.
sample_pair_distances keeps the Cartesian path through x, y and z.

The typical receiver is node index 0 of each deployment; exchangeability
of the i.i.d. deployment makes this without loss of generality, and
``simulate_coverage(receiver="random")`` exists to validate exactly that.
"""

import math
from dataclasses import dataclass
from typing import Any, Union

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError
from .geometry import CylinderGeometry
from .network import NetworkScenario
from .ppp import PppModel

BLOCK_TRIALS = 4096
# Expected field points per block of simulate_ppp_coverage: its arrays take
# about 100 bytes per point, so a block stays near 0.4 GB however dense the
# truncated field is.
PPP_BLOCK_POINTS = 2**22


@dataclass(frozen=True)
class SimulationEstimate:
    """Monte Carlo estimate with a 95% confidence half-width.

    mean and ci_half_width are scalars for probability estimates and
    per-bin vectors for histogram estimates.
    """

    mean: Union[float, np.ndarray]
    ci_half_width: Union[float, np.ndarray]
    trials: int
    seed: int
    scenario: Any


def substream(seed: int, index: int) -> Generator:
    """Independent counter-based stream for one block of work.

    Every estimator draws through here, so the seed is checked here: an
    integer in [0, 2^64), one Philox key word.  The key goes in as uint64,
    since through float64 a seed past 2^63 would lose its low bits.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise DomainError(f"seed={seed!r} must be an integer in [0, 2**64)")
    return Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))


def _blocks(trials: int, block: int = BLOCK_TRIALS):
    done = 0
    index = 0
    while done < trials:
        size = min(block, trials - done)
        yield index, size
        done += size
        index += 1


def _sample_coordinates(rng: Generator, geom: CylinderGeometry, n: int):
    """x, y and z of n i.i.d. volume-uniform points, from one (n, 3) uniform draw."""
    u = rng.random((n, 3))
    r = geom.R * np.sqrt(u[:, 0])
    phi = 2.0 * math.pi * u[:, 1]
    return r * np.cos(phi), r * np.sin(phi), geom.H * u[:, 2]


def _binomial_estimate(successes, trials: int):
    """Success share and its 95% normal-approximation half-width; successes may be an array."""
    p = successes / trials
    return p, 1.96 * np.sqrt(p * (1.0 - p) / trials)


def _distance(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Euclidean length, summed in the order of np.linalg.norm over the last axis."""
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def sample_pair_distances(geom: CylinderGeometry, pairs: int, seed: int) -> np.ndarray:
    """Distances of i.i.d. uniform point pairs, for empirical CDF work."""
    if pairs < 1:
        raise DomainError("pairs must be positive")
    out = np.empty(pairs)
    for index, size in _blocks(pairs):
        rng = substream(seed, index)
        x, y, z = _sample_coordinates(rng, geom, 2 * size)
        d = _distance(x[:size] - x[size:], y[:size] - y[size:], z[:size] - z[size:])
        out[index * BLOCK_TRIALS : index * BLOCK_TRIALS + size] = d
    return out


def empirical_distance_histogram(
    geom: CylinderGeometry, pairs: int, bins: int, seed: int
) -> SimulationEstimate:
    """Normalized pair-distance histogram over [0, d_max].

    mean holds the per-bin densities (masses sum to 1 exactly up to float
    addition); ci_half_width holds per-bin binomial half-widths on the
    density scale.  Bin edges are equally spaced, reconstructible from
    (geom, bins).
    """
    if pairs < 10_000:
        raise DomainError(f"pairs={pairs} too few for a stable histogram (need >= 10^4)")
    if bins < 1:
        raise DomainError("bins must be positive")
    d = sample_pair_distances(geom, pairs, seed)
    counts, edges = np.histogram(d, bins=bins, range=(0.0, geom.d_max))
    widths = np.diff(edges)
    p, ci = _binomial_estimate(counts, pairs)
    return SimulationEstimate(
        mean=p / widths, ci_half_width=ci / widths, trials=pairs, seed=seed, scenario=(geom, bins)
    )


def _link_distances_squared(
    receiver: np.ndarray, others: np.ndarray, geom: CylinderGeometry
) -> np.ndarray:
    """Squared distances from a receiver to other nodes, from their uniform draws.

    receiver has shape (trials, 3) and others (trials, k, 3); each row of
    three is one node's (rho, v, w), which _sample_coordinates places at
    radius R sqrt(rho), angle 2 pi v and height H w.  Returns shape
    (trials, k), in the polar form of the module docstring.
    """
    r0 = np.sqrt(receiver[:, 0])[:, None]
    ri = np.sqrt(others[..., 0])
    d2 = ri - r0
    np.square(d2, out=d2)
    s = others[..., 1] - receiver[:, 1, None]
    s *= math.pi
    np.sin(s, out=s)
    np.square(s, out=s)
    ri *= r0
    ri *= 4.0
    s *= ri
    d2 += s
    d2 *= geom.R * geom.R
    dz = others[..., 2] - receiver[:, 2, None]
    np.square(dz, out=dz)
    dz *= geom.H * geom.H
    d2 += dz
    return d2


def _coverage_block(
    rng: Generator, scenario: NetworkScenario, size: int, receiver: str
) -> int:
    """Covered-trial count for one block.

    Draw order: positions, then (random mode only) receiver indices,
    then fading gains for all N - 1 links of each trial.
    """
    N = scenario.N
    u = rng.random((size * N, 3)).reshape(size, N, 3)
    rows = np.arange(size)
    if receiver == "first":
        rec = u[:, 0]
    else:
        ridx = rng.integers(0, N, size)
        rec = u[rows, ridx]
        # Move the receiver out of the transmitter set by swapping it into
        # slot 0 and dropping that slot.
        u[rows, ridx] = u[:, 0]
    d2 = _link_distances_squared(rec, u[:, 1:], scenario.geom)
    m = scenario.channel.m
    powers = rng.gamma(m, 1.0 / m, (size, N - 1))
    serving = np.argmin(d2, axis=1)
    np.power(d2, -0.5 * scenario.channel.alpha, out=d2)
    powers *= d2
    signal = powers[rows, serving]
    interference = powers.sum(axis=1) - signal
    covered = (interference == 0.0) | (signal > scenario.beta * interference)
    return int(np.count_nonzero(covered))


def simulate_coverage(
    scenario: NetworkScenario, trials: int, seed: int, receiver: str = "first"
) -> SimulationEstimate:
    """Empirical coverage probability over independent deployments.

    Each trial places N nodes, serves the receiver from its nearest node,
    sums faded interference from the other N - 2, and compares the SIR to
    beta.  Zero interference (N = 2) counts as covered.  receiver is
    "first" (node 0, the default and the documented convention) or
    "random" (per-trial uniform index, for exchangeability checks).
    """
    if trials < 1:
        raise DomainError("trials must be positive")
    if receiver not in ("first", "random"):
        raise DomainError(f"receiver={receiver!r} must be 'first' or 'random'")
    successes = 0
    for index, size in _blocks(trials):
        successes += _coverage_block(substream(seed, index), scenario, size, receiver)
    p, ci = _binomial_estimate(successes, trials)
    return SimulationEstimate(
        mean=p, ci_half_width=float(ci), trials=trials, seed=seed, scenario=scenario
    )


def simulate_ppp_coverage(
    model: PppModel,
    geom: CylinderGeometry,
    trials: int,
    seed: int,
    padding: float = 2.0,
) -> SimulationEstimate:
    """Monte Carlo coverage in a truncated homogeneous Poisson field.

    Points fall as a Poisson process of intensity model.lam inside a
    cylinder of radius M and half-height M centered on the receiver,
    where M = padding * geom.d_max, so the region engulfs the ball of
    radius M around the receiver.  Padding large enough that further
    growth moves the estimate by < 0.002 stands in for the infinite
    field; how large that is depends strongly on the path-loss exponent
    (the far-field truncation error decays like M^(3 - alpha)), and for
    alpha <= 3 no finite padding achieves it: the infinite-field
    interference diverges and the estimate keeps falling forever.

    Trials with an empty field count as not covered; a single point in
    the field has no interferer and counts as covered.  Blocks hold
    BLOCK_TRIALS trials, or fewer when their expected point count would
    pass PPP_BLOCK_POINTS.
    """
    if trials < 1:
        raise DomainError("trials must be positive")
    if padding <= 0.0:
        raise DomainError("padding must be positive")
    R = padding * geom.d_max
    half_h = padding * geom.d_max
    volume = math.pi * R * R * (2.0 * half_h)
    lam_v = model.lam * volume
    alpha = model.channel.alpha
    m = model.channel.m
    beta = model.beta
    block = max(1, int(min(BLOCK_TRIALS, PPP_BLOCK_POINTS // lam_v)))
    successes = 0
    for index, size in _blocks(trials, block):
        rng = substream(seed, index)
        counts = rng.poisson(lam_v, size)
        total = int(counts.sum())
        if total == 0:
            continue
        u = rng.random((total, 3))
        r = R * np.sqrt(u[:, 0])
        z = half_h * (2.0 * u[:, 2] - 1.0)
        d = np.sqrt(r * r + z * z)
        gains = rng.gamma(m, 1.0 / m, total)
        powers = gains * d ** (-alpha)
        owner_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        nonempty = counts > 0
        starts = owner_starts[nonempty]
        # Segmented nearest point: sort by (owner, distance), take segment heads.
        owner = np.repeat(np.arange(size), counts)
        order = np.lexsort((d, owner))
        serving_idx = order[np.searchsorted(owner[order], np.arange(size)[nonempty])]
        signal = powers[serving_idx]
        sums = np.add.reduceat(powers, starts)
        interference = sums - signal
        covered = (interference == 0.0) | (signal > beta * interference)
        successes += int(np.count_nonzero(covered))
    p, ci = _binomial_estimate(successes, trials)
    return SimulationEstimate(
        mean=p, ci_half_width=float(ci), trials=trials, seed=seed, scenario=model
    )
