"""Seedable Monte Carlo oracle for deployments, fading, and coverage.

Randomness contract
-------------------
All estimators draw from counter-based Philox streams keyed by
(seed, block index), with trials processed in fixed-size blocks of
``BLOCK_TRIALS``.  Blocks are statistically independent and the mapping
from trial index to block is fixed, so results are bit-reproducible for
a given (seed, trials, scenario) no matter how blocks are scheduled
across threads or processes.  Accumulation is an integer success count
and therefore order-independent.  No wall-clock seeding anywhere.

Within a block the draw order is fixed and documented per estimator
(positions first, then fading gains).  Fading gains use NumPy's exact
Gamma rejection sampler, not an approximation.  Coverage gains are drawn
from the state the positions left, so scenarios that share geometry, N,
trials and seed share their positions and each m keeps its own gain
stream: simulate_coverage counts such a group from one set of draws.
A block is drawn and computed in as few row chunks as hold at most
CHUNK_LINKS links each (and at least one row), all of about one size: no
chunk is a short tail.  A Philox double takes one 64-bit word and the
Gamma sampler draws one element at a time, so chunked calls draw the
stream of one call; each row keeps its length and summation order, so
every count and SIR has the bits of a block drawn whole.  A block holds 8
bytes per link per alpha for its path gains; the rest is one chunk of
temporaries, about 1.5 MB.

What is reproducible is the draw streams and every count computed from
them, not the bits of intermediate distances.  No estimator builds
Cartesian coordinates: a node's uniform draws (rho, v, w) place it at
radius R sqrt(rho), angle 2 pi v and height H w, and one kernel forms the
squared distance between two nodes in polar form, with one sine per link,

    d^2 = R^2 [(sqrt(rho_i) - sqrt(rho_0))^2
               + 4 sqrt(rho_i) sqrt(rho_0) sin^2(pi (v_i - v_0))]
          + H^2 (w_i - w_0)^2,

which is within a few 1e-16 d_max^2 of the Cartesian value.  Coverage
trials and the pair-distance histogram both measure through it; the
histogram counts each block of pairs as it is drawn, so it never holds
more than one block of distances.

SIR does not depend on the unit of length, so the coverage simulator
measures its SIR distances in the unit the distance laws are formed in
(``distance._length_unit``): 2^e, the smallest power of two above d_max,
e from frexp(d_max).  Whether d^-alpha stays in the float range does not
depend on the cylinder's scale.  Scaling by a power of two is exact, so a
cylinder scaled by 2^j forms the same SIR bits and counts the same trials
as at j = 0.  The histogram's distances keep the caller's unit.

The typical receiver is node index 0 of each deployment; exchangeability
of the i.i.d. deployment makes this without loss of generality.
"""

import math
from dataclasses import dataclass
from typing import Any, Union

import numpy as np
from numpy.random import Generator, Philox

from .distance import _MAX_ARRAY, _length_unit
from .errors import DomainError
from .geometry import CylinderGeometry
from .network import NetworkScenario

BLOCK_TRIALS = 4096
CHUNK_LINKS = 1 << 15  # links per row chunk of a coverage block


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


def _check_count(name: str, value, least: int = 1) -> None:
    """Trials, pairs and bins: an integer, not a bool, of at least least."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise DomainError(f"{name}={value!r} must be an integer >= {least}")


def _blocks(trials: int):
    """(index, size) of each block of BLOCK_TRIALS trials, the last one partial."""
    for index, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        yield index, min(BLOCK_TRIALS, trials - start)


def _binomial_estimate(successes, trials: int):
    """Success share and its 95% half-width: normal, but the Wilson reach z^2 / (n + z^2) at 0 or 1."""
    p = successes / trials
    half = 1.96 * np.sqrt(p * (1.0 - p) / trials)
    return p, np.where((p == 0.0) | (p == 1.0), 1.96**2 / (trials + 1.96**2), half)


def _pair_distance_blocks(geom: CylinderGeometry, pairs: int, seed: int):
    """The distances of the pairs, a block of BLOCK_TRIALS of them at a time, in order."""
    for index, size in _blocks(pairs):
        u = substream(seed, index).random((2 * size, 3))
        yield np.sqrt(_link_distances_squared(u[:size], u[size:, None], geom)[:, 0])


def empirical_distance_histogram(
    geom: CylinderGeometry, pairs: int, bins: int, seed: int
) -> SimulationEstimate:
    """Normalized pair-distance histogram over [0, d_max].

    mean holds the per-bin densities (masses sum to 1 exactly up to float
    addition); ci_half_width holds per-bin binomial half-widths on the
    density scale.  Bin edges are equally spaced, reconstructible from
    (geom, bins).  The pairs are counted a block at a time, never all held.
    """
    _check_count("pairs", pairs, 10_000)  # fewer is too few for a stable histogram
    _check_count("bins", bins)
    if bins >= _MAX_ARRAY:  # np.histogram holds bins + 1 edges
        raise DomainError(f"bins={bins!r}: its bin edges are past numpy's largest array")
    counts = 0
    for d in _pair_distance_blocks(geom, pairs, seed):
        found, edges = np.histogram(d, bins=bins, range=(0.0, geom.d_max))
        counts += found
    widths = np.diff(edges)
    p, ci = _binomial_estimate(counts, pairs)
    return SimulationEstimate(
        mean=p / widths, ci_half_width=ci / widths, trials=pairs, seed=seed, scenario=(geom, bins)
    )


def _link_distances_squared(
    receiver: np.ndarray, others: np.ndarray, geom: CylinderGeometry, unit: float = 1.0
) -> np.ndarray:
    """Squared distances from a receiver to other nodes, from their uniform draws.

    receiver has shape (trials, 3) and others (trials, k, 3); each row of
    three is one node's (rho, v, w).  Returns shape (trials, k), in the
    polar form of the module docstring, with R and H multiplied by unit
    before squaring, so that a huge cylinder's d^2 does not overflow.
    """
    R, H = geom.R * unit, geom.H * unit
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
    d2 *= R * R
    dz = others[..., 2] - receiver[:, 2, None]
    np.square(dz, out=dz)
    dz *= H * H
    d2 += dz
    return d2


def _coverage_block(rng: Generator, group: list, size: int, unit: float) -> list:
    """Covered-trial counts for one block, one per scenario of a group sharing geometry and N.

    Node 0 of each trial is the receiver, and distances are measured in
    lengths times unit.  Draw order: positions, then fading gains for all
    N - 1 links of each trial, each m from the state the positions left.
    Both passes run over the same row chunks (module docstring).
    """
    N = group[0].N
    count = -(-size // max(1, CHUNK_LINKS // (N - 1)))  # chunks of at most CHUNK_LINKS links
    rows = -(-size // count)  # per chunk; the last is short by fewer rows than count
    chunks = [slice(start, min(start + rows, size)) for start in range(0, size, rows)]
    d2 = np.empty((size, N - 1))
    for c in chunks:
        u = rng.random(((c.stop - c.start) * N, 3)).reshape(-1, N, 3)
        d2[c] = _link_distances_squared(u[:, 0], u[:, 1:], group[0].geom, unit)
    serving = np.argmin(d2, axis=1)
    after_positions = rng.bit_generator.state
    alphas = sorted({sc.channel.alpha for sc in group})
    # the last alpha's path gain goes in place, once the others have read d2
    path = {a: np.power(d2, -0.5 * a, out=d2 if a == alphas[-1] else None) for a in alphas}
    powers = np.empty((rows, N - 1))
    sir = {}
    for m in {sc.channel.m for sc in group}:
        rng.bit_generator.state = after_positions
        for c in chunks:
            gains = rng.gamma(m, 1.0 / m, (c.stop - c.start, N - 1))
            for alpha in {sc.channel.alpha for sc in group if sc.channel.m == m}:
                signal, interference = sir.setdefault((m, alpha), (np.empty(size), np.empty(size)))
                p = np.multiply(gains, path[alpha][c], out=powers[: len(gains)])
                signal[c] = p[np.arange(len(p)), serving[c]]
                interference[c] = p.sum(axis=1) - signal[c]
    counts = []
    for sc in group:
        signal, interference = sir[sc.channel.m, sc.channel.alpha]
        counts.append(int(np.count_nonzero((interference == 0.0) | (signal > sc.beta * interference))))
    return counts


def simulate_coverage(scenario, trials: int, seed: int) -> Union[SimulationEstimate, list]:
    """Empirical coverage probability over independent deployments.

    Each trial places N nodes, serves the receiver from its nearest node,
    sums faded interference from the other N - 2, and compares the SIR to
    beta.  Zero interference (N = 2) counts as covered.  The receiver is
    node 0 of each trial.  A sequence of scenarios sharing geometry and N
    gets one estimate per scenario, in order, each that of its own call.
    A block's N - 1 distances per trial past numpy's largest array raise
    DomainError before anything is drawn.
    """
    group = [scenario] if isinstance(scenario, NetworkScenario) else list(scenario)
    _check_count("trials", trials)
    if not group or any((sc.geom, sc.N) != (group[0].geom, group[0].N) for sc in group):
        raise DomainError("a scenario group must be non-empty and share one geometry and N")
    block = min(trials, BLOCK_TRIALS)
    if block * (group[0].N - 1) > _MAX_ARRAY:  # a block's distances, one array
        raise DomainError(f"N={group[0].N}: a block of {block} trials is past numpy's largest array")
    successes = np.zeros(len(group), dtype=np.int64)
    unit = _length_unit(group[0].geom)
    for index, size in _blocks(trials):
        successes += _coverage_block(substream(seed, index), group, size, unit)
    p, ci = _binomial_estimate(successes, trials)
    estimates = [SimulationEstimate(float(pi), float(c), trials, seed, sc) for sc, pi, c in zip(group, p, ci)]
    return estimates[0] if isinstance(scenario, NetworkScenario) else estimates
