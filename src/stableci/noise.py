"""Seeded randomness and calibrated Laplace noise scales.

Reproducibility scheme: every consumer of randomness draws from a stream
named by a master seed and an integer path, and the name is a Philox key
and counter (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC 2011): stream (seed, path) runs under key (seed, path[0] + 1) from
counter (0, path[1] + 1, path[2] + 1, path[3] + 1), an absent word being
0, so (3,) and (3, 0) differ. A path has at most 4 words, each below
2**64 - 1, and draws advance the low counter word alone, so no two
streams share a Philox block. Identical (master_seed, path) always
replays the same draws, so results cannot depend on worker count or
scheduling. Selectors draw one stream per algorithm step, the whole
candidate noise vector in ascending candidate order; Laplace variates
come from the inverse CDF, exactly one uniform per draw, which keeps the
stream layout deterministic.

A Philox is put at a stream's name one way, by KeyedGenerator.start,
which sets its key and counter. The sweep engine, the selectors and the
shared design build no object per stream: `keyed.start(master_seed,
path)` moves the process's one Philox to the stream. An RngStream starts
a KeyedGenerator of its own on its first draw.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_number
from .linmodel import DesignStack

_HALF_OPEN = float(np.nextafter(0.5, 0.0))  # largest double < 0.5

# the version of this naming of streams, written with every output; layout
# 1 derived each Philox key from a hash of the seed and path
STREAM_LAYOUT = 2


def stream_name(master_seed: int, path: tuple[int, ...],
                ) -> tuple[tuple[int, int], tuple[int, int, int, int]]:
    """The Philox (key, counter) of stream (master_seed, path), checked."""
    if not 0 <= master_seed < 2 ** 64:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
    if len(path) > 4 or path and not 0 <= min(path) <= max(path) < 2 ** 64 - 1:
        raise ValueError(f"a path has at most 4 entries, each in [0, 2**64 - 1), got {path}")
    w = (*path, -1, -1, -1, -1)  # an absent word is named 0
    return (master_seed, w[0] + 1), (0, w[1] + 1, w[2] + 1, w[3] + 1)


class RngStream:
    """A named, replayable random stream: (master_seed, integer path)."""

    def __init__(self, master_seed: int, path: tuple[int, ...] = ()):
        check_number("master_seed", master_seed, integer=True)
        for i in path:
            check_number("path entry", i, integer=True)
        self.master_seed = int(master_seed)
        self.path = tuple(int(i) for i in path)
        stream_name(self.master_seed, self.path)  # checks the range
        self._gen: np.random.Generator | None = None

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(indices))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = KeyedGenerator().start(self.master_seed, self.path)
        return self._gen

    def random(self, size=None):
        return self.generator.random(size)

    def standard_laplace(self, size=None):
        """Unit-scale Laplace via the inverse CDF, one uniform per draw."""
        return laplace_of_uniform(self.generator.random(size))

    def laplace(self, scale: float, size=None):
        """Laplace(scale) draws; scale 0 draws exact zeros."""
        if not (0 <= scale < math.inf):
            raise ValueError(f"scale must be finite and >= 0, got {scale}")
        return scale * self.standard_laplace(size)

    def normal(self, size=None):
        return self.generator.standard_normal(size)

    def __repr__(self):
        return f"RngStream(seed={self.master_seed}, path={self.path})"


def laplace_of_uniform(u: np.ndarray) -> np.ndarray:
    """Unit-scale Laplace draws from uniforms on [0, 1) by the inverse CDF,
    elementwise; u = 0.5 maps to +0.0."""
    u = u - 0.5
    au = np.minimum(np.abs(u), _HALF_OPEN)
    return -np.sign(u) * np.log1p(-2.0 * au)


class KeyedGenerator:
    """One Generator over one Philox, moved from stream to stream:
    start(master_seed, path) sets its key and counter to the stream's and
    empties its buffer. The generator start returns is valid until its
    next call."""

    def __init__(self):
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state  # a fresh Philox's empty buffer

    def start(self, master_seed: int, path: tuple[int, ...]) -> np.random.Generator:
        key, counter = stream_name(master_seed, path)
        self._state["state"] = {"counter": counter, "key": key}
        self._bitgen.state = self._state
        return self._gen


keyed = KeyedGenerator()  # the process's; a forked worker draws from its own copy


# ---------------------------------------------------------------------------
# Laplace scales

# Per-draw Laplace scales, one signature (selectors.Mechanism names the typical
# set each is calibrated to): scale(X, trial, k, c1, sigma, delta, eta_step) is
# run r's on X[trial[r]], for k rounds at radius c1[r] and per-step eta_step[r]
# (broadcast). Each is a power of two times typical_halfwidth times an array
# factor. An overflow raises, naming the first such run's eta_step.


def typical_halfwidth(log_2n: float, delta: float, sigma: float) -> float:
    """2 sigma sqrt(log(2N / delta)), the half-width of the typical set of
    N score directions at slack delta, taking log 2N (forward stepwise's
    N = (d)_k overflows a float)."""
    return 2.0 * math.sqrt(log_2n - math.log(delta)) * sigma


@np.errstate(over="ignore")  # an overflow is _finite's to report
def scale_lasso(X: DesignStack, trial, k, c1, sigma: float, delta: float,
                eta_step) -> np.ndarray:
    """The noisy Frank-Wolfe vertex scores' scales, where a radius of 0
    gets scale 0."""
    return _finite(4.0 * typical_halfwidth(math.log(4.0 * X.d), delta, sigma)
                   * (c1 * X.l2inf[trial] / (X.n * eta_step)), eta_step)


@np.errstate(over="ignore")  # an overflow is _finite's to report
def scale_screening(X: DesignStack, trial, k, c1, sigma: float, delta: float,
                    eta_step) -> np.ndarray:
    """The noisy correlation screening rounds' scales."""
    return _finite(2.0 * typical_halfwidth(math.log(2.0 * X.d), delta, sigma)
                   * (X.l2inf[trial] / (X.n * eta_step)), eta_step)


@np.errstate(over="ignore")  # an overflow is _finite's to report
def scale_forward_stepwise(X: DesignStack, trial, k: int, c1, sigma: float, delta: float,
                           eta_step) -> np.ndarray:
    """The noisy forward stepwise rounds' scales, which read only X's d."""
    log_2n = math.log(2.0) + log_descending_factorial(X.d, k)
    return _finite(2.0 * typical_halfwidth(log_2n, delta, sigma) / eta_step, eta_step)


def _finite(scale, eta_step):
    """scale, checked: a tiny eta_step can overflow it to inf, which would
    drown every score and leave the lowest columns to win. The error names
    the eta_step of the first run whose scale overflows."""
    if not math.isfinite(np.maximum.reduce(scale, axis=None, initial=0.0)):
        eta = np.broadcast_to(eta_step, np.shape(scale))[~np.isfinite(scale)][0].item()
        raise ValueError(f"the Laplace scale overflows at eta_step={eta!r}; raise eta_step")
    return scale


def log_descending_factorial(d: int, k: int) -> float:
    """log (d)_k = log(d (d-1) ... (d-k+1))."""
    if not (0 <= k <= d):
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    return sum(math.log(d - i) for i in range(k))
