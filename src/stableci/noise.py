"""Seeded randomness and calibrated Laplace noise policies.

Reproducibility scheme: every consumer of randomness derives a child
RngStream by extending an integer path under a single master seed
(Philox keyed through SeedSequence spawn keys). Identical (master_seed,
path) always replays the same draws, so results cannot depend on worker
count or scheduling. Selectors derive one child per algorithm step and
draw the whole candidate noise vector from it in ascending candidate
order; Laplace variates come from the inverse CDF, exactly one uniform
per draw, which keeps the stream layout deterministic.

selectors._step_draws owns the draw layout of a block of runs: how the
runs at different etas share each (trial, step) stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linmodel import DesignMatrix

_HALF_OPEN = float(np.nextafter(0.5, 0.0))  # largest double < 0.5


class RngStream:
    """A named, replayable random stream: (master_seed, integer path)."""

    def __init__(self, master_seed: int, path: tuple[int, ...] = ()):
        master_seed = int(master_seed)
        if not (0 <= master_seed < 2 ** 64):
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
        path = tuple(int(i) for i in path)
        if any(i < 0 for i in path):
            raise ValueError(f"path indices must be nonnegative, got {path}")
        self.master_seed = master_seed
        self.path = path
        self._gen: np.random.Generator | None = None

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(indices))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def random(self, size=None):
        return self.generator.random(size)

    def standard_laplace(self, size=None):
        """Unit-scale Laplace via the inverse CDF, one uniform per draw."""
        u = self.generator.random(size) - 0.5
        au = np.minimum(np.abs(u), _HALF_OPEN)
        return -np.sign(u) * np.log1p(-2.0 * au)

    def laplace(self, scale: float, size=None):
        """Laplace(scale) draws; scale 0 is the exact zero-noise test hook."""
        if not (0 <= scale < math.inf):
            raise ValueError(f"scale must be finite and >= 0, got {scale}")
        return scale * self.standard_laplace(size)

    def normal(self, size=None):
        return self.generator.standard_normal(size)

    def __repr__(self):
        return f"RngStream(seed={self.master_seed}, path={self.path})"


# ---------------------------------------------------------------------------
# noise policies


@dataclass(frozen=True)
class NoisePolicy:
    """Subgaussian noise scale sigma of y - mu plus the per-step stability
    knobs the scales divide by."""

    sigma: float
    delta: float
    eta_step: float

    def __post_init__(self):
        if not (0 < self.sigma < math.inf):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not (0 < self.eta_step < math.inf):
            raise ValueError(f"eta_step must be finite and positive, got {self.eta_step}")


def scale_lasso(c1: float, X: DesignMatrix, policy: NoisePolicy) -> float:
    """Per-draw Laplace scale for the noisy Frank-Wolfe vertex scores."""
    if not (c1 > 0):
        raise ValueError(f"c1 must be positive, got {c1}")
    base = c1 * X.l2inf_norm / (X.n * policy.eta_step)
    return 8.0 * math.sqrt(math.log(4.0 * X.d) - math.log(policy.delta)) * policy.sigma * base


def scale_screening(X: DesignMatrix, policy: NoisePolicy) -> float:
    """Per-draw Laplace scale for noisy correlation screening rounds."""
    base = X.l2inf_norm / (X.n * policy.eta_step)
    return 4.0 * math.sqrt(math.log(2.0 * X.d) - math.log(policy.delta)) * policy.sigma * base


def scale_forward_stepwise(d: int, k: int, policy: NoisePolicy) -> float:
    """Per-draw Laplace scale for noisy forward stepwise.

    The statistic is already residual-normalized, so no 1/n factor; the
    union bound runs over ordered candidate sequences, hence the descending
    factorial, evaluated in log space because (d)_k overflows quickly.
    """
    if not (1 <= k <= d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    log_arg = math.log(2.0) + log_descending_factorial(d, k) - math.log(policy.delta)
    return 4.0 * math.sqrt(log_arg) * policy.sigma / policy.eta_step


def log_descending_factorial(d: int, k: int) -> float:
    """log (d)_k = log(d (d-1) ... (d-k+1))."""
    if not (0 <= k <= d):
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    return sum(math.log(d - i) for i in range(k))
