"""Seeded randomness and calibrated Laplace noise policies.

Reproducibility scheme: every consumer of randomness derives a child
RngStream by extending an integer path under a single master seed
(Philox keyed through SeedSequence spawn keys). Identical (master_seed,
path) always replays the same draws, so results cannot depend on worker
count or scheduling. Selectors derive one child per algorithm step and
draw the whole candidate noise vector from it in ascending candidate
order; Laplace variates come from the inverse CDF, exactly one uniform
per draw, which keeps the stream layout deterministic.

A block of streams skips the per-stream objects: `philox_keys` derives
the keys of all of them in one vectorized pass of SeedSequence's hash,
and a `KeyedGenerator` re-keys one Philox to each key in turn, counter
reset, so every stream draws exactly what its RngStream draws. The sweep
engine keys its trials' data streams this way, and selectors._StepDraws,
which owns the draw layout of a block of runs (how the runs at different
etas share each (trial, step) stream), keys every step stream of a
selector call at once.
"""

from __future__ import annotations

import functools
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
        return laplace_of_uniform(self.generator.random(size))

    def laplace(self, scale: float, size=None):
        """Laplace(scale) draws; scale 0 is the exact zero-noise test hook."""
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


# ---------------------------------------------------------------------------
# batched stream keys: numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
# evaluated on uint32 arrays, which wrap silently where a uint32 scalar warns

_U32 = np.uint32
_XSHIFT = _U32(16)
_MIX_MULT_L, _MIX_MULT_R = _U32(0xCA01F9DD), _U32(0x4973F715)


def _hash_steps(init: int, mult: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of `count` consecutive hash steps from step `first`,
    as (count / 4, 4, 1) arrays: step k xors in init * mult**k and
    multiplies by init * mult**(k + 1), mod 2**32, as the hash constant
    advances by one multiply per step. Read-only, as they are cached."""
    const = np.array([init * pow(mult, k, 2 ** 32) % 2 ** 32
                      for k in range(first, first + count + 1)], dtype=_U32)
    const.setflags(write=False)
    return const[:-1].reshape(-1, 4, 1), const[1:].reshape(-1, 4, 1)


@functools.lru_cache(maxsize=None)
def _path_steps(length: int) -> tuple[np.ndarray, np.ndarray]:
    # mix_entropy's hashmix fills the 4-word pool from the seed in steps
    # 0-3 and cross-mixes it in steps 4-15; path word j is hashed into
    # each pool word in steps 16 + 4j .. 19 + 4j
    return _hash_steps(0x43B0D7E5, 0x931E8875, 16, 4 * length)


_STATE_STEPS = tuple(c[0] for c in _hash_steps(0x8B51F9DD, 0x58F38DED, 0, 4))  # generate_state's


@functools.lru_cache(maxsize=1024)
def _seed_pool(master_seed: int) -> np.ndarray:
    """The SeedSequence pool after the seed, before any path word. A spawn
    key pads the seed's words with zeros to the pool size, which hashes as
    the pool words past the seed do, so this pool is the same."""
    pool = np.random.SeedSequence(master_seed).pool
    pool.setflags(write=False)  # cached and shared
    return pool


def philox_keys(master_seeds, paths) -> np.ndarray:
    """The Philox keys of the streams (master_seeds[i], paths[i]), as an
    (N, 2) uint64 array: row i is
    SeedSequence(master_seeds[i], spawn_key=paths[i]).generate_state(2, np.uint64),
    the key of RngStream(master_seeds[i], paths[i]).

    paths is an (N, L) array of path words. The pool after each distinct
    seed comes from numpy's SeedSequence; all path words are hashed at
    once, then mixed into the (4, N) pools word by word, and the keys are
    read off the pools. numpy encodes a path entry of 2**32 or more as two
    words, so one raises ValueError.
    """
    seeds = np.asarray(master_seeds, dtype=np.uint64)
    words = np.asarray(paths, dtype=np.uint64)
    if seeds.ndim != 1 or words.ndim != 2 or len(words) != len(seeds):
        raise ValueError(f"need N seeds and an (N, L) path array, got shapes "
                         f"{seeds.shape} and {words.shape}")
    if words.size and words.max() >= 2 ** 32:
        raise ValueError(f"path entries must be below 2**32, got {int(words.max())}")
    seed_list = seeds.tolist()
    at = {seed: i for i, seed in enumerate(dict.fromkeys(seed_list))}
    pool = np.array([_seed_pool(seed) for seed in at], dtype=_U32).reshape(-1, 4).T
    pool = pool[:, [at[seed] for seed in seed_list]]  # (4, N)
    xor, mult = _path_steps(words.shape[1])
    hashed = (words.T.astype(_U32)[:, None, :] ^ xor) * mult  # (L, 4, N)
    hashed ^= hashed >> _XSHIFT
    hashed *= _MIX_MULT_R
    for word in hashed:
        pool = pool * _MIX_MULT_L - word
        pool ^= pool >> _XSHIFT
    xor, mult = _STATE_STEPS
    state = (pool ^ xor) * mult
    state ^= state >> _XSHIFT
    # generate_state's uint64 words: each pair of uint32 words, little-endian
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class KeyedGenerator:
    """One Generator over one Philox, re-keyed per stream: start(key) resets
    it to the start of the stream with that philox_keys key, counter 0 and
    buffer empty, so it draws what a fresh Philox with that key draws. The
    generator start returns is valid until its next call."""

    def __init__(self):
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state  # a fresh Philox's counter and buffer

    def start(self, key) -> np.random.Generator:
        self._state["state"]["key"] = key
        self._bitgen.state = self._state
        return self._gen


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
    return _finite(8.0 * math.sqrt(math.log(4.0 * X.d) - math.log(policy.delta))
                   * policy.sigma * base, policy)


def scale_screening(X: DesignMatrix, policy: NoisePolicy) -> float:
    """Per-draw Laplace scale for noisy correlation screening rounds."""
    base = X.l2inf_norm / (X.n * policy.eta_step)
    return _finite(4.0 * math.sqrt(math.log(2.0 * X.d) - math.log(policy.delta))
                   * policy.sigma * base, policy)


def scale_forward_stepwise(d: int, k: int, policy: NoisePolicy) -> float:
    """Per-draw Laplace scale for noisy forward stepwise.

    The statistic is already residual-normalized, so no 1/n factor; the
    union bound runs over ordered candidate sequences, hence the descending
    factorial, evaluated in log space because (d)_k overflows quickly.
    """
    if not (1 <= k <= d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    log_arg = math.log(2.0) + log_descending_factorial(d, k) - math.log(policy.delta)
    return _finite(4.0 * math.sqrt(log_arg) * policy.sigma / policy.eta_step, policy)


def _finite(scale: float, policy: NoisePolicy) -> float:
    """scale, checked: a tiny eta_step can overflow it to inf, which would
    drown every score and leave the lowest columns to win."""
    if not math.isfinite(scale):
        raise ValueError(f"the Laplace scale overflows at eta_step={policy.eta_step!r}; "
                         f"raise eta_step")
    return scale


def log_descending_factorial(d: int, k: int) -> float:
    """log (d)_k = log(d (d-1) ... (d-k+1))."""
    if not (0 <= k <= d):
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    return sum(math.log(d - i) for i in range(k))
