"""Deterministic linear-model algebra on submodels.

Least squares restricted to a column subset, factored once per submodel and
serving estimates, projection-defined targets, and the standard errors that
interval construction multiplies by. A sweep block's designs are one
DesignStack, (trials, n, d), checked once; a DesignMatrix, the design of
the command line and of a one-run call, is a stack of one. Submodels of
one size are gathered from the stack by one indexing operation and
factored by one stacked SVD. The full-model noise estimates need no fit,
only the residual norms and the designs' singular values, and take both
from an R-only QR of each trial's [X y], factored in place by the LAPACK
call that numpy's qr makes. Nothing here draws randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .errors import DimensionMismatch, InsufficientSamples, RankDeficient, check_number

# Relative singular-value cutoff below which a submatrix counts as
# rank-deficient.
RANK_TOL = 1e-10


class DesignStack:
    """A sweep block's n x d designs with their checked norms: entries[b] is
    design b, col_norms[b] its column norms, l2inf[b] = max_i ||X_i||_2 and
    linf[b] = max |X_ij|, the two norms noise scales use."""

    def __init__(self, entries: np.ndarray, col_norms: np.ndarray, l2inf: np.ndarray,
                 linf: np.ndarray):
        self.entries, self.col_norms, self.l2inf, self.linf = entries, col_norms, l2inf, linf
        _, self.n, self.d = entries.shape

    @classmethod
    def checked(cls, entries: np.ndarray) -> DesignStack:
        """The float64 designs entries (trials, n, d) with their norms, checked
        at once: ValueError unless each is finite, with a nonzero entry and a
        finite, nonzero largest column norm."""
        # max and min propagate NaN, so both are finite iff every entry is;
        # neither reduction allocates a temporary of the stack's size
        hi, lo = entries.max(axis=(1, 2)), entries.min(axis=(1, 2))
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise ValueError("design entries must be finite")
        if ((hi == 0.0) & (lo == 0.0)).any():
            raise ValueError("design has no nonzero entry")
        # an overflowing or underflowing norm is rejected below, not warned
        # about. np.linalg.norm's bits without its squared copy of the stack:
        # over two or more columns, both sum each column's squares in row
        # order; a single column numpy sums pairwise, so it keeps that one
        with np.errstate(over="ignore", under="ignore"):
            col_norms = (np.sqrt(np.einsum("rij,rij->rj", entries, entries))
                         if entries.shape[2] > 1 else np.linalg.norm(entries, axis=1))
        l2inf = col_norms.max(axis=1)
        # finite entries can still overflow or underflow a column norm
        bad = ~((0.0 < l2inf) & (l2inf < math.inf))
        if bad.any():
            raise ValueError(f"largest design column norm is {l2inf[bad][0].item()}; "
                             f"rescale the design")
        return cls(entries, col_norms, l2inf, np.maximum(hi, -lo))

    def broadcast(self, trials: int) -> DesignStack:
        """This stack of one as trials views of its design."""
        return DesignStack(*(np.broadcast_to(a, (trials, *a.shape[1:])) for a in
                             (self.entries, self.col_norms, self.l2inf, self.linf)))


class DesignMatrix:
    """Fixed n x d design of the command line and of a one-run call, checked
    as a stack of one; stack is that DesignStack (views), with the design's
    norms. A read-only, C-contiguous float64 array (cli.read_matrix's) is
    adopted as is, with no copy; any other entries are copied, cast to
    float64 and frozen, so a writable array stays the caller's."""

    def __init__(self, entries):
        adopt = (type(entries) is np.ndarray and entries.dtype == np.float64
                 and entries.flags.c_contiguous and not entries.flags.writeable)
        a = entries if adopt else np.array(entries, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise DimensionMismatch(f"design must be 2-D, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionMismatch(f"design must be at least 1x1, got {a.shape}")
        a.setflags(write=False)
        self.stack = DesignStack.checked(a[None])
        self.entries = a
        self.n, self.d = a.shape


@dataclass(frozen=True)
class ModelSet:
    """Strictly increasing tuple of selected feature indices; may be empty."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(self.indices)
        if not all(type(i) is int for i in idx):  # numpy integers pass; 2.0 and True do not
            for i in idx:
                check_number("feature index", i, integer=True)
            idx = tuple(int(i) for i in idx)
        if any(i < 0 for i in idx):
            raise ValueError(f"negative feature index in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_unordered(cls, indices) -> "ModelSet":
        return cls(tuple(sorted(set(indices))))

    def __len__(self):
        return len(self.indices)

    def columns(self, d: int) -> np.ndarray:
        """The indices as an array; DimensionMismatch if one is not below d."""
        if self.indices and self.indices[-1] >= d:
            raise DimensionMismatch(f"model index {self.indices[-1]} out of range for d={d}")
        return np.array(self.indices, dtype=np.int64)

    def __iter__(self):
        return iter(self.indices)


def as_response(y, n: int) -> np.ndarray:
    """y as a float64 vector, checked to be 1-D, of length n and finite.

    Raises DimensionMismatch for a wrong shape or length and ValueError for
    a NaN or infinite entry.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise DimensionMismatch(f"response must be a vector of length n={n}, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("response entries must be finite")
    return y


def _rank_error(M: tuple[int, ...], n: int, s: np.ndarray) -> RankDeficient:
    """The RankDeficient error of the columns M of a matrix of n rows with
    descending singular values s: it has more columns than rows, or its
    smallest singular value is at most RANK_TOL times its largest, as a
    zero matrix's is."""
    if len(M) > n:
        return RankDeficient(f"columns {M}: {len(M)} columns on {n} rows")
    return RankDeficient(f"columns {M}: singular value ratio "
                         f"{0.0 if s[0] == 0 else s[-1] / s[0]:.3e} below {RANK_TOL:.1e}")


class SubmodelFits:
    """Least squares on the columns cols[p] of the design X[trial[p]] of the
    stack X (trials, n, d), for a stack of pairs p of one model size (cols
    has one row per pair), all factored by one stacked thin SVD.

    The factorization serves the coefficients X_M^+ v for a stack of
    responses (the data y, or the mean mu for projection targets) and the
    standard errors. Each pair gets exactly what a stack of one gives it.
    A pair with more columns than rows, or whose smallest singular value
    falls below RANK_TOL relative to its largest, is rank-deficient:
    errors maps it to its RankDeficient, and its other results are
    meaningless. The empty model has no columns to factor.
    """

    def __init__(self, X: np.ndarray, trial: np.ndarray, cols: np.ndarray):
        n = X.shape[1]
        count, size = cols.shape
        self.trial, self.cols = trial, cols
        self.errors: dict[int, RankDeficient] = {}
        if size == 0:
            self._U, self._s, self._V = np.zeros((count, n, 0)), np.zeros((count, 0)), \
                np.zeros((count, 0, 0))
            return
        # the SVD copies each submatrix, so this view's strides do not matter
        sub = X[trial[:, None], :, cols].transpose(0, 2, 1)
        U, s, Vt = np.linalg.svd(sub, full_matrices=False)
        # a thin SVD of more columns than rows has only n singular values
        deficient = s[:, -1] <= RANK_TOL * s[:, 0] if size <= n else np.ones(count, dtype=bool)
        if deficient.any():  # so is a zero matrix: all its s are 0
            self.errors = {p: _rank_error(tuple(cols[p].tolist()), n, s[p])
                           for p in np.flatnonzero(deficient).tolist()}
            s = np.where(deficient[:, None], 1.0, s)  # divide by 1, not a vanishing value
        self._U, self._s, self._V = U, s, Vt.transpose(0, 2, 1)

    def coefficients(self, V: np.ndarray) -> np.ndarray:
        """Row p is the |M|-vector (X_M^T X_M)^{-1} X_M^T V[p] of pair p;
        V is a stack of responses of length n."""
        Ut_v = np.matmul(self._U.transpose(0, 2, 1), V[:, :, None])[:, :, 0]
        return np.matmul(self._V, (Ut_v / self._s)[:, :, None])[:, :, 0]

    def stderrs(self) -> np.ndarray:
        """Row p is sqrt(diag((X_M^T X_M)^{-1})) of pair p: its standard
        errors at noise scale 1."""
        # diag of (X^T X)^{-1} = rowwise sum of (V / s)^2
        return np.sqrt(np.add.reduce((self._V / self._s[:, None, :]) ** 2, axis=2))


class SubmodelFit:
    """Least squares on the columns M of X, factored once: a stack of one
    SubmodelFits (fits, if already factored). Raises DimensionMismatch for
    an index out of range, RankDeficient for collinear or too many columns."""

    def __init__(self, X: DesignMatrix, M: ModelSet, fits: SubmodelFits | None = None):
        self._fits = fits or SubmodelFits(X.stack.entries, np.zeros(1, dtype=np.int64),
                                          M.columns(X.d)[None])
        if self._fits.errors:
            raise self._fits.errors[0]
        self.model = M
        self.n = X.n

    def coefficients(self, v) -> np.ndarray:
        """The |M|-vector (X_M^T X_M)^{-1} X_M^T v."""
        return self._fits.coefficients(as_response(v, self.n)[None])[0]

    def stderrs(self, sigma: float) -> np.ndarray:
        """Per-coefficient sigma * sqrt(diag((X_M^T X_M)^{-1}))."""
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        return sigma * self._fits.stderrs()[0]


def ols_fit(X: DesignMatrix, M: ModelSet, y) -> np.ndarray:
    """Least-squares coefficients of y on the columns of X indexed by M;
    empty M gives an empty vector."""
    return SubmodelFit(X, M).coefficients(y)


def target_coefficients(X: DesignMatrix, M: ModelSet, mu) -> np.ndarray:
    """Projection-defined targets X_M^+ mu for the submodel M; the same
    code path as ols_fit, so the two agree exactly when mu = y."""
    return SubmodelFit(X, M).coefficients(mu)


def stderr_known_sigma(X: DesignMatrix, M: ModelSet, sigma: float) -> np.ndarray:
    """Per-coefficient standard errors sigma * sqrt(diag((X_M^T X_M)^{-1}))."""
    return SubmodelFit(X, M).stderrs(sigma)


def sigma_hat_full_model(X: np.ndarray, Y: np.ndarray,
                         ) -> tuple[np.ndarray, int, dict[int, RankDeficient]]:
    """Full-model residual noise estimates (sigma_hat, dof = n - d, errors)
    of the designs X (trials, n, d) and finite responses Y, by an R-only
    Householder QR of each trial's [X y]: a trial's last diagonal entry
    R[d, d] is the norm of y's residual off the span of X, so RSS =
    R[d, d]**2, and the singular values of R[:d, :d] are X's. errors maps a
    trial where they fail SubmodelFits' rank rule to its RankDeficient (its
    sigma_hat is meaningless). Raises InsufficientSamples unless n > d.

    R is numpy's qr's bit for bit: the same LAPACK dgeqrf, reached through
    numpy's own binding (scipy's links another LAPACK, whose R differs in
    the last bits), on one buffer that holds the stack [X y] once, where qr
    takes two more copies.
    """
    trials, n, d = X.shape
    if n <= d:
        raise InsufficientSamples(f"need n > d for the full-model estimate, got n={n}, d={d}")
    # A[b] is trial b's [X y] stored column-major, factored in place with
    # the workspace size qr uses: a smaller one takes dgeqrf's unblocked
    # path, which rounds otherwise
    A = np.empty((trials, d + 1, n))
    A[:, :d] = X.transpose(0, 2, 1)
    A[:, d] = Y
    tau, size = np.empty(d + 1), np.empty(1)
    lapack_lite.dgeqrf(n, d + 1, A, n, tau, size, -1, 0)  # lwork -1: writes the size
    work = np.empty(max(1, d + 1, int(size[0])))
    for a in A:
        info = lapack_lite.dgeqrf(n, d + 1, a, n, tau, work, len(work), 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")
    R = np.triu(A[:, :, :d + 1].transpose(0, 2, 1))
    s = np.linalg.svd(R[:, :d, :d], compute_uv=False)
    errors = {b: _rank_error(tuple(range(d)), n, s[b])
              for b in np.flatnonzero(s[:, -1] <= RANK_TOL * s[:, 0]).tolist()}
    return np.sqrt(R[:, d, d] ** 2 / (n - d)), n - d, errors
