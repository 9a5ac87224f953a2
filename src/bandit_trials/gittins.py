"""Gittins indices for the normal-reward bandit with known variance.

The index of an arm in state (mean ``x``, observation count ``n``, outcome
s.d. ``sigma``) decomposes as ``x + sigma * v(n)`` where ``v(n)`` is the
index of the standardized arm (mean 0, unit variance).  This module builds
the ``v(n)`` table by dynamic programming; ``policies`` evaluates indices
from it.

Construction solves the calibration problem: a single unknown arm (improper
flat prior, posterior N(z, 1/n) after n standardized observations) played
against a known arm paying ``lam`` per pull forever (value ``lam/(1-d)``
under discount ``d``).  ``v(n)`` is the ``lam`` at which continuing and
retiring are value-equal at state (0, n).

Writing V for the value of that stopping problem and W = V - lam/(1-d),

    W(z, m) = max(0, z - lam + d * E[W(z', m+1)]),   z' ~ N(z, 1/(m(m+1))),

so the substitution y = z - lam removes lam from the recursion:

    U(y, m) = max(0, y + d * E[U(y', m+1)]),         y' ~ N(y, 1/(m(m+1))).

A single backward sweep over counts m therefore yields, for every n at
once, the pre-max continuation curve c_n(y) = y + d*E[U(y', n+1)], and the
index is the root of c_n via bisection on lam (c_n(-lam) = 0).  This is
numerically identical to running the textbook per-lambda backward induction
to the same depth, at a small fraction of the cost.

The transition expectation integrates the piecewise-linear representation
of U against the exact Gaussian kernel (closed-form hat-function weights),
rather than sampling it at Gauss-Hermite nodes: the max() kink in U makes
node-sampled quadrature error oscillate at the 1e-3 level without
converging, while the piecewise-exact weights leave grid resolution as the
only error source.

Tables are immutable once built and safe to share across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import ndtr

__all__ = [
    "DpConfig",
    "GittinsTable",
    "GittinsTableError",
    "BracketError",
    "compute_index_table",
    "save_index_table",
    "load_index_table",
    "default_horizon",
]

# Discount weight below which the truncated tail of the program is ignored.
TAIL_WEIGHT = 1e-8


class GittinsTableError(ValueError):
    """Invalid table: construction or validation failed."""


class BracketError(GittinsTableError):
    """Bisection endpoints do not straddle the indifference value."""


def default_horizon(discount: float) -> int:
    """Smallest N >= 1 with discount**N below the tail-weight cutoff."""
    if discount <= 0.0:
        return 1
    return max(1, math.ceil(math.log(TAIL_WEIGHT) / math.log(discount)))


@dataclass(frozen=True)
class DpConfig:
    """Numerical controls for the index dynamic program.

    ``horizon=None`` resolves to the smallest truncation depth whose
    discount weight falls below 1e-8 for the requested discount.
    ``quadrature_points`` floors the number of nonzero transition-kernel
    weights; the kernel always extends to at least 8 transition s.d.
    ``grid_step`` should stay below the smallest transition s.d. reached,
    about 1/n_max, or the last entries of the table lose accuracy.
    """

    state_bound: float = 8.0
    grid_step: float = 0.00125
    quadrature_points: int = 32
    horizon: int | None = None
    bisection_tol: float = 1e-4
    lambda_bracket: tuple[float, float] = (0.0, 3.0)

    def __post_init__(self) -> None:
        if self.state_bound <= 0:
            raise ValueError("state_bound must be positive")
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")
        if self.quadrature_points < 1:
            raise ValueError("quadrature_points must be >= 1")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.bisection_tol <= 0:
            raise ValueError("bisection_tol must be positive")
        lo, hi = self.lambda_bracket
        if not lo < hi:
            raise ValueError("lambda_bracket must be an increasing pair")

    def resolved_horizon(self, discount: float) -> int:
        return self.horizon if self.horizon is not None else default_horizon(discount)


@dataclass(frozen=True)
class GittinsTable:
    """Standardized index values ``values[n-1] = v(n)`` for n = 1..n_max."""

    discount: float
    values: np.ndarray
    dp_meta: dict | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)
        if not 0.0 <= self.discount < 1.0:
            raise GittinsTableError(f"discount must lie in [0, 1), got {self.discount}")
        if vals.ndim != 1 or vals.size < 1:
            raise GittinsTableError("values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(vals)):
            raise GittinsTableError("table contains non-finite values")
        if self.discount > 0.0:
            if np.any(vals <= 0.0):
                raise GittinsTableError(
                    "index values must be strictly positive for discount > 0; "
                    "grid or horizon too coarse"
                )
            if np.any(np.diff(vals) >= 0.0):
                raise GittinsTableError(
                    "index values must be strictly decreasing in n; "
                    "grid or horizon too coarse"
                )

    @property
    def n_max(self) -> int:
        return int(self.values.size)

    def value(self, n: int) -> float:
        """Standardized index at observation count ``n`` (no extrapolation)."""
        if not 1 <= n <= self.n_max:
            raise GittinsTableError(
                f"n={n} outside table range 1..{self.n_max}; "
                "rebuild the table with n_max >= the trial horizon"
            )
        return float(self.values[n - 1])


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _transition_kernel(sd: float, step: float, min_points: int) -> np.ndarray:
    """Exact Gaussian quadrature weights for a piecewise-linear integrand.

    Weight r equals E[hat(W - r)] for W ~ N(0, (sd/step)^2) with ``hat`` the
    unit linear interpolation basis, so that ``weights @ u[i-R..i+R]`` is the
    exact integral of the interpolant of ``u`` against an N(y_i, sd^2)
    density.  Weights are renormalized so constants are preserved exactly.
    """
    g = sd / step
    half = max(int(math.ceil(8.0 * g)), (min_points + 1) // 2, 1)
    r = np.arange(-half, half + 1, dtype=float)
    lower, upper = (r - 1.0) / g, (r + 1.0) / g
    mid = r / g
    left = (1.0 - r) * (ndtr(mid) - ndtr(lower)) + g * (_phi(lower) - _phi(mid))
    right = (1.0 + r) * (ndtr(upper) - ndtr(mid)) - g * (_phi(mid) - _phi(upper))
    kernel = left + right
    return kernel / kernel.sum()


def _expect_on_grid(u: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """E[u(y')] for y' ~ N(y_i, sd^2) at every node, boundary-clamped."""
    pad = kernel.size // 2
    padded = np.pad(u, pad, mode="edge")
    if kernel.size > 96:
        return fftconvolve(padded, kernel, mode="valid")
    return np.convolve(padded, kernel, mode="valid")


def compute_index_table(discount: float, n_max: int, cfg: DpConfig | None = None) -> GittinsTable:
    """Build the standardized index table for ``n = 1..n_max``.

    Backward induction runs over observation counts from ``n_max + horizon``
    down to 1 on a uniform grid over [-state_bound, state_bound]; posterior
    means transition as N(y, 1/(m(m+1))), integrated exactly against the
    piecewise-linear value representation, and the truncated tail is valued
    as if the better of the two arms were played forever.  Each table entry
    is then found by bisection over ``lambda_bracket`` to within
    ``bisection_tol``.
    """
    if not 0.0 <= discount < 1.0:
        raise GittinsTableError(f"discount must lie in [0, 1), got {discount}")
    if n_max < 1:
        raise GittinsTableError("n_max must be >= 1")
    cfg = cfg or DpConfig()
    d = discount
    horizon = cfg.resolved_horizon(d)

    half_cells = int(round(cfg.state_bound / cfg.grid_step))
    grid = np.linspace(-half_cells * cfg.grid_step, half_cells * cfg.grid_step,
                       2 * half_cells + 1)

    # Tail: play the better arm forever (learning value -> 0 at depth).
    u = np.maximum(grid, 0.0) / (1.0 - d)
    continuation = np.empty((n_max, grid.size))
    for m in range(n_max + horizon - 1, 0, -1):
        sd = 1.0 / math.sqrt(m * (m + 1.0))
        kernel = _transition_kernel(sd, cfg.grid_step, cfg.quadrature_points)
        cont = grid + d * _expect_on_grid(u, kernel)
        if m <= n_max:
            continuation[m - 1] = cont
        u = np.maximum(cont, 0.0)

    lo0, hi0 = cfg.lambda_bracket
    values = np.empty(n_max)
    for n in range(1, n_max + 1):
        row = continuation[n - 1]

        def f(lam: float) -> float:
            return float(np.interp(-lam, grid, row))

        flo, fhi = f(lo0), f(hi0)
        # f is decreasing in lam; the root needs f(lo) >= 0 >= f(hi).
        if flo < 0.0 or fhi > 0.0:
            raise BracketError(
                f"lambda_bracket {cfg.lambda_bracket} does not straddle the "
                f"indifference value at n={n} (f(lo)={flo:.3g}, f(hi)={fhi:.3g}); "
                "widen the bracket"
            )
        lo, hi = lo0, hi0
        while hi - lo > cfg.bisection_tol:
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        # Secant refinement inside the converged bracket: f is close to
        # linear at this scale, and without it neighbouring entries can
        # collide at bisection_tol resolution.
        flo, fhi = f(lo), f(hi)
        if flo > fhi:
            lam = lo + (hi - lo) * flo / (flo - fhi)
        else:
            lam = 0.5 * (lo + hi)
        values[n - 1] = lam if d > 0.0 else 0.0

    meta = {
        "state_bound": cfg.state_bound,
        "grid_step": cfg.grid_step,
        "quadrature_points": cfg.quadrature_points,
        "horizon": horizon,
        "bisection_tol": cfg.bisection_tol,
        "lambda_bracket": tuple(cfg.lambda_bracket),
    }
    return GittinsTable(discount=d, values=values, dp_meta=meta)


def save_index_table(table: GittinsTable, path: str | Path) -> Path:
    """Write the table as CSV: a ``# discount=`` comment, header, then rows."""
    path = Path(path)
    lines = [f"# discount={table.discount!r}", "n,value"]
    lines += [f"{n},{v:.12g}" for n, v in enumerate(table.values, start=1)]
    path.write_text("\n".join(lines) + "\n")
    return path


def load_index_table(source: str | Path) -> GittinsTable:
    """Load a table written by :func:`save_index_table`, verifying invariants."""
    path = Path(source)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise GittinsTableError(f"cannot read table file {path}: {exc}") from exc
    lines = [ln.strip() for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise GittinsTableError(f"malformed table file {path}: empty")

    discount = None
    while lines and lines[0].startswith("#"):
        comment = lines.pop(0).lstrip("#").strip()
        if comment.startswith("discount="):
            try:
                discount = float(comment.split("=", 1)[1])
            except ValueError as exc:
                raise GittinsTableError(f"malformed discount comment in {path}") from exc
    if discount is None:
        raise GittinsTableError(f"malformed table file {path}: missing '# discount=' comment")
    if not lines or lines.pop(0).replace(" ", "") != "n,value":
        raise GittinsTableError(f"malformed table file {path}: missing 'n,value' header")
    if not lines:
        raise GittinsTableError(f"malformed table file {path}: no data rows")

    values = []
    for expected_n, line in enumerate(lines, start=1):
        parts = line.split(",")
        try:
            n, value = int(parts[0]), float(parts[1])
        except (IndexError, ValueError) as exc:
            raise GittinsTableError(f"malformed row {line!r} in {path}") from exc
        if n != expected_n:
            raise GittinsTableError(
                f"rows must be n=1..n_max in ascending order; got n={n} at row {expected_n}"
            )
        values.append(value)
    return GittinsTable(discount=discount, values=np.asarray(values))
