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

The program's numerical settings are the module constants ``STATE_BOUND``,
``GRID_STEP``, ``QUADRATURE_POINTS``, ``BISECTION_TOL`` and
``LAMBDA_BRACKET``, with the horizon ``default_horizon(discount)``; every
table is built with them, and tests vary them by patching the module.
Tables are immutable once built and safe to share across worker processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

__all__ = [
    "GittinsTable",
    "GittinsTableError",
    "compute_index_table",
    "dp_settings",
    "save_index_table",
    "load_index_table",
    "default_horizon",
]

# Discount weight below which the truncated tail of the program is ignored.
TAIL_WEIGHT = 1e-8

# Half-width of the posterior-mean grid, [-STATE_BOUND, STATE_BOUND].
STATE_BOUND = 8.0
# Grid spacing; it should stay below the smallest transition s.d. reached,
# about 1/n_max, or the last entries of the table lose accuracy.
GRID_STEP = 0.00125
# Floor on the number of nonzero transition-kernel weights; the kernel
# always extends to at least 8 transition s.d.
QUADRATURE_POINTS = 32
# Width at which the bisection for each table entry stops.
BISECTION_TOL = 1e-4
# Interval searched for each index value.
LAMBDA_BRACKET = (0.0, 3.0)

# Longest transition kernel applied by direct convolution; longer ones go
# through an FFT.
FFT_TAPS = 96
# Steps whose transition kernels are built and held at once.  It moves no
# bit of the table, only the build's memory, so it is not a DP setting.
_CHUNK_STEPS = 256


class GittinsTableError(ValueError):
    """Invalid table: construction or validation failed."""


def default_horizon(discount: float) -> int:
    """Smallest N >= 1 with discount**N below the tail-weight cutoff,
    ceil(ln 1e-8 / ln d): 3,675 at d = 0.995 and 18,412 at 0.999.  A table
    build runs ``n_max + N - 1`` steps, so its time grows in proportion to N
    (about 200 s projected at 0.99999) and its memory stays constant; no
    discount in [0, 1) is refused."""
    if discount <= 0.0:
        return 1
    return max(1, math.ceil(math.log(TAIL_WEIGHT) / math.log(discount)))


def dp_settings(discount: float) -> dict:
    """The ``dp_meta`` of a table built for ``discount``: the DP settings, in
    the order its file records them."""
    return {"state_bound": STATE_BOUND, "grid_step": GRID_STEP,
            "quadrature_points": QUADRATURE_POINTS, "horizon": default_horizon(discount),
            "bisection_tol": BISECTION_TOL, "lambda_bracket": LAMBDA_BRACKET}


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


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _transition_kernels(sds: np.ndarray, step: float, min_points: int) -> list[np.ndarray]:
    """Exact Gaussian quadrature weights for a piecewise-linear integrand.

    Weight r equals E[hat(W - r)] for W ~ N(0, (sd/step)^2) with ``hat`` the
    unit linear interpolation basis, so that ``weights @ u[i-R..i+R]`` is the
    exact integral of the interpolant of ``u`` against an N(y_i, sd^2)
    density.  Weights are renormalized so constants are preserved exactly.
    One kernel per entry of ``sds``, computed together for all entries of
    the same half-width (elementwise arithmetic, so each kernel is bitwise
    the one it would be alone).  ``ndtr`` and the density are evaluated once
    per offset (-R-1 .. R+1)/g and sliced at (r-1)/g, r/g and (r+1)/g: r is
    a whole number, so r-1 and r+1 are the neighbouring offsets exactly.
    Subnormal weights of direct-convolution kernels are set to 0.0; see
    ``compute_index_table`` for why that leaves the sweep unchanged.
    """
    g = sds / step
    halves = np.maximum(np.ceil(8.0 * g).astype(np.int64), max((min_points + 1) // 2, 1))
    kernels: list[np.ndarray] = [np.empty(0)] * g.size
    for half in np.unique(halves):
        rows = np.flatnonzero(halves == half)
        gs = g[rows, None]
        offsets = np.arange(-half - 1, half + 2, dtype=float) / gs
        cdf, pdf = ndtr(offsets), _phi(offsets)
        r = np.arange(-half, half + 1, dtype=float)
        left = (1.0 - r) * (cdf[:, 1:-1] - cdf[:, :-2]) + gs * (pdf[:, :-2] - pdf[:, 1:-1])
        right = (1.0 + r) * (cdf[:, 2:] - cdf[:, 1:-1]) - gs * (pdf[:, 1:-1] - pdf[:, 2:])
        kernel = left + right
        kernel = kernel / kernel.sum(axis=1, keepdims=True)
        if r.size <= FFT_TAPS:
            kernel[np.abs(kernel) < np.finfo(float).tiny] = 0.0
        for i, row in zip(rows, kernel):
            kernels[i] = row
    return kernels


def _fft_convolve_valid(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``scipy.signal.fftconvolve(x, kernel, mode="valid")`` bit for bit: the
    same transforms at the same length, and the same slice of the result.
    ``scipy.fft`` is imported here, so commands that build no table skip it."""
    from scipy.fft import irfft, next_fast_len, rfft

    size = next_fast_len(x.size + kernel.size - 1, True)
    return irfft(rfft(x, size) * rfft(kernel, size), size)[kernel.size - 1:x.size]


def _bisect(grid: np.ndarray, row: np.ndarray) -> float:
    """Root of the decreasing f(lam) = interp(-lam, grid, row) in
    ``LAMBDA_BRACKET``, which the caller has checked to straddle it."""
    def f(lam: float) -> float:
        return float(np.interp(-lam, grid, row))

    lo, hi = LAMBDA_BRACKET
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    # Secant refinement inside the converged bracket: f is close to
    # linear at this scale, and without it neighbouring entries can
    # collide at BISECTION_TOL resolution.
    flo, fhi = f(lo), f(hi)
    if flo > fhi:
        return lo + (hi - lo) * flo / (flo - fhi)
    return 0.5 * (lo + hi)


def compute_index_table(discount: float, n_max: int) -> GittinsTable:
    """Build the standardized index table for ``n = 1..n_max``.

    Backward induction runs over observation counts from ``n_max + horizon``
    down to 1 on a uniform grid over [-STATE_BOUND, STATE_BOUND]; posterior
    means transition as N(y, 1/(m(m+1))), integrated exactly against the
    piecewise-linear value representation, and the truncated tail is valued
    as if the better of the two arms were played forever.  Each table entry
    is found by bisection over ``LAMBDA_BRACKET`` to within
    ``BISECTION_TOL``, in the step that produces its continuation row; a
    bracket that misses any row fails after the sweep, naming the smallest
    such n.  The settings are this module's constants, read at each call,
    so a test can patch them to build a table at other settings.  The sweep
    runs ``n_max + default_horizon(discount) - 1`` steps: about 0.5 s at
    d=0.995 and 2 s at 0.999 on one core, in proportion to the horizon, and
    about 200 s projected at 0.99999.  No discount in [0, 1) is refused.

    Every step computes, bit for bit, ``cont = grid + d * conv(pad(u), k)``
    with ``u = max(cont', 0)`` from the step before, ``pad`` repeating the
    edge values and ``conv`` a full direct convolution, or an FFT one for
    kernels of more than ``FFT_TAPS`` weights.  The kernels are built for
    one chunk of ``_CHUNK_STEPS`` steps at a time, and no step's row is
    kept past its bisection, so the build holds O(grid + chunk) floats
    whatever the discount and horizon.  Two shortcuts keep the values and
    skip work:

    * ``u`` is exactly 0 below its first positive node (about half the grid
      at d=0.995).  An output whose whole window lies there sums products
      with 0 to exactly 0, so its ``cont`` is ``grid`` (negative) and its
      ``u`` stays 0.  A direct step therefore computes and writes ``cont``
      and ``u`` only from ``start``, the first window that reaches
      ``u > 0``, and the next step looks for the first positive node from
      there; nothing below ``start`` is written, except on a step whose row
      is bisected, where ``cont`` below ``start`` is set to ``grid``.  Each
      output is the same dot product over the same values either way.
    * A subnormal weight (below 2.3e-308; they occur in the tails of the
      short kernels of late steps) times an operand of at most
      ``STATE_BOUND / (1 - d)`` is below 1e-300.  Such a term is lost in the
      rounding of any sum above about 1e-280, and a smaller sum is itself
      lost when added to its grid node (|y| >= GRID_STEP there, as u > 0
      around y = 0), so ``grid + d * E`` is the same with or without it.
      Zeroing these weights only avoids slow arithmetic on subnormal
      operands.  FFT kernels are left as they are: an FFT's rounding depends
      on every input and on the transform length.

    ``tests/test_gittins.py`` checks the table against a plain per-step
    sweep with ``np.array_equal`` on settings that exercise both.
    """
    if not 0.0 <= discount < 1.0:
        raise GittinsTableError(f"discount must lie in [0, 1), got {discount}")
    if n_max < 1:
        raise GittinsTableError("n_max must be >= 1")
    d = discount
    horizon = default_horizon(d)

    half_cells = int(round(STATE_BOUND / GRID_STEP))
    grid = np.linspace(-half_cells * GRID_STEP, half_cells * GRID_STEP, 2 * half_cells + 1)
    size = grid.size

    # u lives inside one buffer edge-padded for the widest direct kernel
    pad = FFT_TAPS // 2
    padded = np.empty(size + 2 * pad)
    u = padded[pad:pad + size]
    # Tail: play the better arm forever (learning value -> 0 at depth).
    u[:] = np.maximum(grid, 0.0) / (1.0 - d)
    cont = np.empty(size)
    values = np.empty(n_max)
    missed = None  # (n, f(lo), f(hi)) of the smallest n the bracket misses
    start = 0  # u is exactly 0 below this node
    for top in range(n_max + horizon - 1, 0, -_CHUNK_STEPS):
        counts = np.arange(top, max(top - _CHUNK_STEPS, 0), -1)
        kernels = _transition_kernels(1.0 / np.sqrt(counts * (counts + 1.0)),
                                      GRID_STEP, QUADRATURE_POINTS)
        for m, kernel in zip(counts.tolist(), kernels):
            half = kernel.size // 2
            if kernel.size > FFT_TAPS:
                start = 0
                cont[:] = grid + d * _fft_convolve_valid(np.pad(u, half, mode="edge"), kernel)
            else:
                # u > 0 at every positive node: there cont >= grid > 0
                start = max(start + int((u[start:] > 0.0).argmax()) - half, 0)
                padded[:pad] = u[0]
                padded[pad + size:] = u[-1]
                window = padded[pad - half + start:pad + size + half]
                cont[start:] = grid[start:] + d * np.convolve(window, kernel, mode="valid")
            np.maximum(cont[start:], 0.0, out=u[start:])
            if m > n_max:
                continue
            cont[:start] = grid[:start]
            flo, fhi = (float(np.interp(-lam, grid, cont)) for lam in LAMBDA_BRACKET)
            # f is decreasing in lam; the root needs f(lo) >= 0 >= f(hi).
            if flo < 0.0 or fhi > 0.0:
                missed = (m, flo, fhi)
            else:
                values[m - 1] = _bisect(grid, cont) if d > 0.0 else 0.0
    if missed is not None:
        n, flo, fhi = missed
        raise GittinsTableError(
            f"lambda_bracket {LAMBDA_BRACKET} does not straddle the "
            f"indifference value at n={n} for discount {d} "
            f"(f(lo)={flo:.3g}, f(hi)={fhi:.3g})"
        )
    return GittinsTable(discount=d, values=values, dp_meta=dp_settings(d))


def save_index_table(table: GittinsTable, path: str | Path) -> Path:
    """Write the table as CSV: a ``# discount=`` comment, one ``# key=value``
    comment per ``dp_meta`` setting (values in JSON), header, then rows."""
    path = Path(path)
    lines = [f"# discount={table.discount!r}"]
    lines += [f"# {key}={json.dumps(value)}" for key, value in (table.dp_meta or {}).items()]
    lines.append("n,value")
    lines += [f"{n},{float(v)!r}" for n, v in enumerate(table.values, start=1)]
    path.write_text("\n".join(lines) + "\n")
    return path


def load_index_table(source: str | Path) -> GittinsTable:
    """Load a table written by :func:`save_index_table`, verifying invariants."""
    path = Path(source)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise GittinsTableError(f"cannot read table file {path}: {exc}") from exc
    lines = [ln.strip() for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise GittinsTableError(f"malformed table file {path}: empty")

    discount = None
    meta = {}
    while lines and lines[0].startswith("#"):
        key, _, text = lines.pop(0).lstrip("#").strip().partition("=")
        try:
            if key == "discount":
                discount = float(text)
            elif key in dp_settings(0.0):  # the same keys at every discount
                value = json.loads(text)
                meta[key] = tuple(value) if isinstance(value, list) else value
        except ValueError as exc:
            raise GittinsTableError(f"malformed {key} comment in {path}") from exc
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
    return GittinsTable(discount=discount, values=np.asarray(values), dp_meta=meta or None)
