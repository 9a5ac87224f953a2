"""Index-table construction, evaluation, and persistence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve
from scipy.special import ndtr

from bandit_trials import gittins
from bandit_trials.engine import run_trial
from bandit_trials.gittins import (
    GittinsTable,
    GittinsTableError,
    compute_index_table,
    default_horizon,
    load_index_table,
    save_index_table,
)
from bandit_trials.policies import Allocator, PolicyDraws, PolicySpec

from .conftest import two_arm

# Frozen output of tests/gittins_oracle.py (per-lambda fine-grid value
# iteration, grid_step=0.005, horizon=400, cell-probability integration).
ORACLE_D09 = {1: 0.746578, 2: 0.466221, 5: 0.233265, 10: 0.131344, 50: 0.030453}
ORACLE_RTOL = 2 * 1e-4  # 2 x BISECTION_TOL


class TestComputeIndexTable:
    def test_zero_discount_gives_zero_learning_bonus(self):
        table = compute_index_table(0.0, 5)
        assert np.array_equal(table.values, np.zeros(5))

    def test_values_decrease_and_vanish(self, table995):
        vals = table995.values
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)
        # learning value collapses quickly with the observation count
        assert vals[99] < vals[0] / 5
        assert vals[301] < vals[0] / 30

    @pytest.mark.parametrize("n", sorted(ORACLE_D09))
    def test_agrees_with_fine_grid_oracle(self, table09, n):
        assert table09.values[n - 1] == pytest.approx(ORACLE_D09[n], abs=ORACLE_RTOL)

    def test_monotone_in_discount(self):
        lo = compute_index_table(0.5, 10)
        hi = compute_index_table(0.9, 10)
        assert np.all(lo.values <= hi.values)

    def test_grid_convergence(self, table995, monkeypatch):
        monkeypatch.setattr(gittins, "GRID_STEP", gittins.GRID_STEP / 2)
        monkeypatch.setattr(gittins, "QUADRATURE_POINTS", gittins.QUADRATURE_POINTS * 2)
        refined = compute_index_table(0.995, 302)
        assert np.max(np.abs(refined.values - table995.values)) < 5 * 1e-4

    def test_narrow_bracket_rejected(self, monkeypatch):
        monkeypatch.setattr(gittins, "LAMBDA_BRACKET", (0.0, 0.01))
        with pytest.raises(GittinsTableError, match="discount 0.995"):
            compute_index_table(0.995, 2)

    def test_bracket_error_names_smallest_missed_n(self, monkeypatch):
        # every n from 29 on has v(n) < 0.2; rows are bisected from n_max down
        monkeypatch.setattr(gittins, "LAMBDA_BRACKET", (0.2, 3.0))
        with pytest.raises(GittinsTableError, match=r"at n=29 for discount 0\.995 "):
            compute_index_table(0.995, 116)

    def test_build_memory_does_not_grow_with_horizon(self, monkeypatch):
        monkeypatch.setattr(gittins, "GRID_STEP", 0.01)
        compute_index_table(0.995, 60)  # imports outside the measurement
        peaks = {}
        for horizon in (1000, 4000):
            monkeypatch.setattr(gittins, "default_horizon", lambda discount, h=horizon: h)
            tracemalloc.start()
            try:
                compute_index_table(0.995, 60)
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] <= 1.1 * peaks[1000], peaks

    def test_bad_inputs(self):
        with pytest.raises(GittinsTableError):
            compute_index_table(1.0, 5)
        with pytest.raises(GittinsTableError):
            compute_index_table(0.9, 0)

    def test_dp_meta_recorded(self, table09):
        meta = table09.dp_meta
        assert meta["grid_step"] == gittins.GRID_STEP
        assert meta["horizon"] == default_horizon(0.9)
        assert meta["bisection_tol"] == 1e-4

    def test_default_horizon_tail_weight(self):
        assert default_horizon(0.0) == 1
        n = default_horizon(0.995)
        assert 0.995 ** n < 1e-8 < 0.995 ** (n - 1)


def reference_kernel(g, min_points):
    """The transition kernel of scale ``g`` (s.d. over grid step), its subnormal
    weights kept, with ``ndtr`` and φ evaluated at (r-1)/g, r/g and (r+1)/g."""
    def phi(x):
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    half = max(int(math.ceil(8.0 * g)), (min_points + 1) // 2, 1)
    r = np.arange(-half, half + 1, dtype=float)
    lower, mid, upper = (r - 1.0) / g, r / g, (r + 1.0) / g
    left = (1.0 - r) * (ndtr(mid) - ndtr(lower)) + g * (phi(lower) - phi(mid))
    right = (1.0 + r) * (ndtr(upper) - ndtr(mid)) - g * (phi(mid) - phi(upper))
    kernel = left + right
    return kernel / kernel.sum()


def reference_table(discount, n_max):
    """The index table by a plain per-step sweep at the ``gittins`` settings: a fresh
    kernel, an edge pad and a full convolution at every step.  Returns the values and
    how many steps had subnormal weights, went through an FFT, and had u == 0 under
    a whole window."""
    d, step = discount, gittins.GRID_STEP
    half_cells = int(round(gittins.STATE_BOUND / step))
    grid = np.linspace(-half_cells * step, half_cells * step, 2 * half_cells + 1)
    u = np.maximum(grid, 0.0) / (1.0 - d)
    rows = np.empty((n_max, grid.size))
    seen = {"subnormal": 0, "fft": 0, "zero_region": 0}
    for m in range(n_max + gittins.default_horizon(d) - 1, 0, -1):
        kernel = reference_kernel(1.0 / math.sqrt(m * (m + 1.0)) / step,
                                  gittins.QUADRATURE_POINTS)
        padded = np.pad(u, kernel.size // 2, mode="edge")
        if kernel.size > 96:
            seen["fft"] += 1
            expected = fftconvolve(padded, kernel, mode="valid")
        else:
            expected = np.convolve(padded, kernel, mode="valid")
        seen["subnormal"] += bool(np.any((kernel != 0) & (np.abs(kernel) < np.finfo(float).tiny)))
        seen["zero_region"] += bool(np.all(u[:kernel.size] == 0.0))
        cont = grid + d * expected
        if m <= n_max:
            rows[m - 1] = cont
        u = np.maximum(cont, 0.0)

    values = np.empty(n_max)
    for n in range(1, n_max + 1):
        def f(lam, row=rows[n - 1]):
            return float(np.interp(-lam, grid, row))
        lo, hi = gittins.LAMBDA_BRACKET
        while hi - lo > gittins.BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
        flo, fhi = f(lo), f(hi)
        lam = lo + (hi - lo) * flo / (flo - fhi) if flo > fhi else 0.5 * (lo + hi)
        values[n - 1] = lam if d > 0.0 else 0.0
    return values, seen


class TestSweepMatchesReference:
    # cfg: the gittins module settings patched for the case
    @pytest.mark.parametrize("discount,n_max,cfg", [
        (0.995, 302, {}),
        (0.995, 60, {"GRID_STEP": 0.01, "QUADRATURE_POINTS": 24,
                     "default_horizon": lambda discount: 500}),
        (0.9, 60, {}),
        (0.0, 5, {}),
        (0.995, 116, {}),  # the two-arm table: every row from an FFT step
    ])
    def test_bitwise_equal(self, monkeypatch, discount, n_max, cfg):
        for name, value in cfg.items():
            monkeypatch.setattr(gittins, name, value)
        expected, seen = reference_table(discount, n_max)
        assert np.array_equal(compute_index_table(discount, n_max).values, expected)
        if discount == 0.995:  # every shortcut of the sweep is exercised
            assert seen["subnormal"] > 0 and seen["fft"] > 0 and seen["zero_region"] > 0

    def test_kernels_match_three_evaluation_formula(self):
        counts = np.arange(3000, 0, -1)
        sds = 1.0 / np.sqrt(counts * (counts + 1.0))
        kernels = gittins._transition_kernels(sds, 0.00125, 32)
        for sd, kernel in zip(sds, kernels):
            expected = reference_kernel(sd / 0.00125, 32)
            if expected.size <= gittins.FFT_TAPS:
                expected[np.abs(expected) < np.finfo(float).tiny] = 0.0
            assert np.array_equal(kernel, expected)


def gi_score(mean, n, sigma, table):
    """GI allocation score of an arm whose next observation is its n-th."""
    draws = PolicyDraws(init=np.zeros((1, 1), dtype=np.intp), uniforms=np.zeros((1, 19)))
    rule = Allocator(PolicySpec("GI"), sigma, 20, table, draws)
    return float(rule.values(np.array([[mean * (n - 1)]]), np.array([[n - 1]]), 10)[0, 0])


class TestGittinsIndex:
    def test_identity_case(self, table09):
        assert gi_score(0.0, 7, 1.0, table09) == table09.values[6]

    def test_linearity(self, table09):
        expected = 2.5 + 2.0 * table09.values[4]
        assert gi_score(2.5, 5, 2.0, table09) == pytest.approx(expected, abs=1e-15)

    def test_zero_discount_reduces_to_mean(self):
        table = compute_index_table(0.0, 5)
        assert gi_score(-1.0, 2, 0.5, table) == -1.0

    @given(mean=st.floats(-50, 50), c=st.floats(-50, 50),
           n=st.integers(2, 60), sigma=st.floats(0.01, 10))
    @settings(max_examples=50, deadline=None)
    def test_shift_equivariance(self, table09, mean, c, n, sigma):
        lhs = gi_score(mean + c, n, sigma, table09)
        rhs = gi_score(mean, n, sigma, table09) + c
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_no_extrapolation(self, table09):
        # an arm may be observed T times, so a table shorter than T is refused
        with pytest.raises(GittinsTableError):
            run_trial(two_arm("GI", 0.0, T=table09.n_max + 1), table09, seed=(1, 0))


class TestTableFile:
    def test_round_trip(self, table09, tmp_path):
        path = save_index_table(table09, tmp_path / "t.csv")
        loaded = load_index_table(path)
        assert loaded.discount == table09.discount
        assert loaded.dp_meta == table09.dp_meta
        assert np.array_equal(loaded.values, table09.values)  # lossless

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# discount=0.9\nn,value\n1,0.5\n2,0.4\n3,0.3\n4,0.35\n")
        with pytest.raises(GittinsTableError, match="decreasing"):
            load_index_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(GittinsTableError, match="empty"):
            load_index_table(path)

    @pytest.mark.parametrize("content", [
        "n,value\n1,0.5\n",                          # missing discount comment
        "# discount=0.9\n1,0.5\n",                   # missing header
        "# discount=0.9\nn,value\n",                 # no rows
        "# discount=0.9\nn,value\n2,0.5\n",          # wrong starting n
        "# discount=0.9\nn,value\n1,0.5\n3,0.4\n",   # gap in n
        "# discount=0.9\nn,value\n1,abc\n",          # non-numeric
        "# discount=oops\nn,value\n1,0.5\n",         # bad discount
        "# discount=0.9\n# grid_step=oops\nn,value\n1,0.5\n",  # bad setting
        "# discount=1.5\nn,value\n1,0.5\n",           # discount out of [0, 1)
        "# discount=0.9\nn,value\n1,nan\n",            # non-finite value
    ])
    def test_malformed_files_rejected(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(GittinsTableError):
            load_index_table(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"\xff\xfe\x00\x01# discount=0.9\n")
        with pytest.raises(GittinsTableError, match="cannot read table file"):
            load_index_table(path)

    def test_significant_digits(self, table09, tmp_path):
        path = save_index_table(table09, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        row = lines[lines.index("n,value") + 1]
        digits = row.split(",")[1].replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 10


class TestTableValidation:
    def test_positive_required_for_positive_discount(self):
        with pytest.raises(GittinsTableError):
            GittinsTable(discount=0.9, values=np.array([0.5, 0.0]))

    def test_monotone_required(self):
        with pytest.raises(GittinsTableError):
            GittinsTable(discount=0.9, values=np.array([0.4, 0.5]))

    def test_empty_values_rejected(self):
        with pytest.raises(GittinsTableError, match="non-empty"):
            GittinsTable(discount=0.9, values=np.array([]))

    def test_zero_discount_allows_zeros(self):
        table = GittinsTable(discount=0.0, values=np.zeros(3))
        assert table.n_max == 3


@pytest.mark.slow
def test_regenerate_oracle_values():
    """Re-derive the pinned oracle numbers (minutes; run with -m slow)."""
    from .gittins_oracle import oracle_index_value

    for n, pinned in ORACLE_D09.items():
        fresh = oracle_index_value(0.9, n)
        assert fresh == pytest.approx(pinned, abs=5e-5)
