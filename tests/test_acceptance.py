"""End-to-end acceptance battery.

One test per numbered criterion, at full measurement scale (seed 0, 1e5
samples per node, 256 table nodes).  Where the literal parameter point of a
criterion is unattainable (the B=2 recursion at snr=15 has a unique fixed
point at every rate, so no algorithmic/potential threshold pair brackets),
the criterion is kept as a strict xfail with the blocking reason, and a
companion test exercises the same property at the nearest attainable point
(B=4).  Heavy threshold solves run once in module fixtures; their wall time
is charged to the criterion-1 budget explicitly.
"""

import math
import time

import numpy as np
import pytest

from oracles import b2_entropy_quad, b2_mmse_quad
from scse import (CoupledParams, DEGRADED_EQUAL, ErrorProfile, MCConfig,
                  STRICTLY_DEGRADED, UnderlyingParams,
                  amp_threshold_underlying, build_coupling_matrix,
                  build_tables, capacity, entropy_estimate,
                  fixed_point_tolerance, is_degraded, iterate_coupled,
                  iterate_underlying, large_B_limits, make_design,
                  mmse_estimate, ones_profile,
                  potential_coupled, potential_energy_underlying,
                  potential_threshold, rectangular_design, saturate_profile,
                  se_step_coupled, shift, sigma_underlying)
from scse.denoiser import _chunks, gaussian_block, section_stats
from scse.thresholds import BracketingError
from scse.verification import i_mmse_report, nishimori_report, verify_smoothness, verify_telescoping

SIGMA2 = 1.0 / 15.0
TOL_R = 2e-3
MC_ACC = MCConfig(seed=0, n_samples=100_000)
TIMINGS = {}

B2_NO_SPINODAL = ("at snr=15 the B=2 scalar recursion has a single stable "
                  "fixed point at every rate below capacity: there is no "
                  "bistable window, so neither the algorithmic nor the "
                  "potential threshold brackets and the solver reports a "
                  "bracketing failure instead of a value")


def _timed(name, fn):
    t0 = time.monotonic()
    out = fn()
    TIMINGS[name] = time.monotonic() - t0
    return out


@pytest.fixture(scope="module")
def base_b4():
    params = UnderlyingParams(B=4, R=1.0, sigma2=SIGMA2)
    return params, build_tables(params, MC_ACC)


@pytest.fixture(scope="module")
def r_u4(base_b4):
    params, tables = base_b4
    return _timed("r_u4", lambda: amp_threshold_underlying(params, tables, TOL_R))


@pytest.fixture(scope="module")
def r_pot4(base_b4):
    params, tables = base_b4
    return _timed("r_pot4", lambda: potential_threshold(params, tables, TOL_R))


@pytest.fixture(scope="module")
def r_pot_high():
    out = {}
    for B in (8, 16):
        params = UnderlyingParams(B=B, R=1.0, sigma2=SIGMA2)
        out[B] = potential_threshold(params, build_tables(params, MC_ACC), TOL_R)
    return out


# --- criterion 1: threshold saturation demonstration ------------------------

@pytest.mark.xfail(strict=True, raises=BracketingError, reason=B2_NO_SPINODAL)
def test_criterion_01_threshold_saturation_b2():
    params = UnderlyingParams(B=2, R=1.0, sigma2=SIGMA2)
    tables = build_tables(params, MC_ACC)
    r_u = amp_threshold_underlying(params, tables, TOL_R)
    r_pot = potential_threshold(params, tables, TOL_R)
    assert r_pot.value - r_u.value > 0.01


def test_criterion_01_companion_threshold_saturation_b4(base_b4, r_u4, r_pot4):
    params, tables = base_b4
    t0 = time.monotonic()
    assert r_pot4.value - r_u4.value > 0.01
    R_mid = 0.5 * (r_u4.value + r_pot4.value)
    p = params.with_rate(R_mid)
    E0 = iterate_underlying(0.0, p, tables[0]).final
    stalled = iterate_underlying(1.0, p, tables[0]).final
    tol_e0 = fixed_point_tolerance(tables[0], p, E0)
    J = build_coupling_matrix(CoupledParams(p, 64, 3, rectangular_design()))
    run = iterate_coupled(ones_profile(64, 3), J, p, tables[0], max_iters=20_000)
    assert run.converged
    assert (run.final.values <= E0 + tol_e0).all()  # coupled decodes
    assert stalled > E0 + 0.01                      # underlying does not
    elapsed = time.monotonic() - t0 + TIMINGS["r_u4"] + TIMINGS["r_pot4"]
    assert elapsed <= 600.0
    # frozen solver outputs; deterministic under seed 0
    assert r_u4.value == pytest.approx(1.544921875, abs=5e-3)
    assert r_pot4.value == pytest.approx(1.630859375, abs=5e-3)


# --- criterion 2: large-B behavior of the potential threshold ---------------

def test_criterion_02_closed_form_limits():
    params = UnderlyingParams(B=2, R=1.0, sigma2=SIGMA2)
    lim_alg, lim_pot = large_B_limits(params)
    assert abs(lim_alg - 15.0 / (32.0 * math.log(2.0))) <= 1e-12
    assert abs(lim_pot - 2.0) <= 1e-12


@pytest.mark.xfail(strict=True, raises=BracketingError, reason=B2_NO_SPINODAL)
def test_criterion_02_trend_includes_b2(r_pot_high, r_pot4):
    params = UnderlyingParams(B=2, R=1.0, sigma2=SIGMA2)
    r_pot2 = potential_threshold(params, build_tables(params, MC_ACC), TOL_R)
    values = [r_pot2.value, r_pot4.value, r_pot_high[8].value, r_pot_high[16].value]
    assert values == sorted(values)
    assert abs(values[-1] - 2.0) < abs(values[0] - 2.0)


def test_criterion_02_companion_trend_b4_to_b16(r_pot4, r_pot_high):
    values = [r_pot4.value, r_pot_high[8].value, r_pot_high[16].value]
    assert values == sorted(values)
    assert abs(values[-1] - 2.0) < abs(values[0] - 2.0)
    assert values[-1] < 2.0  # approaches capacity from below
    assert r_pot_high[16].value == pytest.approx(1.869140625, abs=5e-3)


# --- criterion 3: telescoping of the coupled potential under shift ----------

@pytest.mark.xfail(strict=True, raises=BracketingError, reason=B2_NO_SPINODAL)
def test_criterion_03_telescoping_b2():
    params = UnderlyingParams(B=2, R=1.0, sigma2=SIGMA2)
    tables = build_tables(params, MC_ACC)
    r_u = amp_threshold_underlying(params, tables, TOL_R)
    r_pot = potential_threshold(params, tables, TOL_R)
    assert r_u.value < r_pot.value


def test_criterion_03_companion_telescoping_decoded(base_b4, r_u4, r_pot4):
    # at the criterion-1 midpoint the width-3 system decodes, so the
    # saturated profile is the flat floor and both sides are exactly zero
    params, tables = base_b4
    R_mid = 0.5 * (r_u4.value + r_pot4.value)
    p = params.with_rate(R_mid)
    E0 = iterate_underlying(0.0, p, tables[0]).final
    tol_e0 = fixed_point_tolerance(tables[0], p, E0)
    J = build_coupling_matrix(CoupledParams(p, 128, 3, rectangular_design()))
    run = iterate_coupled(ones_profile(128, 3), J, p, tables[0], max_iters=20_000)
    assert (run.final.values <= E0 + tol_e0).all()
    sat = saturate_profile(ErrorProfile(np.full(128, E0), 128, 3), E0)
    rep = verify_telescoping(sat, J, p, tables)
    assert rep.passed
    assert rep.measured["residual"] == 0.0
    assert rep.measured["u_residual"] == 0.0


def test_criterion_03_companion_telescoping_stalled(base_b4):
    params, tables = base_b4
    R = 1.70  # inside the coupled stall band for w=3
    p = params.with_rate(R)
    E0 = iterate_underlying(0.0, p, tables[0]).final
    J = build_coupling_matrix(CoupledParams(p, 128, 3, rectangular_design()))
    run = iterate_coupled(ones_profile(128, 3), J, p, tables[0], max_iters=20_000)
    sat = saturate_profile(run.final, E0)
    assert not sat.degenerate
    assert sat.r_max <= 128 - 9  # plateau clears the right pinned zone
    rep = verify_telescoping(sat, J, p, tables)
    assert rep.passed
    assert rep.measured["residual"] <= rep.bound["residual"]  # 5x MC stderr
    assert rep.measured["residual"] <= 1e-10  # telescopes to round-off here
    assert rep.measured["u_residual"] <= 1e-10


# --- criterion 4: O(1/w) scaling of the shift-potential difference ----------

# By telescoping, dF_w = F(E0) - F(E_max(w)); E_max(w) is the same plateau for
# every w up to the recursion's stopping tolerance, so |dF_w| is w-flat and
# w |dF_w| grows like w.  The relative spread of |dF_w| over w reads ~1e-6.
FLAT_RTOL = 1e-3


def _w_flat(dF: dict) -> bool:
    sizes = [abs(v) for v in dF.values()]
    return max(sizes) <= (1.0 + FLAT_RTOL) * min(sizes)


def test_criterion_04_shift_potential_scaling(base_b4):
    params, tables = base_b4
    R, Gamma = 1.70, 256
    p = params.with_rate(R)
    E0 = iterate_underlying(0.0, p, tables[0]).final
    design = rectangular_design()
    dF = {}
    for w in (2, 4, 8):
        J = build_coupling_matrix(CoupledParams(p, Gamma, w, design))
        run = iterate_coupled(ones_profile(Gamma, w), J, p, tables[0],
                              max_iters=20_000)
        sat = saturate_profile(run.final, E0)
        assert not sat.degenerate  # the rate sits in the stall band for all w
        smooth = verify_smoothness(sat, design, w)
        assert smooth.passed
        assert smooth.measured < smooth.bound  # |dE| < (g*+g~)/w
        before = ErrorProfile(sat.values, Gamma, w)
        after = ErrorProfile(shift(sat.values, sat.E0), Gamma, w)
        dF[w] = potential_coupled(after, J, p, tables) - potential_coupled(before, J, p, tables)
        tele = verify_telescoping(sat, J, p, tables)
        assert tele.passed
        residual = abs(dF[w] - tele.context["rhs"])  # rhs = F(E0) - F(E_max(w))
        assert residual <= tele.bound["residual"]
        assert residual <= 1e-10  # telescopes to round-off here
    assert _w_flat(dF)
    # a difference that grew by 1% per doubling of w must fail the flatness check
    assert not _w_flat({w: v * 1.01 ** math.log2(w / 2) for w, v in dF.items()})


# --- criterion 5: stationarity of the scalar potential at fixed points ------

def _mc_entropy_diff(p, sig_hi, sig_lo, mc):
    """Common-random-number difference of the section entropy, with stderr."""
    n = mc.n_samples
    acc = acc2 = 0.0
    for a, b in _chunks(n):
        z = gaussian_block(mc.seed, p.B, a, b)
        d = (section_stats(z, sig_hi, p.B)["entropy"]
             - section_stats(z, sig_lo, p.B)["entropy"])
        acc += float(d.sum())
        acc2 += float((d * d).sum())
    mean = acc / n
    var = max(acc2 / n - mean * mean, 0.0)
    return mean, math.sqrt(var / max(n - 1, 1))


def _potential_fd(E, h, p, mc):
    dU = (potential_energy_underlying(E + h, p)
          - potential_energy_underlying(E - h, p))
    dS, se_dS = _mc_entropy_diff(p, sigma_underlying(E + h, p),
                                 sigma_underlying(E - h, p), mc)
    fd = (dU - dS) / (2.0 * h)
    stderr = se_dS / 2.0
    bound = 5.0 * (stderr / h + h * h * 10.0)
    return fd, bound


def _refine_fixed_point(E, p, mc, iters=400):
    # fixed point of the sampled recursion itself, so the finite difference
    # probes the estimator the potential is built from, not table kinks
    for _ in range(iters):
        nxt = mmse_estimate(sigma_underlying(E, p), p, mc).value
        if abs(nxt - E) < 1e-14:
            return nxt
        E = nxt
    return E


def test_criterion_05_stationarity_at_both_fixed_points():
    p = UnderlyingParams(B=4, R=1.6, sigma2=SIGMA2)
    h = 1e-3
    floor = _refine_fixed_point(0.005, p, MC_ACC)
    high = _refine_fixed_point(0.28, p, MC_ACC)
    assert 0.005 < floor < 0.01 and 0.25 < high < 0.31  # bistable regime
    for E_star in (floor, high):
        fd, bound = _potential_fd(E_star, h, p, MC_ACC)
        assert abs(fd) <= bound
        assert bound < 0.1  # the allowance is itself tight
    # away from the stationary points the same statistic must blow through
    # the bound, otherwise the check has no teeth
    for E_off in (0.05, 0.15):
        fd, bound = _potential_fd(E_off, h, p, MC_ACC)
        assert abs(fd) > bound


# --- criterion 6: Nishimori consistency of the sampled denoiser -------------

@pytest.mark.parametrize("B,R", [(2, 1.5), (4, 1.6)])
def test_criterion_06_nishimori_identity(B, R):
    p = UnderlyingParams(B=B, R=R, sigma2=SIGMA2)
    rep = nishimori_report(p, MC_ACC)
    assert rep.passed
    assert rep.measured <= rep.bound  # worst |diff|/Bernstein bound over the grid
    assert len(rep.context["points"]) == 16


# --- criterion 7: entropy-derivative / MMSE relation -------------------------

@pytest.mark.xfail(strict=True, reason=(
    "the finite-difference slope of the section entropy (scaled by log2 B) "
    "in the inverse noise equals -log2(B)/(2 ln 2) times the MMSE; the "
    "B-independent constant 1/2 is off by a factor 1/ln 4 already at B=2 "
    "and fails the 3-sigma gate at every grid point"))
def test_criterion_07_entropy_slope_half_constant():
    p = UnderlyingParams(B=2, R=1.5, sigma2=SIGMA2)
    rep = i_mmse_report(p, MC_ACC, coefficient=0.5)
    assert rep.passed


@pytest.mark.parametrize("B,R", [(2, 1.5), (4, 1.6)])
def test_criterion_07_companion_true_constant(B, R):
    p = UnderlyingParams(B=B, R=R, sigma2=SIGMA2)
    rep = i_mmse_report(p, MC_ACC)
    assert rep.passed
    assert rep.context["coefficient"] == pytest.approx(
        math.log2(B) / (2.0 * math.log(2.0)))


# --- criterion 8: exact coupling-matrix invariants ---------------------------

def test_criterion_08_matrix_invariants():
    rng = np.random.default_rng(2024)
    kinds = ["rectangular", "triangular", "asymmetric-exponential"]
    for trial in range(20):
        w = int(rng.integers(1, 7))
        Gamma = int(rng.integers(8 * w + 1, 8 * w + 120))
        kind = kinds[trial % 3]
        param = None if kind == "rectangular" else float(rng.uniform(0.2, 0.9))
        M = build_coupling_matrix(CoupledParams(
            UnderlyingParams(2, 1.0, SIGMA2), Gamma, w, make_design(kind, param)))
        assert np.abs(M.J.mean(axis=1) - 1.0).max() <= 1e-12
        cols = M.interior_columns()
        assert np.abs(M.J[:, cols].mean(axis=0) - 1.0).max() <= 1e-12
        r, c = np.meshgrid(np.arange(Gamma), np.arange(Gamma), indexing="ij")
        assert (M.J[np.abs(r - c) > w] == 0.0).all()
        assert (M.J[np.abs(r - c) <= w] > 0.0).all()


# --- criterion 9: degradation order preserved by the coupled map -------------

def test_criterion_09_degradation_preserved(base_b4):
    params, tables = base_b4
    p = params.with_rate(1.6)
    mmse_t, _ = tables
    Gamma, w = 48, 2
    J = build_coupling_matrix(CoupledParams(p, Gamma, w, rectangular_design()))
    rng = np.random.default_rng(11)
    for _ in range(200):
        lo = rng.uniform(0.0, 1.0, Gamma) * rng.uniform(0.0, 1.0)
        hi = np.clip(lo + rng.uniform(0.0, 1.0, Gamma) * (1.0 - lo), 0.0, 1.0)
        nxt_lo = se_step_coupled(ErrorProfile(lo, Gamma, w), J, p, mmse_t)
        nxt_hi = se_step_coupled(ErrorProfile(hi, Gamma, w), J, p, mmse_t)
        assert is_degraded(nxt_hi, nxt_lo) in (STRICTLY_DEGRADED, DEGRADED_EQUAL)
    # iterate sequences are componentwise monotone for monotone starts
    for R in (1.5, 1.6, 1.70):
        pr = params.with_rate(R)
        table = tables[0]
        assert iterate_underlying(0.0, pr, table).monotone
        assert iterate_underlying(1.0, pr, table).monotone
        Jr = build_coupling_matrix(CoupledParams(pr, Gamma, w, rectangular_design()))
        assert iterate_coupled(ones_profile(Gamma, w), Jr, pr, table,
                               max_iters=20_000).monotone


# --- criterion 10: sampled estimates agree with quadrature at B=2 ------------

def test_criterion_10_quadrature_agreement():
    p = UnderlyingParams(B=2, R=1.5, sigma2=SIGMA2)
    worst = 0.0
    for sig in np.geomspace(0.3, 3.0, 16):
        sig = float(sig)
        est_m = mmse_estimate(sig, p, MC_ACC)
        est_s = entropy_estimate(sig, p, MC_ACC)
        z_m = abs(est_m.value - b2_mmse_quad(sig, nodes=64)) / est_m.stderr
        z_s = abs(est_s.value - b2_entropy_quad(sig, nodes=64)) / est_s.stderr
        worst = max(worst, z_m, z_s)
        assert z_m <= 3.0
        assert z_s <= 3.0
    assert worst > 0.0  # estimates and quadrature are not the same numbers
