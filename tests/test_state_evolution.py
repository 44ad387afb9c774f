import math

import numpy as np
import pytest

from scse import (CoupledParams, DEGRADED_EQUAL, ErrorProfile,
                  INCOMPARABLE, REVERSED, STRICTLY_DEGRADED,
                  UnderlyingParams, basin_boundary, build_coupling_matrix,
                  fixed_point_tolerance, is_degraded, iterate_coupled,
                  iterate_underlying, max_profile_increment, ones_profile,
                  pinned_columns, pinned_rows, rectangular_design,
                  saturate_profile, se_step_coupled, se_step_underlying,
                  shift, sigma_underlying, zeros_profile)
from scse.state_evolution import _inverse_noise_moment

from oracles import b2_se_fixed_points, direct_sigma_coupled, saturation_case_24

SIGMA2 = 1.0 / 15.0


def test_sigma_underlying():
    p = UnderlyingParams(B=2, R=1.5, sigma2=SIGMA2)
    assert sigma_underlying(0.0, p) == pytest.approx(math.sqrt(1.5 / 15))
    assert sigma_underlying(1.0, p) == pytest.approx(math.sqrt(1.5 * 16 / 15))
    with pytest.raises(ValueError):
        sigma_underlying(-0.1, p)


def test_underlying_monostable_fixed_point(params_b2, tables_b2):
    # At B=2, R=1.5, snr=15 there is a single fixed point; both extreme
    # starts must land on it, monotonically.
    mmse_t, _ = tables_b2
    lo = iterate_underlying(0.0, params_b2, mmse_t)
    hi = iterate_underlying(1.0, params_b2, mmse_t)
    assert lo.converged and hi.converged
    assert lo.monotone and hi.monotone
    radius = fixed_point_tolerance(mmse_t, params_b2, lo.final)
    assert abs(hi.final - lo.final) <= radius
    # quadrature locates the same crossing
    fps = b2_se_fixed_points(1.5, SIGMA2, nodes=64, grid=20001)
    assert len(fps) == 1
    assert abs(lo.final - fps[0]) <= 0.01
    # self-consistency at the fixed point
    assert abs(se_step_underlying(lo.final, params_b2, mmse_t) - lo.final) <= 1e-8


def test_underlying_bistable_fixed_points(params_b4, tables_b4):
    mmse_t, _ = tables_b4
    lo = iterate_underlying(0.0, params_b4, mmse_t)
    hi = iterate_underlying(1.0, params_b4, mmse_t)
    assert lo.converged and hi.converged
    assert hi.final - lo.final > 0.1  # two well-separated fixed points
    assert 0.0 <= lo.final <= 0.05
    assert 0.2 <= hi.final <= 0.4


def test_iterate_underlying_reports_nonconvergence(params_b4, tables_b4):
    rep = iterate_underlying(1.0, params_b4, tables_b4[0], tol=1e-12, max_iters=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.residual > 1e-12
    with pytest.raises(ValueError):
        iterate_underlying(1.5, params_b4, tables_b4[0])


def test_fixed_point_tolerance_floor(params_b2, tables_b2):
    t = fixed_point_tolerance(tables_b2[0], params_b2, 0.1, tol=1e-3)
    assert t == pytest.approx(1e-2)  # 10*tol dominates here
    t2 = fixed_point_tolerance(tables_b2[0], params_b2, 0.1, tol=1e-12)
    assert t2 == pytest.approx(3 * tables_b2[0].stderr_at(sigma_underlying(0.1, params_b2)))


def test_basin_boundary_full_domain(params_b2, tables_b2):
    assert basin_boundary(params_b2, tables_b2[0]) == 1.0


def test_basin_boundary_bistable(params_b4, tables_b4):
    mmse_t, _ = tables_b4
    b = basin_boundary(params_b4, tables_b4[0])
    assert 0.03 < b < 0.25
    lo = iterate_underlying(0.0, params_b4, mmse_t).final
    radius = fixed_point_tolerance(mmse_t, params_b4, lo)
    below = iterate_underlying(b - 1e-3, params_b4, mmse_t).final
    above = iterate_underlying(b + 1e-3, params_b4, mmse_t).final
    assert abs(below - lo) <= radius
    assert above - lo > 0.1


def test_pinned_index_sets():
    assert pinned_rows(20, 2).tolist() == [0, 1, 2, 3, 4, 5, 14, 15, 16, 17, 18, 19]
    assert pinned_columns(20, 2).tolist() == [0, 1, 2, 3, 4, 5, 6, 7,
                                              12, 13, 14, 15, 16, 17, 18, 19]


def test_profiles_and_validation():
    prof = ones_profile(20, 2)
    assert prof.values[pinned_rows(20, 2)].sum() == 0.0
    assert prof.values.sum() == 8.0
    assert zeros_profile(20, 2).values.sum() == 0.0
    with pytest.raises(ValueError):
        ErrorProfile(np.full(5, 0.5), 6, 1)
    with pytest.raises(ValueError):
        ErrorProfile(np.array([0.5, 1.5, 0.0]), 3, 1)
    with pytest.raises(ValueError):
        ErrorProfile(np.array([0.5, -0.1, 0.0]), 3, 1)


def test_sigma_coupled_matches_direct(params_b4, tables_b4):
    J = build_coupling_matrix(CoupledParams(params_b4, 20, 2, rectangular_design()))
    rng = np.random.default_rng(5)
    vals = rng.uniform(0, 1, 20)
    prof = ErrorProfile(vals, 20, 2)
    sigma_cols = _inverse_noise_moment(prof.values, J, params_b4) ** -0.5
    for c in (1, 7, 20):
        want = direct_sigma_coupled(vals.tolist(), J.J.tolist(), params_b4.R,
                                    params_b4.sigma2, c)
        assert sigma_cols[c - 1] == pytest.approx(want, abs=1e-12)


def test_se_step_coupled_pins_boundary(params_b4, tables_b4):
    J = build_coupling_matrix(CoupledParams(params_b4, 32, 2, rectangular_design()))
    nxt = se_step_coupled(ones_profile(32, 2), J, params_b4, tables_b4[0])
    assert (nxt.values[pinned_rows(32, 2)] == 0.0).all()
    interior = np.setdiff1d(np.arange(32), pinned_rows(32, 2))
    assert (nxt.values[interior] > 0).all()


def test_iterate_coupled_decodes_below_threshold(params_b2, tables_b2):
    # monostable scalar system: the coupled profile collapses to the floor
    J = build_coupling_matrix(CoupledParams(params_b2, 32, 2, rectangular_design()))
    run = iterate_coupled(ones_profile(32, 2), J, params_b2, tables_b2[0])
    assert run.converged and run.monotone
    E0 = iterate_underlying(0.0, params_b2, tables_b2[0]).final
    radius = fixed_point_tolerance(tables_b2[0], params_b2, E0)
    assert (run.final.values <= E0 + radius).all()


def test_iterate_coupled_stalls_above_coupled_threshold(tables_b4, params_b4):
    # R=1.70 at B=4 sits above the coupled threshold for Gamma=48, w=2
    from scse import MCConfig, build_tables
    p = params_b4.with_rate(1.70)
    tabs = build_tables(p, MCConfig(seed=0, n_samples=20_000), n_points=96)
    J = build_coupling_matrix(CoupledParams(p, 48, 2, rectangular_design()))
    run = iterate_coupled(ones_profile(48, 2), J, p, tabs[0], max_iters=20_000)
    assert run.converged
    E0 = iterate_underlying(0.0, p, tabs[0]).final
    assert run.final.values.max() > E0 + 0.05


def test_degradation_labels():
    a = ErrorProfile(np.array([0.5, 0.5, 0.5]), 3, 1)
    b = ErrorProfile(np.array([0.4, 0.5, 0.3]), 3, 1)
    assert is_degraded(a, b) == STRICTLY_DEGRADED
    assert is_degraded(a, a) == DEGRADED_EQUAL
    assert is_degraded(b, a) == REVERSED
    c = ErrorProfile(np.array([0.6, 0.2, 0.5]), 3, 1)
    assert is_degraded(a, c) == INCOMPARABLE
    with pytest.raises(ValueError):
        is_degraded(np.zeros(3), np.zeros(4))


def test_step_preserves_degradation(params_b4, tables_b4):
    J = build_coupling_matrix(CoupledParams(params_b4, 24, 1, rectangular_design()))
    rng = np.random.default_rng(6)
    for _ in range(25):
        lo_vals = rng.uniform(0, 0.8, 24)
        hi_vals = np.clip(lo_vals + rng.uniform(0, 0.2, 24), 0, 1)
        lo_p, hi_p = ErrorProfile(lo_vals, 24, 1), ErrorProfile(hi_vals, 24, 1)
        lo_n = se_step_coupled(lo_p, J, params_b4, tables_b4[0])
        hi_n = se_step_coupled(hi_p, J, params_b4, tables_b4[0])
        assert is_degraded(hi_n, lo_n) in (STRICTLY_DEGRADED, DEGRADED_EQUAL)


def test_saturate_profile_hand_case():
    src, E0, expected, r_star, r_max = saturation_case_24()
    sat = saturate_profile(ErrorProfile(src, 24, 2), E0)
    np.testing.assert_allclose(sat.values, expected, atol=1e-12)
    assert sat.r_star == r_star
    assert sat.r_max == r_max
    assert sat.E_max == pytest.approx(0.8)
    assert not sat.degenerate
    assert (np.diff(sat.values) >= 0).all()


def test_saturate_profile_degenerate():
    vals = np.full(24, 0.01)
    sat = saturate_profile(ErrorProfile(vals, 24, 2), 0.05)
    assert sat.degenerate
    assert (sat.values == 0.05).all()
    assert sat.E_max == 0.05
    assert sat.r_star == sat.r_max == 24


def test_saturate_profile_rejects_nonmonotone_rise():
    vals = np.zeros(24)
    vals[8] = 0.5
    vals[9] = 0.2   # dips well below the earlier value before the max
    vals[10] = 0.8
    with pytest.raises(ValueError):
        saturate_profile(ErrorProfile(vals, 24, 2), 0.05)


def test_shift_and_increment():
    v = np.array([0.1, 0.3, 0.7, 0.7])
    out = shift(v, 0.05)
    np.testing.assert_allclose(out, [0.05, 0.1, 0.3, 0.7])
    assert max_profile_increment(v) == pytest.approx(0.4)
    assert max_profile_increment([0.5]) == 0.0
