import dataclasses
import math

import numpy as np
import pytest

from scse import (CoupledParams, DEGRADED_EQUAL, ErrorProfile,
                  INCOMPARABLE, MCConfig, REVERSED, STRICTLY_DEGRADED,
                  UnderlyingParams, basin_boundary, build_coupling_matrix,
                  build_tables, capacity, fold_rate, make_design,
                  scalar_fixed_points,
                  fixed_point_tolerance, is_degraded, iterate_coupled,
                  iterate_underlying, max_profile_increment, ones_profile,
                  pinned_columns, pinned_rows, rectangular_design,
                  saturate_profile, se_step_coupled, se_step_underlying,
                  shift, sigma_underlying, zeros_profile)
from scse.state_evolution import _coupled_step, _inverse_noise_moment, _sorted_distinct

from oracles import (b2_se_fixed_points, bisection_basin_boundary,
                     dense_scan_fixed_points, direct_sigma_coupled,
                     floor_jump_rate, reference_coupled_step,
                     reference_iterate_coupled, reference_iterate_underlying,
                     saturation_case_24, table_se_gap)

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


@pytest.fixture(scope="module")
def mmse_tables(tables_b2, tables_b4, tables_b16):
    """mmse tables by section size at snr 15 (20000 samples, 96 nodes)."""
    return {2: tables_b2[0], 4: tables_b4[0], 16: tables_b16[0]}


@pytest.fixture(scope="module")
def table_b4_16_nodes():
    """The 16-node B=4 table of `scse thresholds --samples 65536 --n-points 16
    --seed 1`, whose fold sits at R = 1.7465."""
    p = UnderlyingParams(B=4, R=1.0, sigma2=SIGMA2)
    return build_tables(p, MCConfig(seed=1, n_samples=65536), n_points=16)[0]


# (B, R): below, inside and above the bistable window where there is one
WINDOW_RATES = [(2, 1.5), (2, 1.9), (4, 1.3), (4, 1.6), (4, 1.75), (4, 1.9),
                (16, 1.3), (16, 1.6), (16, 2.2), (16, 2.8)]


@pytest.mark.parametrize("B,R", WINDOW_RATES)
def test_scalar_fixed_points_match_dense_scan(mmse_tables, B, R):
    table = mmse_tables[B]
    roots = scalar_fixed_points(UnderlyingParams(B=B, R=R, sigma2=SIGMA2), table)
    scan = dense_scan_fixed_points(table, R, SIGMA2)
    assert roots.size == scan.size and roots.size in (1, 3)
    assert np.all(np.diff(roots) > 0)
    assert np.abs(roots - scan).max() <= 2.5e-6     # half a scan cell
    assert np.abs(table_se_gap(table, R, SIGMA2, roots)).max() <= 1e-12


@pytest.mark.parametrize("B,R", WINDOW_RATES)
def test_basin_boundary_matches_bisection(mmse_tables, B, R):
    p = UnderlyingParams(B=B, R=R, sigma2=SIGMA2)
    assert basin_boundary(p, mmse_tables[B]) == pytest.approx(
        bisection_basin_boundary(p, mmse_tables[B]), abs=1e-6)


def test_basin_boundary_next_to_the_fold(table_b4_16_nodes):
    # just below the fold the floor and the unstable root lie within one
    # radius; the basin ends at the unstable root, not at the first root
    # beyond the radius (0.345)
    p = UnderlyingParams(B=4, R=1.74609375, sigma2=SIGMA2)
    roots = scalar_fixed_points(p, table_b4_16_nodes)
    radius = fixed_point_tolerance(table_b4_16_nodes, p, roots[0])
    assert roots.size == 3 and roots[1] - roots[0] <= radius < roots[2] - roots[0]
    b = basin_boundary(p, table_b4_16_nodes)
    assert b == roots[1]
    assert b == pytest.approx(bisection_basin_boundary(p, table_b4_16_nodes), abs=1e-6)


@pytest.mark.parametrize("B", [2, 4, 16])
def test_fold_rate_matches_floor_jump_scan(mmse_tables, B):
    p = UnderlyingParams(B=B, R=1.0, sigma2=SIGMA2)
    fold = fold_rate(p, mmse_tables[B])
    scan = floor_jump_rate(mmse_tables[B], SIGMA2, 1.0, 3.0, jump=0.05, tol_R=1e-4)
    if B == 2:      # monostable at every rate: the floor never vanishes
        assert fold is None and scan is None
    else:
        assert fold == pytest.approx(scan, abs=2e-3)


def test_fold_rate_on_the_frozen_table(table_b4_16_nodes):
    # the frozen potential history saw the floor at R = 1.74609375 and the
    # high branch at 1.748046875
    p = UnderlyingParams(B=4, R=1.0, sigma2=SIGMA2)
    assert 1.74609375 < fold_rate(p, table_b4_16_nodes) < 1.748046875


@pytest.mark.parametrize("x", [[0.3, 0.1, 0.3, 0.2, 0.1, 0.1], [-0.0, 0.0], [0.0, -0.0],
                               [1.0, -0.0, 0.0, 1.0, -0.0], [0.5], [], np.linspace(1, 0, 7)])
def test_sorted_distinct_is_unique(x):
    x = np.array(x, dtype=float)
    got, want = _sorted_distinct(x.copy()), np.unique(x)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # which zero is kept


def test_scalar_fixed_points_reject_rates_off_the_grid(mmse_tables):
    # roots outside the table grid would be missed, so these raise
    C = capacity(15.0)
    with pytest.raises(ValueError, match="does not cover"):
        scalar_fixed_points(UnderlyingParams(B=4, R=5.0 * C, sigma2=SIGMA2), mmse_tables[4])
    assert scalar_fixed_points(UnderlyingParams(B=4, R=4.0 * C, sigma2=SIGMA2),
                               mmse_tables[4]).size == 1
    # a table built for snr 3 ends below the Sigma that R = 4C reaches at snr 15
    snr3 = build_tables(UnderlyingParams(B=4, R=1.0, sigma2=1.0 / 3.0),
                        MCConfig(seed=0, n_samples=2000), n_points=16)[0]
    with pytest.raises(ValueError, match="does not cover"):
        scalar_fixed_points(UnderlyingParams(B=4, R=4.0 * C, sigma2=SIGMA2), snr3)


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


# Loop equivalence: the package's recursions against the reference loops of
# tests/oracles.py, bit for bit in every reported field and every on_step call.

def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _planted_nonmonotone(table):
    """The table mirrored, hi_value - mmse: it falls as the noise grows, so
    the recursion overshoots and its steps change sign."""
    return dataclasses.replace(table, values=table.hi_value - table.values,
                               lo_value=table.hi_value - table.lo_value, hi_value=0.0)


def _assert_same_coupled(table, p, Gamma, w, J, start, tol, max_iters):
    got_trace, ref_trace = [], []
    run = iterate_coupled(ErrorProfile(start, Gamma, w), J, p, table, tol, max_iters,
                          on_step=lambda t, res, prof: got_trace.append((t, res, prof)))
    ref = reference_iterate_coupled(start, Gamma, w, J, p, table, tol, max_iters,
                                    on_step=lambda t, res, v: ref_trace.append((t, res, v)))
    final, iterations, residual, converged, monotone = ref
    assert _bits(run.final.values) == _bits(final)
    assert (run.iterations, run.converged, run.monotone) == (iterations, converged, monotone)
    assert _bits(run.residual) == _bits(residual)
    # profiles handed to on_step are compared after the run, so a buffer the
    # loop reused would show up here
    assert len(got_trace) == len(ref_trace) == iterations
    for (t, res, prof), (t_ref, res_ref, v_ref) in zip(got_trace, ref_trace):
        assert t == t_ref and _bits(res) == _bits(res_ref)
        assert _bits(prof.values) == _bits(v_ref)
    return run


LOOP_SIZES = [(64, 3), (1024, 16), (1024, 32)]
DESIGNS = ["rectangular", "triangular", "asymmetric-exponential"]


@pytest.mark.parametrize("Gamma,w", LOOP_SIZES, ids=lambda v: str(v))
@pytest.mark.parametrize("kind", DESIGNS)
@pytest.mark.parametrize("R,max_iters,converged", [(1.6, 5000, True), (1.62, 40, False)],
                         ids=["converged", "capped"])
def test_iterate_coupled_matches_reference_loop(params_b4, tables_b4, kind, Gamma, w,
                                                R, max_iters, converged):
    p = params_b4.with_rate(R)
    J = build_coupling_matrix(CoupledParams(p, Gamma, w, make_design(kind)))
    run = _assert_same_coupled(tables_b4[0], p, Gamma, w, J, ones_profile(Gamma, w).values,
                               1e-8, max_iters)
    assert run.converged is converged and run.monotone


@pytest.mark.parametrize("Gamma,w", LOOP_SIZES, ids=lambda v: str(v))
def test_iterate_coupled_nonmonotone_matches_reference_loop(params_b4, tables_b4, Gamma, w):
    J = build_coupling_matrix(CoupledParams(params_b4, Gamma, w, rectangular_design()))
    start = np.full(Gamma, 0.5)
    start[pinned_rows(Gamma, w)] = 0.0
    run = _assert_same_coupled(_planted_nonmonotone(tables_b4[0]), params_b4, Gamma, w, J,
                               start, 1e-8, 30)
    assert not run.monotone


def test_coupled_step_errors_match_reference(params_b4, tables_b4):
    Gamma, w = 64, 3
    prof = ones_profile(Gamma, w)
    too_wide = build_coupling_matrix(CoupledParams(params_b4, Gamma, w + 1, rectangular_design()))
    good = build_coupling_matrix(CoupledParams(params_b4, Gamma, w, rectangular_design()))
    mmse_t = tables_b4[0]
    above_one = dataclasses.replace(mmse_t, values=mmse_t.values + 1.0,
                                    lo_value=mmse_t.lo_value + 1.0,
                                    hi_value=mmse_t.hi_value + 1.0)
    cases = [(too_wide, mmse_t, AssertionError),
             (good, above_one, ValueError),
             (too_wide, above_one, AssertionError)]  # pinned rows are checked first
    for J, table, err in cases:
        with pytest.raises(err) as ref:
            reference_coupled_step(prof.values, Gamma, w, J, params_b4, table)
        # the step itself raises, not a later ErrorProfile
        with pytest.raises(err) as got:
            _coupled_step(prof.values, Gamma, w, J, params_b4, table)
        assert str(got.value) == str(ref.value)
        with pytest.raises(err) as got:
            se_step_coupled(prof, J, params_b4, table)
        assert str(got.value) == str(ref.value)
        with pytest.raises(err) as got:
            iterate_coupled(prof, J, params_b4, table)
        assert str(got.value) == str(ref.value)


def test_coupled_step_rejects_nan(params_b4, tables_b4):
    Gamma, w = 64, 3
    J = build_coupling_matrix(CoupledParams(params_b4, Gamma, w, rectangular_design()))
    v = tables_b4[0].values.copy()
    v[len(v) // 2:] = np.nan
    nan_table = dataclasses.replace(tables_b4[0], values=v, hi_value=math.nan)
    start = ones_profile(Gamma, w).values
    for step in (lambda: reference_coupled_step(start, Gamma, w, J, params_b4, nan_table),
                 lambda: _coupled_step(start, Gamma, w, J, params_b4, nan_table)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            step()


@pytest.mark.parametrize("E_init", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("R,max_iters,planted", [(1.2, 10_000, False), (1.62, 10_000, False),
                                                 (1.62, 7, False), (1.6, 50, True)],
                         ids=["monostable", "bistable", "capped", "nonmonotone"])
def test_iterate_underlying_matches_reference_loop(params_b4, tables_b4, E_init, R,
                                                   max_iters, planted):
    p = params_b4.with_rate(R)
    table = _planted_nonmonotone(tables_b4[0]) if planted else tables_b4[0]
    got_trace, ref_trace = [], []
    run = iterate_underlying(E_init, p, table, 1e-8, max_iters,
                             on_step=lambda *a: got_trace.append(a))
    ref = reference_iterate_underlying(E_init, p, table, 1e-8, max_iters,
                                       on_step=lambda *a: ref_trace.append(a))
    assert _bits(run.final) == _bits(ref[0]) and _bits(run.residual) == _bits(ref[2])
    assert (run.iterations, run.converged, run.monotone) == (ref[1], ref[3], ref[4])
    assert [(t, _bits(r), _bits(E)) for t, r, E in got_trace] == \
        [(t, _bits(r), _bits(E)) for t, r, E in ref_trace]
    if planted:
        assert not run.monotone
    if max_iters == 7:
        assert not run.converged and run.iterations == 7
