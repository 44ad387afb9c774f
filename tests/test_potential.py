import math
import os
import subprocess
import sys

import numpy as np
import pytest

import scse
from scse import (CoupledParams, ErrorProfile, MCConfig, MonotoneTable,
                  UnderlyingParams, build_coupling_matrix, build_tables,
                  free_energy_gap, iterate_underlying, potential_coupled,
                  potential_curve, potential_energy_underlying,
                  potential_large_B, potential_underlying,
                  rectangular_design, scalar_fixed_points,
                  sigma_underlying, stationarity_residual)
from scse import potential, state_evolution
from scse.denoiser import default_sigma_span

from oracles import (b2_entropy_quad, dense_gap_oracle, fd_slope,
                     grid_argmin, large_b_potential_direct)

SIGMA2 = 1.0 / 15.0
LN2 = math.log(2.0)


def test_energy_term_derivative_identity(params_b4):
    # dU/dE = E / (2 R ln2 (sigma2+E)^2), a closed-form consequence of the
    # energy expression; checked by centered differences.
    for E in (0.05, 0.3, 0.8):
        slope = fd_slope(lambda x: potential_energy_underlying(x, params_b4), E, 1e-6)
        want = E / (2 * params_b4.R * LN2 * (params_b4.sigma2 + E) ** 2)
        assert slope == pytest.approx(want, rel=1e-5)
    assert potential_energy_underlying(0.0, params_b4) == pytest.approx(
        math.log2(params_b4.sigma2) / (2 * params_b4.R))
    with pytest.raises(ValueError):
        potential_energy_underlying(-0.2, params_b4)


def test_potential_underlying_matches_quadrature(params_b2, tables_b2):
    _, ent_t = tables_b2
    for E in (0.1, 0.4, 0.9):
        sig = sigma_underlying(E, params_b2)
        want = potential_energy_underlying(E, params_b2) - b2_entropy_quad(sig)
        got = potential_underlying(E, params_b2, ent_t)
        assert got == pytest.approx(want, abs=max(5 * ent_t.stderr_at(sig), 2e-3))


def test_potential_curve_identity(params_b2, tables_b2):
    grid = np.linspace(0.0, 1.0, 33)
    curve = potential_curve(params_b2, tables_b2[1], grid)
    np.testing.assert_allclose(curve.F_values, curve.U_values - curve.S_values,
                               atol=1e-15)
    assert (curve.stderrs >= 0).all()
    assert curve.E_grid.shape == curve.F_values.shape == (33,)


def test_gap_infinite_when_basin_is_everything(params_b2, tables_b2):
    gap = free_energy_gap(params_b2, tables_b2)
    assert gap.delta_F == math.inf
    assert gap.basin_sup == 1.0
    assert gap.argmin_E is None
    assert gap.E0 == scalar_fixed_points(params_b2, tables_b2[0])[0]
    assert gap.E0 == pytest.approx(iterate_underlying(0.0, params_b2, tables_b2[0]).final,
                                   abs=1e-7)


def test_gap_positive_inside_window(params_b4, tables_b4):
    gap = free_energy_gap(params_b4, tables_b4)
    assert 0.0 < gap.delta_F < 1.0
    assert 0.0 < gap.basin_sup < 1.0
    assert gap.basin_sup < gap.argmin_E <= 1.0
    # grid oracle on the same table-backed potential
    E_best, F_best = grid_argmin(
        lambda E: potential_underlying(E, params_b4, tables_b4[1]),
        gap.basin_sup, 1.0, 4001)
    E0 = scalar_fixed_points(params_b4, tables_b4[0])[0]
    assert gap.E0 == E0
    assert E0 == pytest.approx(iterate_underlying(0.0, params_b4, tables_b4[0]).final, abs=1e-7)
    want = F_best - potential_underlying(E0, params_b4, tables_b4[1])
    # the solver refines past the oracle grid, so it can only be lower
    assert gap.delta_F <= want + 1e-12
    assert gap.delta_F >= want - 1e-4
    assert gap.argmin_E == pytest.approx(E_best, abs=1e-3)


def test_gap_sign_flips_across_potential_threshold(params_b4, mc_small):
    gaps = {}
    for R in (1.55, 1.72):
        p = params_b4.with_rate(R)
        tabs = build_tables(p, mc_small, n_points=96)
        gaps[R] = free_energy_gap(p, tabs).delta_F
    assert gaps[1.55] > 0.0
    assert gaps[1.72] < 0.0


def test_gap_solves_the_fixed_points_once(monkeypatch, params_b4, tables_b4):
    # E0 and the basin boundary read the same roots
    calls = []

    def counting(params, table):
        calls.append(params.R)
        return scalar_fixed_points(params, table)

    monkeypatch.setattr(potential, "scalar_fixed_points", counting)
    monkeypatch.setattr(state_evolution, "scalar_fixed_points", counting)
    gap = free_energy_gap(params_b4, tables_b4)
    assert 0.0 < gap.basin_sup < 1.0
    assert calls == [params_b4.R]


def test_potential_coupled_sums_rows_and_columns(params_b4, tables_b4):
    J = build_coupling_matrix(CoupledParams(params_b4, 24, 1, rectangular_design()))
    vals = np.linspace(0.05, 0.6, 24)
    prof = ErrorProfile(vals, 24, 1)
    got = potential_coupled(prof, J, params_b4, tables_b4)
    U = sum(potential_energy_underlying(float(e), params_b4) for e in vals)
    S = 0.0
    for c in range(24):
        m = (J.J[:, c] / (params_b4.R * (params_b4.sigma2 + vals))).mean()
        S += tables_b4[1](m ** -0.5)
    assert got == pytest.approx(U - S, abs=1e-10)


def test_constant_profile_coupled_potential_is_scalar_sum(params_b4, tables_b4):
    # column means of J are 1 in the interior, so a constant profile sees the
    # scalar effective noise in every interior column
    J = build_coupling_matrix(CoupledParams(params_b4, 40, 2, rectangular_design()))
    prof = ErrorProfile(np.full(40, 0.3), 40, 2)
    sig = sigma_underlying(0.3, params_b4)
    got = potential_coupled(prof, J, params_b4, tables_b4)
    per_block = potential_underlying(0.3, params_b4, tables_b4[1])
    # edge columns deviate; compare per-block value on the interior only
    interior = J.interior_columns()
    S_edge = 0.0
    for c in np.setdiff1d(np.arange(40), interior):
        m = (J.J[:, c] / (params_b4.R * (params_b4.sigma2 + prof.values))).mean()
        S_edge += tables_b4[1](m ** -0.5)
    want = 40 * potential_energy_underlying(0.3, params_b4) \
        - interior.size * tables_b4[1](sig) - S_edge
    assert got == pytest.approx(want, abs=1e-10)
    assert got == pytest.approx(40 * per_block, abs=0.5)


def test_large_B_potential_closed_form(params_b4):
    for E in (0.0, 0.1, 0.5, 1.0):
        assert potential_large_B(E, params_b4) == pytest.approx(
            large_b_potential_direct(E, params_b4.R, params_b4.sigma2), abs=1e-14)


def test_large_B_potential_kink_continuity():
    # the entropy branch switches where 2 ln2 R (sigma2+E) = 1
    p = UnderlyingParams(B=4, R=1.2, sigma2=SIGMA2)
    E_kink = 1.0 / (2 * LN2 * p.R) - p.sigma2
    assert 0 < E_kink < 1
    below = potential_large_B(E_kink - 1e-9, p)
    above = potential_large_B(E_kink + 1e-9, p)
    assert below == pytest.approx(above, abs=1e-7)


def test_stationarity_residual_contrast(params_b4, tables_b4):
    mmse_t, ent_t = tables_b4
    E_fix = iterate_underlying(1.0, params_b4, mmse_t).final
    at_fix = stationarity_residual(E_fix, params_b4, ent_t, h=5e-3)
    away = stationarity_residual(0.8, params_b4, ent_t, h=5e-3)
    assert away > 5 * at_fix
    # one-sided fallback at the boundary stays finite
    assert math.isfinite(stationarity_residual(0.0, params_b4, ent_t, h=5e-3))
    assert math.isfinite(stationarity_residual(1.0, params_b4, ent_t, h=5e-3))


# The exact gap against a dense oracle: every value it takes is F at a point
# of [basin_sup, 1], so it can only sit at or below the oracle's minimum.

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gap_is_the_exact_minimum_on_the_table(seed):
    # 16-node B=4 tables at R=1.63: the minimum sits at a node kink, where F
    # has no zero slope for a local search to converge on
    p = UnderlyingParams(B=4, R=1.63, sigma2=SIGMA2)
    tabs = build_tables(p, MCConfig(seed=seed, n_samples=65536), n_points=16)
    gap = free_energy_gap(p, tabs)
    want, E_want = dense_gap_oracle(p, tabs, gap.basin_sup, gap.E0)
    assert want - 1e-9 <= gap.delta_F <= want + 1e-15
    assert gap.basin_sup <= gap.argmin_E <= 1.0
    assert gap.argmin_E == pytest.approx(E_want, abs=1e-6)


def test_gap_finds_a_minimum_inside_a_segment(tables_b4):
    # a hand-built entropy table, logistic in log Sigma, whose F has its least
    # value between two node preimages: only the segment's cubic root finds it
    p = UnderlyingParams(B=4, R=1.72, sigma2=SIGMA2)
    grid = np.geomspace(*default_sigma_span(p), 48)
    values = 1.0 / (1.0 + np.exp(-2.0 * (np.log(grid) + 0.75)))
    entropy = MonotoneTable(grid, values, np.zeros(48), 0.0, 1.0, np.zeros(47, dtype=bool))
    gap = free_energy_gap(p, (tables_b4[0], entropy))
    want, _ = dense_gap_oracle(p, (tables_b4[0], entropy), gap.basin_sup, gap.E0)
    assert want - 1e-9 <= gap.delta_F <= want + 1e-15
    preimages = grid ** 2 / p.R - p.sigma2
    assert np.abs(preimages - gap.argmin_E).min() > 1e-3
    assert gap.basin_sup + 1e-3 < gap.argmin_E < 1.0 - 1e-3


def test_import_does_not_load_scipy_optimize():
    # a fresh interpreter: this test session has imported scipy.optimize itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(scse.__file__)))
    code = ("import sys, scse, scse.cli\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy.optimize'))\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
