import tracemalloc

import numpy as np
import pytest

from scse import (CoupledParams, ErrorProfile, MCConfig, UnderlyingParams,
                  build_coupling_matrix, build_tables, denoiser, iterate_coupled,
                  iterate_underlying, ones_profile, rectangular_design,
                  saturate_profile, shift, triangular_design)
from scse.verification import (LemmaReport, i_mmse_report, nishimori_report,
                               run_suite, shift_potential_scaling,
                               theorem1_experiment, verify_basin_exclusion,
                               verify_smoothness, verify_telescoping)

from conftest import MC_TWO_CHUNKS, serial_untiled

SIGMA2 = 1.0 / 15.0


def _synthetic_saturation(params, tables, Gamma, w, E_max, ramp_len=12):
    mmse_t, _ = tables
    E0 = iterate_underlying(0.0, params, mmse_t).final
    vals = np.full(Gamma, E0)
    start = Gamma // 3
    vals[start: start + ramp_len] = np.linspace(E0, E_max, ramp_len)
    vals[start + ramp_len:] = E_max
    return saturate_profile(ErrorProfile(vals, Gamma, w), E0)


def test_lemma_report_to_dict():
    rep = LemmaReport("x", True, 1.0, 2.0, 0.1, {"a": 1})
    d = rep.to_dict()
    assert d["pass"] is True and d["name"] == "x" and d["context"] == {"a": 1}
    assert not d["skipped"]


def test_smoothness_bound():
    design = rectangular_design()
    sat = saturate_profile(
        ErrorProfile(np.linspace(0.0, 0.5, 40), 40, 4), 0.0)
    rep = verify_smoothness(sat, design, 4)
    assert rep.passed  # increments ~0.0128 < (0+1)/4
    assert rep.measured == pytest.approx(0.5 / 39)
    assert rep.bound == pytest.approx(0.25)
    steep = saturate_profile(
        ErrorProfile(np.concatenate([np.zeros(20), np.full(20, 0.9)]), 40, 4), 0.0)
    rep2 = verify_smoothness(steep, design, 4)
    assert not rep2.passed


def test_telescoping_exact_on_synthetic_profile(params_b4, tables_b4):
    J = build_coupling_matrix(CoupledParams(params_b4, 64, 3, rectangular_design()))
    sat = _synthetic_saturation(params_b4, tables_b4, 64, 3, E_max=0.28)
    rep = verify_telescoping(sat, J, params_b4, tables_b4)
    assert rep.passed
    assert rep.measured["residual"] <= 1e-12  # identity is exact in floats
    assert rep.measured["u_residual"] <= 1e-12
    assert rep.bound["u_residual"] == 1e-10


def test_telescoping_degenerate_trivial(params_b2, tables_b2):
    J = build_coupling_matrix(CoupledParams(params_b2, 32, 2, rectangular_design()))
    run = iterate_coupled(ones_profile(32, 2), J, params_b2, tables_b2[0])
    E0 = iterate_underlying(0.0, params_b2, tables_b2[0]).final
    sat = saturate_profile(run.final, E0)
    assert sat.degenerate
    rep = verify_telescoping(sat, J, params_b2, tables_b2)
    assert rep.passed
    assert rep.measured["residual"] == 0.0
    assert rep.measured["u_residual"] == 0.0


def test_telescoping_reports_boundary_violation(params_b4, tables_b4):
    # maximum plateau starting inside the right pinned zone breaks the
    # telescoping precondition and must be reported, not silently skipped
    Gamma, w = 64, 3
    E0 = iterate_underlying(0.0, params_b4, tables_b4[0]).final
    vals = np.full(Gamma, E0)
    vals[-2:] = 0.3
    sat = saturate_profile(ErrorProfile(vals, Gamma, w), E0)
    assert sat.r_max > Gamma - 3 * w
    J = build_coupling_matrix(CoupledParams(params_b4, Gamma, w, rectangular_design()))
    rep = verify_telescoping(sat, J, params_b4, tables_b4)
    assert not rep.passed and not rep.skipped
    assert "boundary" in rep.context["reason"]


def test_basin_exclusion(params_b4, tables_b4):
    sat = _synthetic_saturation(params_b4, tables_b4, 64, 3, E_max=0.28)
    rep = verify_basin_exclusion(sat, params_b4, tables_b4[0])
    assert rep.passed and not rep.skipped
    assert rep.measured > rep.bound
    # a maximum inside the basin is attracted back and must fail
    low = _synthetic_saturation(params_b4, tables_b4, 64, 3, E_max=0.05)
    rep2 = verify_basin_exclusion(low, params_b4, tables_b4[0])
    assert not rep2.passed
    # degenerate saturations are skipped
    degen = _synthetic_saturation(params_b4, tables_b4, 64, 3, E_max=0.0)
    rep3 = verify_basin_exclusion(degen, params_b4, tables_b4[0])
    assert rep3.skipped and rep3.passed


def test_nishimori_report(params_b4, mc_small):
    rep = nishimori_report(params_b4, MCConfig(seed=0, n_samples=20_000))
    assert rep.passed
    assert rep.measured <= rep.bound
    assert len(rep.context["points"]) == 16


def test_i_mmse_report_true_constant(params_b4):
    mc = MCConfig(seed=0, n_samples=20_000)
    rep = i_mmse_report(params_b4, mc)
    assert rep.passed
    assert rep.context["coefficient"] == pytest.approx(2.0 / (2.0 * np.log(2.0)))
    assert len(rep.context["points"]) == 8


def test_i_mmse_report_rejects_half_constant(params_b4):
    # the claimed B-independent constant 1/2 is wrong for every B in bits
    mc = MCConfig(seed=0, n_samples=20_000)
    rep = i_mmse_report(params_b4, mc, coefficient=0.5)
    assert not rep.passed


def test_theorem1_experiment_decodes_below_threshold(params_b4, tables_b4):
    rep = theorem1_experiment(params_b4, 1.5, 64, 3, tables_b4,
                              rectangular_design(), scan_w=True)
    assert rep.passed
    assert rep.context["min_decoding_w"] is not None
    assert rep.context["delta_F"] > 0


def test_theorem1_experiment_stalls_above_coupled_threshold(params_b4, mc_small):
    p = params_b4.with_rate(1.70)
    tabs = build_tables(p, mc_small, n_points=96)
    rep = theorem1_experiment(params_b4, 1.70, 64, 3, tabs,
                              rectangular_design(), scan_w=False)
    assert not rep.passed
    assert rep.measured > rep.bound


def test_shift_potential_scaling_trivial_when_decoding(params_b4, tables_b4):
    rep = shift_potential_scaling(params_b4, 1.5, 64, [2, 3], tables_b4,
                                  rectangular_design())
    assert rep.passed
    assert all(row["decoded"] for row in rep.context["rows"])


def test_shift_potential_scaling_mixed_regime_fails(params_b4, mc_small):
    # at R=1.70 the w=3 system stalls but w=6 decodes; the scaling check
    # requires a uniform stall and must say so
    p = params_b4.with_rate(1.70)
    tabs = build_tables(p, mc_small, n_points=96)
    rep = shift_potential_scaling(params_b4, 1.70, 64, [3, 6], tabs,
                                  rectangular_design())
    decoded = [row.get("decoded") for row in rep.context["rows"]]
    if all(d is False for d in decoded):
        pytest.skip("both widths stalled with these tables; regime is uniform")
    assert not rep.passed
    assert rep.context["reason"] == "stall regime not uniform in w"


def test_run_suite_names_and_pass(params_b2, mc_small):
    reports = run_suite(params_b2, 32, 2, rectangular_design(), mc_small, n_points=96)
    names = [r.name for r in reports]
    assert names == ["nishimori", "i_mmse", "smoothness", "telescoping",
                     "basin_exclusion", "shift_potential_scaling",
                     "theorem1_decoding"]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("seed", [5, 6])
def test_nishimori_seed_independent_verdict(seed):
    # at E = 0 the difference is nonzero only on rare samples; a z-test on
    # the sample stderr failed these seeds (z = 5.6 and 4.4 at B = 16)
    p = UnderlyingParams(B=16, R=0.75 * 2.0, sigma2=SIGMA2)
    rep = nishimori_report(p, MCConfig(seed=seed, n_samples=100_000))
    assert rep.passed and rep.measured <= rep.bound == 1.0
    for pt in rep.context["points"]:
        assert abs(pt["diff"]) <= pt["bound"] and pt["stderr"] >= 0.0


def test_nishimori_catches_planted_sign_error(params_b4, monkeypatch):
    import scse.verification as verification
    real = verification.section_stats

    def flipped(z, sigma, B, bounds=None):
        st = real(z, sigma, B, bounds)
        st["mmse"] = st["mmse"] + 4.0 * st["f1"]  # sign error on the -2 f1 term
        return st

    monkeypatch.setattr(verification, "section_stats", flipped)
    rep = nishimori_report(params_b4, MCConfig(seed=0, n_samples=20_000))
    assert not rep.passed and rep.measured > rep.bound


B16 = UnderlyingParams(B=16, R=1.5, sigma2=SIGMA2)


@pytest.fixture(scope="module")
def serial_untiled_reports():
    with serial_untiled():
        return nishimori_report(B16, MC_TWO_CHUNKS), i_mmse_report(B16, MC_TWO_CHUNKS)


def test_reports_independent_of_workers_and_tiles(mc_layout, serial_untiled_reports):
    got = nishimori_report(B16, MC_TWO_CHUNKS), i_mmse_report(B16, MC_TWO_CHUNKS)
    assert [r.to_dict() for r in got] == [r.to_dict() for r in serial_untiled_reports]


@pytest.fixture(scope="module")
def serial_untiled_tables():
    with serial_untiled():
        return build_tables(B16, MC_TWO_CHUNKS, n_points=32)


def test_run_suite_shares_one_pass(mc_layout, monkeypatch, serial_untiled_tables,
                                   serial_untiled_reports):
    # the tables and both identity checks come from one pass over the stream,
    # bit for bit what separate build_tables, nishimori_report and
    # i_mmse_report calls give; the tables are read off theorem1_experiment
    import scse.verification as verification
    seen = []

    def spying(params, R, Gamma, w, tables, *args, **kwargs):
        seen.append(tables)
        return theorem1_experiment(params, R, Gamma, w, tables, *args, **kwargs)

    monkeypatch.setattr(verification, "theorem1_experiment", spying)
    reports = run_suite(B16, 32, 2, rectangular_design(), MC_TWO_CHUNKS, n_points=32)
    assert [r.to_dict() for r in reports[:2]] == [r.to_dict() for r in serial_untiled_reports]
    (tables,) = seen
    for got, want in zip(tables, serial_untiled_tables):
        for name in ("sigma_grid", "values", "stderrs", "coarse"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.meta == want.meta


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("report", [nishimori_report, i_mmse_report])
def test_report_chunk_memory(monkeypatch, workers, report):
    # the 8 MiB Gaussian block plus, per worker, one point's statistics and
    # one cache-sized tile of scratch
    monkeypatch.setattr(denoiser, "_WORKERS", workers)
    mc = MCConfig(seed=0, n_samples=65536)
    report(B16, mc)  # starts the pool outside the trace
    tracemalloc.start()
    try:
        report(B16, mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20
