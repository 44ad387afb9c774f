import tracemalloc

import numpy as np
import pytest

from scse import (CoupledParams, ErrorProfile, MCConfig, UnderlyingParams,
                  build_coupling_matrix, build_tables, denoiser, entropy_estimate,
                  iterate_coupled, iterate_underlying, mmse_estimate, ones_profile,
                  rectangular_design, saturate_profile, shift, triangular_design)
from scse.verification import (LemmaReport, coupled_chain, i_mmse_report,
                               nishimori_report, run_suite, shift_potential_scaling,
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
    rep = LemmaReport("x", True, 1.0, 2.0, {"a": 1})
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
    p = params_b4.with_rate(1.5)
    chain = coupled_chain(p, 64, 3, rectangular_design(), tables_b4[0])
    rep = theorem1_experiment(p, chain, tables_b4)
    assert rep.passed
    assert rep.context["delta_F"] > 0


def test_theorem1_experiment_stalls_above_coupled_threshold(params_b4, mc_small):
    p = params_b4.with_rate(1.70)
    tabs = build_tables(p, mc_small, n_points=96)
    rep = theorem1_experiment(p, coupled_chain(p, 64, 3, rectangular_design(), tabs[0]), tabs)
    assert not rep.passed
    assert rep.measured > rep.bound


def test_shift_potential_scaling_trivial_when_decoding(params_b4, tables_b4):
    p = params_b4.with_rate(1.5)
    chains = [coupled_chain(p, 64, w, rectangular_design(), tables_b4[0]) for w in (2, 3)]
    rep = shift_potential_scaling(p, chains, tables_b4)
    assert rep.passed
    assert all(row["decoded"] for row in rep.context["rows"])


def test_shift_potential_scaling_mixed_regime_fails(params_b4, mc_small):
    # at R=1.70 the w=3 system stalls but w=6 decodes; the scaling check
    # requires a uniform stall and must say so
    p = params_b4.with_rate(1.70)
    tabs = build_tables(p, mc_small, n_points=96)
    chains = [coupled_chain(p, 64, w, rectangular_design(), tabs[0]) for w in (3, 6)]
    rep = shift_potential_scaling(p, chains, tabs)
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


# run_suite(B=4, R=1.7, Gamma=64, w=3) on the seed-0, 20000-sample, 64-node
# tables: the w=3 chain stalls after 117 steps and the w=6 chain decodes.
# Recorded while each check still ran its own chain.
FROZEN_STALLED = {
    "telescoping_lhs": "0.028940438434318594",
    "telescoping_rhs": "0.028940438434314375",
    "basin_exclusion": "0.33247780434994656",
    "dFc_w3": "0.028940438434318594",
    "theorem1_measured": "0.33930847219381965",
    "theorem1_iterations": 117,
}


@pytest.fixture(scope="module")
def stalled_suite():
    """The stalled run_suite's reports by name, and the (Gamma, w) of each
    coupled_decode call it made."""
    import scse.verification as verification
    real = verification.coupled_decode
    seen = []

    def spying(J, *args, **kwargs):
        seen.append((J.Gamma, J.w))
        return real(J, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "coupled_decode", spying)
        reports = run_suite(UnderlyingParams(B=4, R=1.7, sigma2=SIGMA2), 64, 3,
                            rectangular_design(), MCConfig(seed=0, n_samples=20_000),
                            n_points=64)
    return {r.name: r for r in reports}, seen


def test_run_suite_runs_each_chain_once(stalled_suite):
    # the w=3 chain feeds smoothness, telescoping, basin exclusion and
    # Theorem 1; the shift scaling reads it next to the w=6 chain
    _, seen = stalled_suite
    assert seen == [(64, 3), (64, 6)]


def test_run_suite_stalled_numbers_frozen(stalled_suite):
    reports, _ = stalled_suite
    tele, thm = reports["telescoping"], reports["theorem1_decoding"]
    rows = reports["shift_potential_scaling"].context["rows"]
    assert [row["decoded"] for row in rows] == [False, True]
    assert {"telescoping_lhs": repr(tele.context["lhs"]),
            "telescoping_rhs": repr(tele.context["rhs"]),
            "basin_exclusion": repr(reports["basin_exclusion"].measured),
            "dFc_w3": repr(rows[0]["dFc"]),
            "theorem1_measured": repr(thm.measured),
            "theorem1_iterations": thm.context["iterations"]} == FROZEN_STALLED


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

    def flipped(z, sigma, B, bounds, keys):
        st = real(z, sigma, B, bounds, keys)
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


# each point's (mean, stderr) as repr strings: nishimori_report's diff and
# i_mmse_report's slope_plus_c_mmse for B16 on MC_TWO_CHUNKS, recorded before
# the kernel formed only the statistics its caller reads
FROZEN_REPORTS = {
    "nishimori": [
        ("-1.8761249031636647e-05", "1.4389161540164863e-05"),
        ("-0.00030637478084476145", "0.00019738435445767344"),
        ("-0.00030819995828192624", "0.00042400290828960925"),
        ("-0.0007650826481332947", "0.0005884293474231682"),
        ("-0.0010670187032858533", "0.000691307612376114"),
        ("-0.0012483231730165746", "0.0007522693293505257"),
        ("-0.0013687604763202741", "0.000785259387746827"),
        ("-0.0014109118268592488", "0.000799640204726902"),
        ("-0.0013768711873927528", "0.0008016861466127065"),
        ("-0.0012898326815643853", "0.0007956370784883902"),
        ("-0.0011752072697987222", "0.0007843508810817538"),
        ("-0.0010519853168014205", "0.0007697490646966615"),
        ("-0.0009319065455530758", "0.000753128280689922"),
        ("-0.00082117322737099", "0.0007353685772500931"),
        ("-0.0007223722025042591", "0.0007170693013395623"),
        ("-0.000635962814085995", "0.0006986382961844254"),
    ],
    "i_mmse": [
        ("-0.00010265273605329349", "0.0003676201023668624"),
        ("-0.0010385173265982772", "0.0013233512111660397"),
        ("-0.004231923104279182", "0.0028177829519526417"),
        ("-0.008173640963044768", "0.004438396295907808"),
        ("-0.00922568712394279", "0.006082799203294932"),
        ("-0.008422704470674143", "0.00791836485580674"),
        ("-0.008865859884372454", "0.010208490161115219"),
        ("-0.010572461055106607", "0.013192126614758267"),
    ],
}


def test_report_points_frozen(serial_untiled_reports):
    nishimori, i_mmse = serial_untiled_reports
    got = {"nishimori": [(repr(p["diff"]), repr(p["stderr"]))
                         for p in nishimori.context["points"]],
           "i_mmse": [(repr(p["slope_plus_c_mmse"]), repr(p["stderr"]))
                      for p in i_mmse.context["points"]]}
    assert got == FROZEN_REPORTS


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

    def spying(params, chain, tables, *args, **kwargs):
        seen.append(tables)
        return theorem1_experiment(params, chain, tables, *args, **kwargs)

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
    assert peak < 12.5 * 2 ** 20


def test_jobs_ask_the_kernel_for_what_they_read(monkeypatch, params_b4):
    # per chunk: the Nishimori check reads mmse and f1 at each of its 16
    # points; the I-MMSE check reads four entropies and one mmse at each of
    # its 8; an estimate reads its one statistic
    import scse.verification as verification
    real = denoiser.section_stats
    seen = []

    def spying(z, sigma, B, bounds, keys):
        seen.append(keys)
        return real(z, sigma, B, bounds, keys)

    monkeypatch.setattr(verification, "section_stats", spying)
    monkeypatch.setattr(denoiser, "section_stats", spying)
    monkeypatch.setattr(denoiser, "_WORKERS", 1)  # the jobs run in order
    mc = MCConfig(seed=0, n_samples=1000)
    nishimori_report(params_b4, mc)
    assert seen == [("mmse", "f1")] * 16
    seen.clear()
    i_mmse_report(params_b4, mc)
    assert seen == [("entropy",), ("entropy",), ("mmse",), ("entropy",), ("entropy",)] * 8
    for estimate, key in ((mmse_estimate, "mmse"), (entropy_estimate, "entropy")):
        seen.clear()
        estimate(0.8, params_b4, mc)
        assert seen == [(key,)]
