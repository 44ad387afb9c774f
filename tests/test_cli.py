import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from scse import (CoupledParams, ErrorProfile, MCConfig, UnderlyingParams,
                  build_coupling_matrix, build_tables, capacity, gaussian_block,
                  iterate_coupled, iterate_underlying, ones_profile, pinned_rows,
                  rectangular_design, se_step_coupled, se_step_underlying)
from scse.cli import main

FAST = ["--samples", "4000", "--n-points", "32"]


def _run(tmp_path, *argv):
    return main([*argv, "--outdir", str(tmp_path)])


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config=")
    cfg = json.loads(lines[0][len("# config="):])
    return cfg, lines[1], lines[2:]


def test_tables_idempotent(tmp_path):
    assert _run(tmp_path, "tables", "--B", "2", *FAST) == 0
    mmse = (tmp_path / "mmse_table.csv").read_bytes()
    ent = (tmp_path / "entropy_table.csv").read_bytes()
    assert _run(tmp_path, "tables", "--B", "2", *FAST) == 0
    assert (tmp_path / "mmse_table.csv").read_bytes() == mmse
    assert (tmp_path / "entropy_table.csv").read_bytes() == ent
    sidecar = json.loads((tmp_path / "tables_config.json").read_text())
    assert sidecar["config"]["B"] == 2 and sidecar["config"]["samples"] == 4000
    assert not any((tmp_path / n).name.endswith(".tmp") for n in os.listdir(tmp_path))


@pytest.mark.parametrize("n_points,coarse", [(16, True), (64, False)])
def test_tables_config_reports_coarse_flags(tmp_path, n_points, coarse):
    assert _run(tmp_path, "tables", "--B", "2", "--samples", "20000",
                "--n-points", str(n_points)) == 0
    flags = json.loads((tmp_path / "tables_config.json").read_text())["too_coarse"]
    p = UnderlyingParams(B=2, R=0.75 * capacity(15.0), sigma2=1.0 / 15.0)
    mmse_t, ent_t = build_tables(p, MCConfig(seed=0, n_samples=20_000), n_points=n_points)
    assert flags == {"mmse": bool(mmse_t.coarse.any()), "entropy": bool(ent_t.coarse.any())}
    assert flags["mmse"] is coarse


def test_tables_default_node_count(tmp_path):
    assert _run(tmp_path, "tables", "--B", "2", "--samples", "4000") == 0
    lines = (tmp_path / "mmse_table.csv").read_text().splitlines()
    # tables carry their own meta line; the full RunConfig is in the sidecar
    assert lines[0].startswith("# ") and "seed=0" in lines[0]
    assert lines[1] == "sigma,value,stderr"
    assert len(lines) - 2 == 256


def test_zero_samples_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "tables", "--B", "2", "--samples", "0")
    assert exc.value.code == 2


def test_se_requires_rate(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "se", "--B", "2", *FAST)
    assert exc.value.code == 2


def test_se_underlying_trace(tmp_path):
    assert _run(tmp_path, "se", "--B", "2", "--R", "1.2", *FAST) == 0
    cfg, header, rows = _read_csv(tmp_path / "se_trace_underlying.csv")
    assert header == "iteration,residual,E"
    assert cfg["R"] == 1.2
    report = json.loads((tmp_path / "se_report_underlying.json").read_text())
    assert report["converged"] is True
    assert report["iterations"] == len(rows) - 1
    last_E = float(rows[-1].split(",")[2])
    assert last_E == pytest.approx(report["E"])
    assert report["residual"] <= 1e-8


def test_se_underlying_nonconvergence_still_exits_zero(tmp_path, capsys):
    assert _run(tmp_path, "se", "--B", "2", "--R", "1.2", "--max-iters", "2",
                *FAST) == 0
    report = json.loads((tmp_path / "se_report_underlying.json").read_text())
    assert report["converged"] is False and report["iterations"] == 2
    assert "did not converge" in capsys.readouterr().out


def test_se_coupled_trace_pins_boundary(tmp_path):
    assert _run(tmp_path, "se", "--mode", "coupled", "--B", "2", "--R", "1.2",
                "--gamma", "24", "--w", "1", *FAST) == 0
    cfg, header, rows = _read_csv(tmp_path / "se_trace_coupled.csv")
    assert header.split(",")[:3] == ["iteration", "residual", "E_1"]
    assert len(header.split(",")) == 24 + 2
    data = np.array([[float(v) for v in r.split(",")[2:]] for r in rows])
    assert np.all(data[:, pinned_rows(24, 1)] == 0.0)
    report = json.loads((tmp_path / "se_report_coupled.json").read_text())
    assert report["converged"] is True
    assert report["profile_max"] <= 0.05  # decodes well below threshold


def test_potential_curve_identity(tmp_path):
    assert _run(tmp_path, "potential", "--B", "2", "--R", "1.2", *FAST) == 0
    cfg, header, rows = _read_csv(tmp_path / "potential_curve.csv")
    assert header == "E,F,U,S,stderr,F_large_B"
    got = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert got.shape[0] == 513
    assert np.array_equal(got[:, 1], got[:, 2] - got[:, 3])  # F = U - S
    assert np.all(np.isfinite(got[:, 5]))
    gap = json.loads((tmp_path / "gap_report.json").read_text())
    assert gap["config"]["R"] == 1.2
    assert "delta_F" in gap and "basin_sup" in gap


def test_verify_passes_at_default_rate(tmp_path, capsys):
    assert _run(tmp_path, "verify", "--B", "2", *FAST) == 0
    out = capsys.readouterr().out
    assert "PASS nishimori" in out and "FAIL" not in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    names = [r["name"] for r in report["reports"]]
    assert names == ["nishimori", "i_mmse", "smoothness", "telescoping",
                     "basin_exclusion", "shift_potential_scaling",
                     "theorem1_decoding"]
    assert all(r["pass"] for r in report["reports"])
    assert report["config"]["B"] == 2 and report["config"]["seed"] == 0


def test_verify_draws_each_gaussian_row_once(tmp_path, monkeypatch, counted_builds):
    # the tables and both identity checks share one pass over the stream:
    # a chunk and a tail, each drawn once
    from scse import denoiser
    drawn = []

    def counting(seed, B, start, stop):
        drawn.append(stop - start)
        return gaussian_block(seed, B, start, stop)

    monkeypatch.setattr(denoiser, "gaussian_block", counting)
    assert _run(tmp_path, "verify", "--B", "2", "--samples", "70001", "--n-points", "32") == 0
    assert sum(drawn) == 70_001 and len(drawn) == 2
    assert counted_builds == []


def test_verify_fails_in_stall_regime(tmp_path, capsys):
    # B=4 at a rate where the window-3 coupled system stalls: the decoding
    # check must fail and the exit code must say so
    code = _run(tmp_path, "verify", "--B", "4", "--R", "1.70",
                "--samples", "20000", "--n-points", "96")
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL theorem1_decoding" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    by_name = {r["name"]: r for r in report["reports"]}
    assert by_name["theorem1_decoding"]["pass"] is False


def test_verify_max_iters_caps_coupled_chains(tmp_path):
    # this stalled chain runs 117 steps under the default cap
    assert _run(tmp_path, "verify", "--B", "4", "--R", "1.7", "--samples", "20000",
                "--n-points", "64", "--max-iters", "50") == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    by_name = {r["name"]: r for r in report["reports"]}
    assert report["config"]["max_iters"] == 50
    assert by_name["theorem1_decoding"]["context"]["iterations"] == 50


def test_thresholds_fail_without_spinodal(tmp_path, capsys):
    code = _run(tmp_path, "thresholds", "--B", "2", "--tol-R", "0.05", *FAST)
    assert code == 1
    err = capsys.readouterr().err
    assert "threshold search failed" in err
    assert not (tmp_path / "thresholds.csv").exists()


def test_thresholds_row(tmp_path):
    code = _run(tmp_path, "thresholds", "--B", "4", "--tol-R", "0.05",
                "--gamma", "48", "--w", "2", *FAST)
    assert code == 0
    cfg, header, rows = _read_csv(tmp_path / "thresholds.csv")
    assert header == "B,snr,Gamma,w,R_u,R_pot,R_c,C"
    vals = rows[0].split(",")
    B, snr, Gamma, w = int(vals[0]), float(vals[1]), int(vals[2]), int(vals[3])
    r_u, r_pot, r_c, C = (float(v) for v in vals[4:])
    assert (B, Gamma, w) == (4, 48, 2) and snr == 15.0
    assert C == capacity(15.0)
    slack = 2 * 0.05
    assert r_u <= r_c + slack and r_u <= r_pot + slack
    assert max(r_u, r_pot, r_c) < C
    for name in ("underlying", "potential", "coupled"):
        rep = json.loads((tmp_path / f"threshold_{name}.json").read_text())
        assert rep["bracket"][0] <= rep["value"] <= rep["bracket"][1]
        assert rep["config"]["tol_R"] == 0.05


def test_thresholds_max_iters_reaches_coupled_solve(tmp_path):
    code = _run(tmp_path, "thresholds", "--B", "4", "--tol-R", "0.05",
                "--gamma", "48", "--w", "2", "--max-iters", "100", *FAST)
    assert code == 0
    rep = json.loads((tmp_path / "threshold_coupled.json").read_text())
    assert rep["config"]["max_iters"] == 100
    iterations = [row["iterations"] for row in rep["metadata"]["history"]]
    assert iterations and max(iterations) <= 100


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"B": 2, "seed": 7, "samples": 4000,
                                    "n_points": 32, "R": 1.2}))
    assert main(["se", "--config", str(cfg_path), "--seed", "9",
                 "--outdir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "se_report_underlying.json").read_text())
    assert report["config"]["seed"] == 9  # flag wins
    assert report["config"]["B"] == 2


def test_config_file_unknown_key(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"B": 2, "bogus": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--config", str(cfg_path), "--outdir", str(tmp_path)])
    assert exc.value.code == 2


# `scse thresholds --B 4 --gamma 64 --w 3 --samples 65536 --n-points 16
# --seed 1`.  Values and brackets were recorded before free_energy_gap's
# refinement moved from scipy.optimize.minimize_scalar to the in-package
# port of the same routine; the evaluation counts and the history were
# re-recorded when the scalar fixed points came to be solved exactly on the
# table (the search no longer evaluates rates at or above the fold).  The
# delta_F strings were re-recorded when free_energy_gap came to take the
# exact minimum over the entropy table's pieces, which lies below the
# refined grid minimum by at most 5.9e-10 here.
FROZEN_THRESHOLDS = {
    "underlying": ("1.568359375", ["1.56640625", "1.5703125"], 8),
    "potential": ("1.642578125", ["1.640625", "1.64453125"], 8),
    "coupled": ("1.626953125", ["1.625", "1.62890625"], 8),
}
# (R, delta_F, basin_sup, E0) of every potential-threshold evaluation, in
# evaluation order
FROZEN_POTENTIAL_HISTORY = [
    ("1.0", "inf", "1.0", "0.0011140308485053374"),
    ("1.5", "inf", "1.0", "0.015032248403332726"),
    ("1.625", "0.008047561982885254", "0.06788640039080611", "0.024708315639006898"),
    ("1.6875", "-0.019955590306668602", "0.04679423667361686", "0.02952576915509439"),
    ("1.65625", "-0.006296735790833674", "0.055842213598876714", "0.027118525808627378"),
    ("1.640625", "0.0007880004227771575", "0.06136322114721511", "0.02591380675772216"),
    ("1.6484375", "-0.0027760040045494705", "0.05849837237520637", "0.026516260828274837"),
    ("1.64453125", "-0.000999437970823136", "0.059902545151830924", "0.026215057670425673"),
]


def test_thresholds_frozen_artifacts(tmp_path):
    assert _run(tmp_path, "thresholds", "--B", "4", "--gamma", "64", "--w", "3",
                "--samples", "65536", "--n-points", "16", "--seed", "1") == 0
    for name, (value, bracket, evaluations) in FROZEN_THRESHOLDS.items():
        rep = json.loads((tmp_path / f"threshold_{name}.json").read_text())
        assert (repr(rep["value"]), [repr(b) for b in rep["bracket"]],
                rep["evaluations"]) == (value, bracket, evaluations), name
    history = json.loads((tmp_path / "threshold_potential.json").read_text())["metadata"]["history"]
    assert [(repr(h["R"]), repr(h["delta_F"]), repr(h["basin_sup"]), repr(h["E0"]))
            for h in history] == FROZEN_POTENTIAL_HISTORY
    _, _, rows = _read_csv(tmp_path / "thresholds.csv")
    assert rows == ["4,15.0,64,3,1.568359375,1.642578125,1.626953125,2.0"]


def test_thresholds_do_not_load_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call; the fixed-point solves
    # take their sorted distinct values without it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    argv = ["thresholds", "--B", "4", "--gamma", "64", "--w", "3", "--samples", "65536",
            "--n-points", "16", "--seed", "1", "--outdir", str(tmp_path)]
    code = ("import sys\nfrom scse.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def counted_builds(monkeypatch):
    from scse import cli
    built = []

    def counting(params, mc, *args, **kwargs):
        built.append(params.B)
        return build_tables(params, mc, *args, **kwargs)

    monkeypatch.setattr(cli, "build_tables", counting)
    return built


def test_thresholds_build_tables_once(tmp_path, counted_builds):
    assert _run(tmp_path, "thresholds", "--B", "4", "--tol-R", "0.05",
                "--gamma", "48", "--w", "2", *FAST) == 0
    evaluations = sum(json.loads((tmp_path / f"threshold_{name}.json").read_text())["evaluations"]
                      for name in ("underlying", "potential", "coupled"))
    assert counted_builds == [4] and evaluations > 3


def test_sweep_builds_tables_once_per_section_size(tmp_path, counted_builds):
    assert main(["sweep", "--B-list", "4,8", "--tol-R", "0.1", "--gamma", "48",
                 "--w", "2", "--samples", "2000", "--n-points", "32",
                 "--outdir", str(tmp_path)]) == 0
    assert counted_builds == [4, 8]


@pytest.mark.parametrize("b_list", ["4,1", "4,0", "4,-2"])
def test_sweep_bad_section_size_rejected_before_any_build(tmp_path, b_list, capsys,
                                                          counted_builds):
    # a bad entry after a good one once built and solved B=4, then died with
    # a ValueError traceback and wrote no sweep.csv
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--B-list", b_list, "--tol-R", "0.1", "--gamma", "48", "--w", "2",
              "--samples", "2000", "--n-points", "16", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    bad = b_list.split(",")[1]
    assert f"--B-list entry {bad}: section size B must be an integer >= 2" in capsys.readouterr().err
    assert counted_builds == [] and not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["se", "potential", "tables", "thresholds",
                                     "verify", "sweep"])
def test_rate_above_table_span_rejected(tmp_path, command, capsys):
    # the tables span the Sigma of rates in [C/256, 4C]; C = 2 at snr 15.  A
    # rate below C/256 once wrote potential_curve.csv and then died in
    # scalar_fixed_points
    for R in ("8.0001", "0.0078"):
        with pytest.raises(SystemExit) as exc:
            _run(tmp_path, command, "--B", "2", "--R", R, *FAST)
        assert exc.value.code == 2
        assert "R must lie in [0.00390625, 4] times capacity" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def test_rate_at_table_span_accepted(tmp_path):
    assert _run(tmp_path, "se", "--B", "2", "--R", "8.0", "--max-iters", "3", *FAST) == 0
    assert _run(tmp_path, "se", "--B", "2", "--R", "0.0078125", "--max-iters", "3", *FAST) == 0


def test_sweep_single_section_size(tmp_path):
    code = main(["sweep", "--B-list", "4", "--tol-R", "0.1", "--gamma", "48",
                 "--w", "2", "--samples", "2000", "--n-points", "32",
                 "--outdir", str(tmp_path)])
    assert code == 0
    cfg, header, rows = _read_csv(tmp_path / "sweep.csv")
    assert header == "B,snr,Gamma,w,R_u,R_pot,R_c,C"
    assert len(rows) == 1 and rows[0].split(",")[0] == "4"


def _reference_trace(step, start, tol, max_iters):
    """The trace rows as an explicit step loop writes them, with residuals."""
    rows = [(0, math.nan, start)]
    state = start
    for t in range(1, max_iters + 1):
        nxt = step(state)
        residual = float(np.abs(np.asarray(nxt) - np.asarray(state)).max())
        state = nxt
        rows.append((t, residual, state))
        if residual <= tol:
            break
    return rows


def _row_text(t, residual, values):
    return ",".join([str(t), repr(float(residual)), *(repr(float(v)) for v in values)])


@pytest.mark.parametrize("mode,max_iters", [("underlying", 10_000), ("underlying", 3),
                                             ("coupled", 10_000), ("coupled", 5)])
def test_se_matches_library(tmp_path, mode, max_iters):
    start = ["--e-init", "0.75"] if mode == "underlying" else []
    argv = ["se", "--mode", mode, "--B", "4", "--R", "1.5", "--gamma", "48", "--w", "2",
            "--seed", "3", *start, "--max-iters", str(max_iters), *FAST]
    assert _run(tmp_path, *argv) == 0
    p = UnderlyingParams(B=4, R=1.5, sigma2=1.0 / 15.0)
    mmse_t, _ = build_tables(p, MCConfig(seed=3, n_samples=4000), n_points=32)
    if mode == "underlying":
        run = iterate_underlying(0.75, p, mmse_t, 1e-8, max_iters)
        ref = _reference_trace(lambda E: se_step_underlying(E, p, mmse_t), 0.75,
                               1e-8, max_iters)
        want = [_row_text(t, r, [E]) for t, r, E in ref]
    else:
        J = build_coupling_matrix(CoupledParams(p, 48, 2, rectangular_design()))
        run = iterate_coupled(ones_profile(48, 2), J, p, mmse_t, 1e-8, max_iters)
        ref = _reference_trace(lambda v: se_step_coupled(ErrorProfile(v, 48, 2), J, p,
                                                         mmse_t).values,
                               ones_profile(48, 2).values, 1e-8, max_iters)
        want = [_row_text(t, r, v) for t, r, v in ref]
    report = json.loads((tmp_path / f"se_report_{mode}.json").read_text())
    assert report["iterations"] == run.iterations == len(want) - 1
    assert report["converged"] is run.converged
    assert report["residual"] == run.residual
    if mode == "underlying":
        assert report["E"] == run.final
    else:
        assert report["profile"] == run.final.values.tolist()
    _, _, rows = _read_csv(tmp_path / f"se_trace_{mode}.csv")
    assert rows == want


@pytest.mark.parametrize("flag,value", [("--tol-R", "0"), ("--tol-R", "-0.01"),
                                        ("--tol-R", "nan"), ("--tol", "0")])
def test_thresholds_tolerance_must_be_positive(tmp_path, flag, value, capsys):
    # a zero, negative or NaN tol_R once left the threshold search bisecting forever
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "thresholds", "--B", "4", flag, value, *FAST)
    assert exc.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args,message", [
    (["--n-points", "3"], "n_points must be at least 16"),
    (["--gamma", "10", "--w", "3"], "need Gamma > 8w"),
])
def test_bad_sizes_rejected_before_any_build(tmp_path, args, message, capsys, counted_builds):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "thresholds", "--B", "4", "--samples", "4000", *args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert counted_builds == [] and not list(tmp_path.iterdir())


@pytest.mark.parametrize("values", [{"max_iters": 50.0}, {"Gamma": 64.0},
                                    {"samples": 2000.0}, {"B": 2.0}, {"seed": 1.0},
                                    {"w": True}], ids=lambda v: next(iter(v)))
def test_config_integers_type_checked(tmp_path, values, capsys, counted_builds):
    # JSON floats and booleans once passed validation, then raised TypeError
    # (some after the table build) or ran and recorded "seed": 1.0 or "w": true
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"B": 4, "samples": 4000, "n_points": 16, **values}))
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["thresholds", "--config", str(cfg_path), "--outdir", str(outdir)])
    assert exc.value.code == 2
    assert "must be an integer" in capsys.readouterr().err
    assert counted_builds == [] and not outdir.exists()


@pytest.mark.parametrize("flag,value", [("--e-init", "2.5"), ("--e-init", "-1"),
                                        ("--e-init", "nan"), ("--max-iters", "-1")])
def test_se_out_of_range_rejected(tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "se", "--B", "2", "--R", "1.2", flag, value, *FAST)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_se_coupled_rejects_e_init(tmp_path, capsys, counted_builds):
    # the coupled recursion starts from the all-ones profile; an --e-init
    # there was once accepted, used nowhere and recorded nowhere
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "se", "--B", "4", "--R", "1.6", "--mode", "coupled", "--e-init", "0.2",
             "--gamma", "32", "--w", "2", *FAST)
    assert exc.value.code == 2
    assert "--e-init applies to --mode underlying only" in capsys.readouterr().err
    assert counted_builds == [] and not list(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["flag", "config"])
def test_rectangular_design_rejects_design_param(tmp_path, source, capsys, counted_builds):
    # the rectangular design has no parameter; a given one was once dropped
    # and yet recorded as "design_param" in every artifact
    outdir = tmp_path / "out"
    argv = ["se", "--B", "4", "--R", "1.6", "--mode", "coupled", "--gamma", "32", "--w", "2",
            "--outdir", str(outdir), *FAST]
    if source == "flag":
        argv += ["--design", "rectangular", "--design-param", "0.3"]
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"design": "rectangular", "design_param": 0.3}))
        argv += ["--config", str(cfg_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "rectangular design takes no parameter" in capsys.readouterr().err
    assert counted_builds == [] and not outdir.exists()
