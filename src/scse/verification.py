"""Named numerical experiments behind the saturation argument.

Each check returns a LemmaReport so a whole suite can run as one command and
serialize to JSON.  The checks mirror the proof machinery: smoothness of
saturated profiles, the exact telescoping of the shifted coupled potential,
exclusion of the saturated maximum from the floor's basin, the O(1/w)
shift-potential scaling, and the end-to-end decoding experiment, plus the
Bayes-consistency identities of the denoiser (Nishimori, entropy/MMSE
derivative).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .denoiser import MCConfig, Plan, section_stats, stream_plans, table_plan
from .ensemble import (CoupledParams, CouplingMatrix, DesignFunction,
                       UnderlyingParams, build_coupling_matrix)
from .potential import (free_energy_gap, potential_coupled,
                        potential_energy_underlying, potential_underlying)
from .state_evolution import (DEFAULT_TOL, ErrorProfile, SaturatedProfile,
                              _inverse_noise_moment, coupled_decode,
                              fixed_point_tolerance, iterate_underlying,
                              max_profile_increment, saturate_profile, shift,
                              sigma_underlying)

LN2 = math.log(2.0)
NISHIMORI_DELTA = 1e-3  # joint failure probability of the Nishimori bound


@dataclass(frozen=True)
class LemmaReport:
    name: str
    passed: bool
    measured: object
    bound: object
    tolerance: float
    context: dict = field(default_factory=dict)
    skipped: bool = False

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "measured": self.measured,
                "bound": self.bound, "tolerance": self.tolerance,
                "context": self.context, "skipped": self.skipped}


def verify_smoothness(saturated: SaturatedProfile, design: DesignFunction,
                      w: int) -> LemmaReport:
    """Neighboring entries of a saturated profile move by less than (g*+g~)/w."""
    measured = max_profile_increment(saturated.values)
    bound = (design.gstar + design.gtilde) / w
    return LemmaReport("smoothness", measured < bound, measured, bound, 0.0,
                       {"w": w, "design": design.kind, "E_max": saturated.E_max})


def verify_telescoping(saturated: SaturatedProfile, J: CouplingMatrix,
                       params: UnderlyingParams, tables) -> LemmaReport:
    """Shifting a saturated profile changes the coupled potential by exactly
    the scalar potential difference between its two plateaus.

    The energy part telescopes in closed form and must cancel to round-off;
    the entropy part relies on the column-mean structure of J and is checked
    against a conservative root-sum-square of the table noise (common random
    numbers make the true error far smaller).
    """
    Gamma, w = J.Gamma, J.w
    _, entropy_table = tables
    if not saturated.degenerate and saturated.r_max > Gamma - 3 * w:
        return LemmaReport("telescoping", False, None, None, 0.0,
                           {"reason": f"saturated maximum at block {saturated.r_max} "
                                      f"reaches the right boundary zone"}, skipped=False)
    E = saturated.values
    SE_vals = shift(E, saturated.E0)
    prof = ErrorProfile(E, Gamma, w)
    prof_s = ErrorProfile(SE_vals, Gamma, w)
    lhs = potential_coupled(prof_s, J, params, tables) - potential_coupled(prof, J, params, tables)
    rhs = (potential_underlying(saturated.E0, params, entropy_table)
           - potential_underlying(saturated.E_max, params, entropy_table))
    residual = abs(lhs - rhs)

    def entropy_noise(values):
        sig = _inverse_noise_moment(values, J, params) ** -0.5
        return sum(entropy_table.stderr_at(s) ** 2 for s in sig)

    noise = math.sqrt(entropy_noise(E) + entropy_noise(SE_vals)
                      + entropy_table.stderr_at(sigma_underlying(saturated.E0, params)) ** 2
                      + entropy_table.stderr_at(sigma_underlying(saturated.E_max, params)) ** 2)
    # energy part alone, closed form, must telescope to round-off
    u_lhs = (sum(potential_energy_underlying(float(e), params) for e in SE_vals)
             - sum(potential_energy_underlying(float(e), params) for e in E))
    u_rhs = (potential_energy_underlying(saturated.E0, params)
             - potential_energy_underlying(saturated.E_max, params))
    u_residual = abs(u_lhs - u_rhs)
    passed = residual <= 5.0 * noise and u_residual <= 1e-10
    return LemmaReport("telescoping", passed,
                       {"residual": residual, "u_residual": u_residual},
                       {"residual": 5.0 * noise, "u_residual": 1e-10},
                       0.0, {"lhs": lhs, "rhs": rhs, "E_max": saturated.E_max,
                             "E0": saturated.E0, "degenerate": saturated.degenerate})


def verify_basin_exclusion(saturated: SaturatedProfile, params: UnderlyingParams,
                           mmse_table, tol: float = DEFAULT_TOL) -> LemmaReport:
    """The saturated maximum must lie outside the floor's basin."""
    if saturated.degenerate:
        return LemmaReport("basin_exclusion", True, None, None, 0.0,
                           {"reason": "profile decoded; nothing above the floor"},
                           skipped=True)
    run = iterate_underlying(saturated.E_max, params, mmse_table, tol)
    radius = fixed_point_tolerance(mmse_table, params, saturated.E0, tol)
    separation = abs(run.final - saturated.E0)
    return LemmaReport("basin_exclusion", separation > radius, separation, radius,
                       0.0, {"E_max": saturated.E_max, "attracted_to": run.final})


def _stalled_saturation(params: UnderlyingParams, Gamma: int, w: int,
                        design: DesignFunction, mmse_table,
                        tol: float, max_iters: int):
    """Coupled fixed point from the all-ones start plus its saturation.

    A run that lands inside the floor's classification radius counts as
    decoded and saturates to the degenerate flat profile, so boundary-induced
    wiggles of a few ulp do not masquerade as a stall.
    """
    J = build_coupling_matrix(CoupledParams(params, Gamma, w, design))
    run, E0, _, decoded = coupled_decode(J, params, mmse_table, tol, max_iters)
    if decoded:
        return J, run, saturate_profile(ErrorProfile(np.full(Gamma, E0), Gamma, w), E0)
    return J, run, saturate_profile(run.final, E0)


def shift_potential_scaling(params: UnderlyingParams, R: float, Gamma: int,
                            w_list, tables, design: DesignFunction,
                            tol: float = DEFAULT_TOL,
                            max_iters: int = 20_000) -> LemmaReport:
    """w times the shift-potential difference stays bounded across w.

    Needs a rate at which the coupled system stalls for every listed w; a w
    that decodes instead is reported and fails the check (the scaling is
    about nontrivial profiles).
    """
    p = params.with_rate(R)
    mmse_table, _ = tables
    rows = []
    values = []
    for w in sorted(w_list):
        J, run, sat = _stalled_saturation(p, Gamma, w, design, mmse_table, tol, max_iters)
        if sat.degenerate:
            rows.append({"w": w, "decoded": True})
            continue
        prof = ErrorProfile(sat.values, Gamma, w)
        prof_s = ErrorProfile(shift(sat.values, sat.E0), Gamma, w)
        dFc = (potential_coupled(prof_s, J, p, tables)
               - potential_coupled(prof, J, p, tables))
        rows.append({"w": w, "decoded": False, "dFc": dFc, "w_dFc": w * abs(dFc),
                     "E_max": sat.E_max, "increment": max_profile_increment(sat.values)})
        values.append(w * abs(dFc))
    if not values:  # nothing stalled: trivially bounded, but say so
        return LemmaReport("shift_potential_scaling", True, 0.0, 4.0, 0.0,
                           {"rows": rows, "reason": "all widths decoded"})
    if len(values) < len(list(w_list)):
        return LemmaReport("shift_potential_scaling", False, None, 4.0, 0.0,
                           {"rows": rows, "reason": "stall regime not uniform in w"})
    ratio = max(values) / min(values)
    return LemmaReport("shift_potential_scaling", ratio <= 4.0, ratio, 4.0, 0.0,
                       {"rows": rows, "R": R, "Gamma": Gamma})


def theorem1_experiment(params: UnderlyingParams, R: float, Gamma: int, w: int,
                        tables, design: DesignFunction,
                        tol: float = DEFAULT_TOL,
                        max_iters: int = 20_000,
                        scan_w: bool = True) -> LemmaReport:
    """Does the pinned coupled system decode to the floor at rate R?

    Also records the free-energy gap and, optionally, the smallest window
    width that decodes, which is where the inverse-gap tendency shows.
    """
    p = params.with_rate(R)
    mmse_table, _ = tables
    J = build_coupling_matrix(CoupledParams(p, Gamma, w, design))
    run, E0, radius, decoded = coupled_decode(J, p, mmse_table, tol, max_iters)
    gap = free_energy_gap(p, tables, tol=tol)
    min_w = None
    if scan_w:
        for cand in (1, 2, 3, 4, 6, 8, 12, 16):
            if Gamma <= 8 * cand:
                break
            Jc = build_coupling_matrix(CoupledParams(p, Gamma, cand, design))
            if coupled_decode(Jc, p, mmse_table, tol, max_iters)[3]:
                min_w = cand
                break
    return LemmaReport("theorem1_decoding", decoded,
                       float(run.final.values.max()), E0 + radius, 0.0,
                       {"R": R, "Gamma": Gamma, "w": w, "delta_F": gap.delta_F,
                        "min_decoding_w": min_w, "iterations": run.iterations})


def _nishimori_plan(params: UnderlyingParams, mc: MCConfig, E_grid=None) -> Plan:
    """nishimori_report's jobs, one statistic per grid point, and its verdict."""
    if E_grid is None:
        E_grid = np.linspace(0.0, 1.0, 16)
    sigs = [sigma_underlying(float(E), params) for E in E_grid]

    def point(z, bounds, sig):
        st = section_stats(z, sig, params.B, bounds)
        yield st["mmse"] - (1.0 - st["f1"])

    def finish(means, stderrs):
        n = mc.n_samples
        L = math.log(4.0 * len(sigs) / NISHIMORI_DELTA)
        worst = 0.0
        details = []
        for E, mean, stderr in zip(E_grid, means.tolist(), stderrs.tolist()):
            var = n * stderr * stderr  # unbiased sample variance
            bound = math.sqrt(2.0 * var * L / n) + 7.0 * 1.25 * L / (3.0 * max(n - 1, 1))
            worst = max(worst, abs(mean) / bound)
            details.append({"E": float(E), "diff": mean, "stderr": stderr, "bound": bound})
        return LemmaReport("nishimori", worst <= 1.0, worst, 1.0, 0.0, {"points": details})

    return Plan([functools.partial(point, sig=sig) for sig in sigs], finish)


def nishimori_report(params: UnderlyingParams, mc: MCConfig,
                     E_grid=None) -> LemmaReport:
    """MMSE equals one minus the mean true-component weight, same samples.

    The per-sample difference d = sum_i f_i^2 - f_1 has mean zero and lies in
    [-1/4, 1] (f_1^2 - f_1 <= d <= 1 - f_1).  Each point's mean is judged
    against the empirical Bernstein bound of Maurer and Pontil (2009),
    sqrt(2 var L/n) + 7 r L/(3(n-1)) with range r = 5/4 and
    L = ln(4 m/delta) over the m grid points, so all points pass together with
    probability at least 1 - delta on any seed.  Unlike a z-test it holds when
    d is nonzero only on rare samples.  measured is the worst |diff|/bound,
    bound is 1.
    """
    return stream_plans(mc, params.B, [_nishimori_plan(params, mc, E_grid)])[0]


def _i_mmse_plan(params: UnderlyingParams, sigma_grid=None, h: float = 1e-3,
                 coefficient: float | None = None) -> Plan:
    """i_mmse_report's jobs, three statistics per sigma, and its verdict."""
    if sigma_grid is None:
        sigma_grid = np.geomspace(0.4, 2.5, 8)
    if coefficient is None:
        coefficient = params.log2B / (2.0 * LN2)
    lb = params.log2B
    points = []
    for sig in sigma_grid:
        gamma = 1.0 / (sig * sig)
        points.append((float(sig), {k: (gamma + x) ** -0.5 for k, x in
                                    (("p", h), ("m", -h), ("p2", h / 2), ("m2", -h / 2))}))

    def point(z, bounds, sig, sigs):
        # three statistics per point: D = slope + c*mmse, and the slope at
        # steps h and h/2.  A kernel call's outputs are one block, so the
        # first entropy of each difference is copied out before the second
        # call runs and one call's block is alive at a time.
        def ent_diff(up, down):
            d = section_stats(z, sigs[up], params.B, bounds)["entropy"].copy()
            d -= section_stats(z, sigs[down], params.B, bounds)["entropy"]
            return d

        slope_h = lb * ent_diff("p", "m") / (2.0 * h)
        yield slope_h + coefficient * section_stats(z, sig, params.B, bounds)["mmse"]
        yield slope_h
        yield lb * ent_diff("p2", "m2") / h

    def finish(means, stderrs):
        details = []
        passed = True
        for i, (sig, _) in enumerate(points):
            mean_D, stderr_D = float(means[3 * i]), float(stderrs[3 * i])
            disc = (4.0 / 3.0) * abs(float(means[3 * i + 1] - means[3 * i + 2]))
            ok = abs(mean_D) <= 3.0 * stderr_D + disc
            passed = passed and ok
            details.append({"sigma": sig, "slope_plus_c_mmse": mean_D,
                            "stderr": stderr_D, "discretization": disc, "pass": ok})
        worst = max(abs(d["slope_plus_c_mmse"]) - d["discretization"] for d in details)
        return LemmaReport("i_mmse", passed, worst, "3*stderr+h^2 allowance", 0.0,
                           {"coefficient": coefficient, "points": details})

    return Plan([functools.partial(point, sig=sig, sigs=sigs) for sig, sigs in points], finish)


def i_mmse_report(params: UnderlyingParams, mc: MCConfig, sigma_grid=None,
                  h: float = 1e-3, coefficient: float | None = None) -> LemmaReport:
    """Slope of the section entropy in the inverse noise against the MMSE.

    The entropy here is S*log2(B), differentiated in gamma = Sigma^{-2}; the
    slope equals -log2(B)/(2 ln 2) times the MMSE (B-independent when written
    per unit of the per-component SNR log2(B)*gamma).  Pass a different
    coefficient to test other claimed constants.  Uses common random numbers
    and a Richardson estimate of the h^2 discretization error.
    """
    plan = _i_mmse_plan(params, sigma_grid, h, coefficient)
    return stream_plans(mc, params.B, [plan])[0]


def run_suite(params: UnderlyingParams, Gamma: int, w: int,
              design: DesignFunction, mc: MCConfig, n_points: int = 256,
              tol: float = DEFAULT_TOL, max_iters: int = 20_000) -> list:
    """The full battery at one parameter point; R comes from params.

    The mmse/entropy tables (n_points nodes) and the Nishimori and I-MMSE
    checks are means over the same seeded Gaussian stream, so one
    stream_plans pass draws it once for all three; each result is
    bit-identical to build_tables, nishimori_report and i_mmse_report run
    on their own.  The other checks read the tables.
    """
    tables, *reports = stream_plans(mc, params.B, [
        table_plan(params, mc, n_points), _nishimori_plan(params, mc), _i_mmse_plan(params)])
    mmse_table, _ = tables
    J, run, sat = _stalled_saturation(params, Gamma, w, design, mmse_table, tol, max_iters)
    reports.append(verify_smoothness(sat, design, w))
    reports.append(verify_telescoping(sat, J, params, tables))
    reports.append(verify_basin_exclusion(sat, params, mmse_table, tol))
    w_list = [v for v in dict.fromkeys((w, 2 * w)) if Gamma > 8 * v]
    reports.append(shift_potential_scaling(params, params.R, Gamma, w_list,
                                           tables, design, tol, max_iters))
    reports.append(theorem1_experiment(params, params.R, Gamma, w, tables,
                                       design, tol, max_iters, scan_w=False))
    return reports
