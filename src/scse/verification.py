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

import math
from dataclasses import dataclass, field

import numpy as np

from .denoiser import MCConfig, _chunks, gaussian_block, section_stats
from .ensemble import (CoupledParams, CouplingMatrix, DesignFunction,
                       UnderlyingParams, build_coupling_matrix)
from .potential import (free_energy_gap, potential_coupled,
                        potential_energy_underlying, potential_underlying)
from .state_evolution import (DEFAULT_TOL, ErrorProfile, SaturatedProfile,
                              fixed_point_tolerance, iterate_coupled,
                              iterate_underlying, max_profile_increment,
                              ones_profile, saturate_profile, shift,
                              sigma_underlying)

LN2 = math.log(2.0)


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
        moment = (J.J.T @ (1.0 / (params.R * (params.sigma2 + values)))) / Gamma
        sig = moment ** -0.5
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
    run = iterate_coupled(ones_profile(Gamma, w), J, params, mmse_table, tol, max_iters)
    E0 = iterate_underlying(0.0, params, mmse_table, tol).final
    radius = fixed_point_tolerance(mmse_table, params, E0, tol)
    if (run.final.values <= E0 + radius).all():
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
    run = iterate_coupled(ones_profile(Gamma, w), J, p, mmse_table, tol, max_iters)
    E0 = iterate_underlying(0.0, p, mmse_table, tol).final
    radius = fixed_point_tolerance(mmse_table, p, E0, tol)
    decoded = bool((run.final.values <= E0 + radius).all())
    gap = free_energy_gap(p, tables, tol=tol)
    min_w = None
    if scan_w:
        for cand in (1, 2, 3, 4, 6, 8, 12, 16):
            if Gamma <= 8 * cand:
                break
            Jc = build_coupling_matrix(CoupledParams(p, Gamma, cand, design))
            r = iterate_coupled(ones_profile(Gamma, cand), Jc, p, mmse_table, tol, max_iters)
            if bool((r.final.values <= E0 + radius).all()):
                min_w = cand
                break
    return LemmaReport("theorem1_decoding", decoded,
                       float(run.final.values.max()), E0 + radius, 0.0,
                       {"R": R, "Gamma": Gamma, "w": w, "delta_F": gap.delta_F,
                        "min_decoding_w": min_w, "iterations": run.iterations})


def nishimori_report(params: UnderlyingParams, mc: MCConfig,
                     E_grid=None) -> LemmaReport:
    """MMSE equals one minus the mean true-component weight, same samples."""
    if E_grid is None:
        E_grid = np.linspace(0.0, 1.0, 16)
    sigs = [sigma_underlying(float(E), params) for E in E_grid]
    n = mc.n_samples
    acc = [0.0] * len(sigs)
    acc2 = [0.0] * len(sigs)
    # chunk-outer: one Gaussian block serves every grid point, and each point
    # still sums its chunks in stream order
    for a, b in _chunks(n):
        z = gaussian_block(mc.seed, params.B, a, b, mc.antithetic)
        for i, sig in enumerate(sigs):
            st = section_stats(z, sig, params.B)
            d = st["mmse"] - (1.0 - st["f1"])
            acc[i] += float(d.sum())
            acc2[i] += float((d * d).sum())
    zmax = 0.0
    details = []
    for E, s, s2 in zip(E_grid, acc, acc2):
        mean = s / n
        stderr = math.sqrt(max(s2 / n - mean * mean, 0.0) / max(n - 1, 1))
        zscore = 0.0 if mean == 0.0 else abs(mean) / max(stderr, 1e-300)
        zmax = max(zmax, zscore)
        details.append({"E": float(E), "diff": mean, "stderr": stderr})
    return LemmaReport("nishimori", zmax <= 3.0, zmax, 3.0, 0.0,
                       {"points": details})


def i_mmse_report(params: UnderlyingParams, mc: MCConfig, sigma_grid=None,
                  h: float = 1e-3, coefficient: float | None = None) -> LemmaReport:
    """Slope of the section entropy in the inverse noise against the MMSE.

    The entropy here is S*log2(B), differentiated in gamma = Sigma^{-2}; the
    slope equals -log2(B)/(2 ln 2) times the MMSE (B-independent when written
    per unit of the per-component SNR log2(B)*gamma).  Pass a different
    coefficient to test other claimed constants.  Uses common random numbers
    and a Richardson estimate of the h^2 discretization error.
    """
    if sigma_grid is None:
        sigma_grid = np.geomspace(0.4, 2.5, 8)
    if coefficient is None:
        coefficient = params.log2B / (2.0 * LN2)
    lb = params.log2B
    n = mc.n_samples
    points = []
    for sig in sigma_grid:
        gamma = 1.0 / (sig * sig)
        sigs = {k: (gamma + x) ** -0.5 for k, x in
                (("p", h), ("m", -h), ("p2", h / 2), ("m2", -h / 2))}
        points.append((float(sig), sigs, {k: 0.0 for k in ("D", "D2", "sh", "sh2")}))
    # chunk-outer: one Gaussian block serves every grid point, and each point
    # still sums its chunks in stream order
    for a, b in _chunks(n):
        z = gaussian_block(mc.seed, params.B, a, b, mc.antithetic)
        for sig, sigs, acc in points:
            ent = {k: section_stats(z, s, params.B)["entropy"] for k, s in sigs.items()}
            m = section_stats(z, sig, params.B)["mmse"]
            slope_h = lb * (ent["p"] - ent["m"]) / (2.0 * h)
            slope_h2 = lb * (ent["p2"] - ent["m2"]) / h
            D = slope_h + coefficient * m
            acc["D"] += float(D.sum())
            acc["D2"] += float((D * D).sum())
            acc["sh"] += float(slope_h.sum())
            acc["sh2"] += float(slope_h2.sum())
    details = []
    passed = True
    for sig, _, acc in points:
        mean_D = acc["D"] / n
        stderr_D = math.sqrt(max(acc["D2"] / n - mean_D ** 2, 0.0) / max(n - 1, 1))
        disc = (4.0 / 3.0) * abs(acc["sh"] / n - acc["sh2"] / n)
        tol_pt = 3.0 * stderr_D + disc
        ok = abs(mean_D) <= tol_pt
        passed = passed and ok
        details.append({"sigma": sig, "slope_plus_c_mmse": mean_D,
                        "stderr": stderr_D, "discretization": disc, "pass": ok})
    worst = max(abs(d["slope_plus_c_mmse"]) - d["discretization"] for d in details)
    return LemmaReport("i_mmse", passed, worst, "3*stderr+h^2 allowance", 0.0,
                       {"coefficient": coefficient, "points": details})


def run_suite(params: UnderlyingParams, Gamma: int, w: int,
              design: DesignFunction, mc: MCConfig, tables,
              tol: float = DEFAULT_TOL, max_iters: int = 20_000) -> list:
    """The full battery at one parameter point; R comes from params."""
    mmse_table, _ = tables
    reports = [nishimori_report(params, mc), i_mmse_report(params, mc)]
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
