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

from .denoiser import (DEFAULT_N_POINTS, MCConfig, Plan, section_stats,
                       stream_plans, table_plan)
from .ensemble import (CoupledParams, CouplingMatrix, DesignFunction,
                       UnderlyingParams, build_coupling_matrix)
from .potential import (LN2, free_energy_gap, potential_coupled,
                        potential_energy_underlying, potential_underlying)
from .state_evolution import (COUPLED_MAX_ITERS, DEFAULT_TOL, ErrorProfile,
                              SaturatedProfile, _inverse_noise_moment,
                              coupled_decode, fixed_point_tolerance,
                              iterate_underlying, max_profile_increment,
                              saturate_profile, shift, sigma_underlying)

NISHIMORI_DELTA = 1e-3  # joint failure probability of the Nishimori bound
NISHIMORI_E_GRID = np.linspace(0.0, 1.0, 16)  # MSEs whose noise levels are checked
I_MMSE_SIGMA_GRID = np.geomspace(0.4, 2.5, 8)  # noise levels of the I-MMSE check
I_MMSE_H = 1e-3  # finite-difference step in gamma = Sigma^-2


@dataclass(frozen=True)
class LemmaReport:
    name: str
    passed: bool
    measured: object
    bound: object
    context: dict = field(default_factory=dict)
    skipped: bool = False

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "measured": self.measured,
                "bound": self.bound, "context": self.context, "skipped": self.skipped}


def verify_smoothness(saturated: SaturatedProfile, design: DesignFunction,
                      w: int) -> LemmaReport:
    """Neighboring entries of a saturated profile move by less than (g*+g~)/w."""
    measured = max_profile_increment(saturated.values)
    bound = (design.gstar + design.gtilde) / w
    return LemmaReport("smoothness", measured < bound, measured, bound,
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
        return LemmaReport("telescoping", False, None, None,
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
                       {"lhs": lhs, "rhs": rhs, "E_max": saturated.E_max,
                        "E0": saturated.E0, "degenerate": saturated.degenerate})


def verify_basin_exclusion(saturated: SaturatedProfile, params: UnderlyingParams,
                           mmse_table, tol: float = DEFAULT_TOL) -> LemmaReport:
    """The saturated maximum must lie outside the floor's basin."""
    if saturated.degenerate:
        return LemmaReport("basin_exclusion", True, None, None,
                           {"reason": "profile decoded; nothing above the floor"},
                           skipped=True)
    run = iterate_underlying(saturated.E_max, params, mmse_table, tol)
    radius = fixed_point_tolerance(mmse_table, params, saturated.E0, tol)
    separation = abs(run.final - saturated.E0)
    return LemmaReport("basin_exclusion", separation > radius, separation, radius,
                       {"E_max": saturated.E_max, "attracted_to": run.final})


def coupled_chain(params: UnderlyingParams, Gamma: int, w: int,
                  design: DesignFunction, mmse_table, tol: float = DEFAULT_TOL,
                  max_iters: int = COUPLED_MAX_ITERS) -> tuple:
    """(J, (run, E0, radius, decoded), saturated): one width's coupled_decode
    from the all-ones start, and the saturation of its final profile.

    A decoded run (inside the floor's classification radius) saturates to the
    flat E0 profile, so boundary wiggles of a few ulp do not pass for a stall.
    """
    J = build_coupling_matrix(CoupledParams(params, Gamma, w, design))
    decode = coupled_decode(J, params, mmse_table, tol, max_iters)
    run, E0, _, decoded = decode
    final = ErrorProfile(np.full(Gamma, E0), Gamma, w) if decoded else run.final
    return J, decode, saturate_profile(final, E0)


def shift_potential_scaling(params: UnderlyingParams, chains, tables) -> LemmaReport:
    """w times the shift-potential difference stays bounded across w.

    chains holds one coupled_chain per width at the rate params.R, read in
    order of the w of its J.  Every chain must stall there; a chain that
    decodes is reported and fails the check (the scaling is about nontrivial
    profiles).
    """
    rows = []
    values = []
    for J, _, sat in sorted(chains, key=lambda chain: chain[0].w):
        if sat.degenerate:
            rows.append({"w": J.w, "decoded": True})
            continue
        prof = ErrorProfile(sat.values, J.Gamma, J.w)
        prof_s = ErrorProfile(shift(sat.values, sat.E0), J.Gamma, J.w)
        dFc = (potential_coupled(prof_s, J, params, tables)
               - potential_coupled(prof, J, params, tables))
        rows.append({"w": J.w, "decoded": False, "dFc": dFc, "w_dFc": J.w * abs(dFc),
                     "E_max": sat.E_max, "increment": max_profile_increment(sat.values)})
        values.append(J.w * abs(dFc))
    if not values:  # nothing stalled: trivially bounded, but say so
        return LemmaReport("shift_potential_scaling", True, 0.0, 4.0,
                           {"rows": rows, "reason": "all widths decoded"})
    if len(values) < len(chains):
        return LemmaReport("shift_potential_scaling", False, None, 4.0,
                           {"rows": rows, "reason": "stall regime not uniform in w"})
    ratio = max(values) / min(values)
    return LemmaReport("shift_potential_scaling", ratio <= 4.0, ratio, 4.0,
                       {"rows": rows, "R": params.R, "Gamma": chains[0][0].Gamma})


def theorem1_experiment(params: UnderlyingParams, chain, tables,
                        tol: float = DEFAULT_TOL) -> LemmaReport:
    """Did the pinned coupled chain decode to the floor at rate params.R?

    chain is a coupled_chain at that rate.  Also records the free-energy gap
    and the number of coupled steps run.
    """
    J, (run, E0, radius, decoded), _ = chain
    gap = free_energy_gap(params, tables, tol=tol)
    return LemmaReport("theorem1_decoding", decoded,
                       float(run.final.values.max()), E0 + radius,
                       {"R": params.R, "Gamma": J.Gamma, "w": J.w, "delta_F": gap.delta_F,
                        "iterations": run.iterations})


def _nishimori_plan(params: UnderlyingParams, mc: MCConfig) -> Plan:
    """nishimori_report's jobs, one statistic per grid point, and its verdict."""
    sigs = [sigma_underlying(float(E), params) for E in NISHIMORI_E_GRID]

    def point(z, bounds, sig):
        m, f1 = rows = section_stats(z, sig, params.B, bounds, ("mmse", "f1"))
        np.subtract(1.0, f1, out=f1)
        m -= f1
        return rows[:1]

    def finish(means, stderrs):
        n = mc.n_samples
        L = math.log(4.0 * len(sigs) / NISHIMORI_DELTA)
        worst = 0.0
        details = []
        for E, mean, stderr in zip(NISHIMORI_E_GRID, means.tolist(), stderrs.tolist()):
            var = n * stderr * stderr  # unbiased sample variance
            bound = math.sqrt(2.0 * var * L / n) + 7.0 * 1.25 * L / (3.0 * max(n - 1, 1))
            worst = max(worst, abs(mean) / bound)
            details.append({"E": float(E), "diff": mean, "stderr": stderr, "bound": bound})
        return LemmaReport("nishimori", worst <= 1.0, worst, 1.0, {"points": details})

    return Plan([functools.partial(point, sig=sig) for sig in sigs], finish)


def nishimori_report(params: UnderlyingParams, mc: MCConfig) -> LemmaReport:
    """MMSE equals one minus the mean true-component weight, same samples.

    The m = 16 grid points are the noise levels Sigma(E) at the MSEs of
    NISHIMORI_E_GRID, evenly spaced over [0, 1].

    The per-sample difference d = sum_i f_i^2 - f_1 has mean zero and lies in
    [-1/4, 1] (f_1^2 - f_1 <= d <= 1 - f_1).  Each point's mean is judged
    against the empirical Bernstein bound of Maurer and Pontil (2009),
    sqrt(2 var L/n) + 7 r L/(3(n-1)) with range r = 5/4 and
    L = ln(4 m/delta) over the m grid points, so all points pass together with
    probability at least 1 - delta on any seed.  Unlike a z-test it holds when
    d is nonzero only on rare samples.  measured is the worst |diff|/bound,
    bound is 1.
    """
    return stream_plans(mc, params.B, [_nishimori_plan(params, mc)])[0]


def _i_mmse_plan(params: UnderlyingParams, coefficient: float | None = None) -> Plan:
    """i_mmse_report's jobs, three statistics per sigma, and its verdict."""
    if coefficient is None:
        coefficient = params.log2B / (2.0 * LN2)
    lb, h = params.log2B, I_MMSE_H
    points = []
    for sig in I_MMSE_SIGMA_GRID:
        gamma = 1.0 / (sig * sig)
        points.append((float(sig), {k: (gamma + x) ** -0.5 for k, x in
                                    (("p", h), ("m", -h), ("p2", h / 2), ("m2", -h / 2))}))

    def point(z, bounds, sig, sigs):
        # three statistics per point, formed in place on the kernel's rows
        # and stacked: D = slope + c*mmse, and the slope at steps h and h/2
        def stat(key, at):
            return section_stats(z, at, params.B, bounds, (key,))[0]

        def slope(up, down, step):
            up -= down
            up *= lb
            up /= step
            return up

        up, down, m = stat("entropy", sigs["p"]), stat("entropy", sigs["m"]), stat("mmse", sig)
        up2, down2 = stat("entropy", sigs["p2"]), stat("entropy", sigs["m2"])
        slope_h = slope(up, down, 2.0 * h)
        m *= coefficient
        m += slope_h
        return np.array((m, slope_h, slope(up2, down2, h)))

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
        return LemmaReport("i_mmse", passed, worst, "3*stderr+h^2 allowance",
                           {"coefficient": coefficient, "points": details})

    return Plan([functools.partial(point, sig=sig, sigs=sigs) for sig, sigs in points], finish)


def i_mmse_report(params: UnderlyingParams, mc: MCConfig,
                  coefficient: float | None = None) -> LemmaReport:
    """Slope of the section entropy in the inverse noise against the MMSE.

    The entropy here is S*log2(B), differentiated in gamma = Sigma^{-2}; the
    slope equals -log2(B)/(2 ln 2) times the MMSE (B-independent when written
    per unit of the per-component SNR log2(B)*gamma).  Pass a different
    coefficient to test other claimed constants.  The check runs at the eight
    noise levels of I_MMSE_SIGMA_GRID, geometric over [0.4, 2.5], with step
    h = I_MMSE_H.  Uses common random numbers and a Richardson estimate of the
    h^2 discretization error.
    """
    return stream_plans(mc, params.B, [_i_mmse_plan(params, coefficient)])[0]


def run_suite(params: UnderlyingParams, Gamma: int, w: int,
              design: DesignFunction, mc: MCConfig, n_points: int = DEFAULT_N_POINTS,
              tol: float = DEFAULT_TOL, max_iters: int = COUPLED_MAX_ITERS) -> list:
    """The full battery at one parameter point; R comes from params.

    The mmse/entropy tables (n_points nodes) and the Nishimori and I-MMSE
    checks are means over the same seeded Gaussian stream, so one
    stream_plans pass draws it once for all three; each result is
    bit-identical to build_tables, nishimori_report and i_mmse_report run
    on their own.  The other checks read the tables and the coupled chains,
    each run once: the chain at w feeds smoothness, telescoping, basin
    exclusion and Theorem 1, and the shift scaling reads it together with
    the chain at 2w when Gamma > 16w.
    """
    tables, *reports = stream_plans(mc, params.B, [
        table_plan(params, mc, n_points), _nishimori_plan(params, mc), _i_mmse_plan(params)])
    mmse_table, _ = tables
    chains = [coupled_chain(params, Gamma, v, design, mmse_table, tol, max_iters)
              for v in (w, 2 * w) if v == w or Gamma > 8 * v]
    J, _, sat = chains[0]
    reports.append(verify_smoothness(sat, design, w))
    reports.append(verify_telescoping(sat, J, params, tables))
    reports.append(verify_basin_exclusion(sat, params, mmse_table, tol))
    reports.append(shift_potential_scaling(params, chains, tables))
    reports.append(theorem1_experiment(params, chains[0], tables, tol))
    return reports
