"""Bisection solvers for the algorithmic and potential thresholds.

All three solvers share one plain search: double or halve R from half
capacity until the success predicate flips, within R in [RATE_FLOOR C,
RATE_CAP C], then bisect.  Each reads one (mmse, entropy) table pair from
build_tables at every candidate rate, as the tables do not depend on R.

The MSE floor E_0(R) disappears through a fold: beyond it, the smallest
fixed point is the surviving high one and the predicates turn true again.
fold_rate finds that rate exactly on the mmse table before the search
starts, and a rate at or above it counts as failure without being
evaluated.  The scalar predicates read the exact fixed points
(scalar_fixed_points) and run no state evolution.

A search whose predicate never flips (for instance when the scalar system
has a single fixed point at every rate, so no algorithmic threshold exists)
raises BracketingError carrying the history.  A history that is not
true-then-false in R raises MonotonicityError.  Both derive from
ThresholdSearchError, which callers catch to handle any failed search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .denoiser import build_tables
from .ensemble import (RATE_CAP, RATE_FLOOR, CoupledParams, DesignFunction,
                       UnderlyingParams, build_coupling_matrix, capacity,
                       rectangular_design)
from .potential import free_energy_gap
from .state_evolution import (COUPLED_MAX_ITERS, DEFAULT_TOL, coupled_decode,
                              fixed_point_tolerance, fold_rate,
                              scalar_fixed_points)

DEFAULT_TOL_R = 2e-3


class ThresholdSearchError(RuntimeError):
    """A threshold search that could not return a number; carries its history."""

    def __init__(self, message: str, history=None):
        self.history = history or []
        lines = [message]
        for rec in self.history:
            lines.append("  R={R:.6f} success={success} E0={E0:.6g}".format(**rec))
        super().__init__("\n".join(lines))


class BracketingError(ThresholdSearchError):
    """The success predicate never flipped inside the search range."""


class MonotonicityError(ThresholdSearchError):
    """The predicate history is not true-then-false in R."""


def large_B_limits(params: UnderlyingParams) -> tuple:
    """Closed-form limits of the two thresholds as the section size grows."""
    lim_alg = 1.0 / ((1.0 + params.sigma2) * 2.0 * math.log(2.0))
    return lim_alg, capacity(params.snr)


@dataclass(frozen=True)
class ThresholdReport:
    value: float
    bracket_lo: float
    bracket_hi: float
    tol: float
    evaluations: int
    metadata: dict


# The saturation workload of the benchmark (perfbench/workloads.py) still
# builds its tables under this name.
make_tables_factory = build_tables


def _audit(history) -> None:
    """Raise MonotonicityError unless success is true-then-false in R."""
    flags = [row["success"] for row in sorted(history, key=lambda row: row["R"])]
    if flags != sorted(flags, reverse=True):
        raise MonotonicityError("success predicate is not monotone over the "
                                "evaluated rates", history)


def _search(ev, C: float, tol_R: float, fold: float = math.inf) -> tuple:
    """(lo, hi, history): the last success and first failure in R of ev.

    The search starts at C/2 and stays within [RATE_FLOOR C, RATE_CAP C] for
    capacity C.  ev(R) returns a dict with "success" and "E0", recorded with R in the
    history.  A rate at or above fold fails without a call to ev.  The
    bisection also stops once the midpoint rounds to an end of the bracket,
    so a tol_R of 0 or below the float spacing ends at adjacent floats.  A
    NaN, infinite or negative tol_R raises ValueError.
    """
    if not 0.0 <= tol_R < math.inf:
        raise ValueError(f"tol_R must be nonnegative and finite, got {tol_R}")
    history = []

    def success(R: float) -> bool:
        if R >= fold:
            return False
        history.append({"R": R, **ev(R)})
        return history[-1]["success"]

    R_cap, R_floor = RATE_CAP * C, RATE_FLOOR * C
    R = 0.5 * C
    up = success(R)     # double from a success, halve from a failure, until it flips
    while True:
        nxt = 2.0 * R if up else 0.5 * R
        if not R_floor <= nxt <= R_cap:
            raise BracketingError(
                f"success predicate {'still holds' if up else 'already fails'} at "
                f"R={R:.6f} (range {R_floor:.6f} to {R_cap:.4f}); no threshold found "
                "in range", history)
        if success(nxt) != up:
            break
        R = nxt
    lo, hi = (R, nxt) if up else (nxt, R)
    while hi - lo > 2.0 * tol_R:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if success(mid):
            lo = mid
        else:
            hi = mid
    _audit(history)
    return lo, hi, history


def _solve_report(kind: str, ev, params: UnderlyingParams, tables,
                  tol_R: float, tol: float, extra_meta: dict) -> ThresholdReport:
    """Search with ev(R) as the predicate, below the fold of tables[0]."""
    fold = fold_rate(params, tables[0], tol)
    lo, hi, history = _search(ev, capacity(params.snr), tol_R,
                              math.inf if fold is None else fold)
    metadata = {"kind": kind, "B": params.B, "sigma2": params.sigma2,
                "snr": params.snr, **extra_meta, "tol_R": tol_R,
                "seed": tables[0].meta["seed"], "history": history, "fold_R": fold}
    return ThresholdReport(value=0.5 * (lo + hi), bracket_lo=lo, bracket_hi=hi,
                           tol=tol_R, evaluations=len(history), metadata=metadata)


def amp_threshold_underlying(params: UnderlyingParams, tables,
                             tol_R: float = DEFAULT_TOL_R,
                             tol: float = DEFAULT_TOL) -> ThresholdReport:
    """Largest rate at which the worst-case start still reaches the floor.

    That is, the fixed points spread by at most the floor's
    fixed_point_tolerance.  params.R is ignored; the rate is the search
    variable.  Every candidate rate reads the same mmse table, so the
    predicate sees a smooth curve in R.
    """
    def ev(R: float) -> dict:
        p = params.with_rate(R)
        roots = scalar_fixed_points(p, tables[0])
        radius = fixed_point_tolerance(tables[0], p, roots[0], tol)
        return {"success": bool(roots[-1] - roots[0] <= radius), "E0": float(roots[0]),
                "E1": float(roots[-1]), "radius": radius}

    return _solve_report("amp_underlying", ev, params, tables, tol_R, tol, {})


def potential_threshold(params: UnderlyingParams, tables,
                        tol_R: float = DEFAULT_TOL_R,
                        tol: float = DEFAULT_TOL) -> ThresholdReport:
    """Largest rate with a positive free-energy gap."""
    def ev(R: float) -> dict:
        gap = free_energy_gap(params.with_rate(R), tables, tol=tol)
        return {"success": gap.delta_F > 0.0, "E0": gap.E0,
                "delta_F": gap.delta_F, "basin_sup": gap.basin_sup}

    return _solve_report("potential", ev, params, tables, tol_R, tol, {})


def amp_threshold_coupled(params: UnderlyingParams, Gamma: int, w: int,
                          tables, tol_R: float = DEFAULT_TOL_R,
                          design: DesignFunction | None = None,
                          tol: float = DEFAULT_TOL,
                          max_iters: int = COUPLED_MAX_ITERS) -> ThresholdReport:
    """Largest rate at which the pinned coupled system decodes to the floor.

    Reported for the concrete (Gamma, w); the infinite-size limits are a
    protocol of growing sizes, not something this function extrapolates.
    """
    if design is None:
        design = rectangular_design()
    J = build_coupling_matrix(CoupledParams(params, Gamma, w, design))

    def ev(R: float) -> dict:
        run, E0, radius, decoded = coupled_decode(J, params.with_rate(R), tables[0],
                                                  tol, max_iters)
        return {"success": decoded, "E0": E0,
                "profile_max": float(run.final.values.max()),
                "iterations": run.iterations, "radius": radius}

    return _solve_report("amp_coupled", ev, params, tables, tol_R, tol,
                         {"Gamma": Gamma, "w": w, "design": design.kind})
