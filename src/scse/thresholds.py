"""Bisection solvers for the algorithmic and potential thresholds.

All three solvers share one search skeleton: expand a bracket geometrically
from half capacity until the success predicate flips, then bisect, within
R in [RATE_FLOOR C, RATE_CAP C].  Each reads one (mmse, entropy) table pair
from build_tables at every candidate rate, as the tables do not depend on R.
Two complications are handled beyond plain bisection:

* The MSE floor E_0(R) can disappear through a fold: beyond it, iterations
  from 0 and from 1 meet again at the surviving high fixed point and the
  naive predicates turn true again.  The search tracks E_0 along its
  evaluation history; a discontinuous jump against the nearest lower
  evaluation is bisected in R until it is either resolved as continuous
  drift or confirmed as a fold, after which everything above the fold
  counts as failure.
* The predicate history is audited for monotonicity in R.  A history that
  is not true-then-false after classification raises MonotonicityError
  with full diagnostics instead of returning a number.

A search whose predicate never flips (for instance when the scalar system
has a single fixed point at every rate, so no algorithmic threshold exists)
raises BracketingError carrying the history.  Both errors derive from
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
from .state_evolution import (DEFAULT_MAX_ITERS, DEFAULT_TOL, coupled_decode,
                              fixed_point_tolerance, iterate_underlying)

DEFAULT_TOL_R = 2e-3
JUMP_TOL = 0.05          # floor discontinuity detector
MAX_EVALUATIONS = 200
COUPLED_MAX_ITERS = 20_000


class ThresholdSearchError(RuntimeError):
    """A threshold search that could not return a number; carries its history."""

    def __init__(self, message: str, history=None):
        self.history = history or []
        lines = [message]
        for rec in self.history:
            lines.append("  R={R:.6f} success={success} raw={success_raw} E0={E0:.6g}".format(**rec))
        super().__init__("\n".join(lines))


class BracketingError(ThresholdSearchError):
    """The success predicate never flipped inside the search range."""


class MonotonicityError(ThresholdSearchError):
    """The classified predicate history is not true-then-false in R."""


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


@dataclass(frozen=True)
class _Eval:
    success_raw: bool
    E0: float
    extras: dict


# The saturation workload of the benchmark (perfbench/workloads.py) still
# builds its tables under this name.
make_tables_factory = build_tables


class _ThresholdSearch:
    def __init__(self, eval_fn, tol_R: float):
        self.eval_fn = eval_fn
        self.tol_R = tol_R
        self.evals: dict[float, _Eval] = {}
        self.fold_R = None

    def _run(self, R: float):
        if R not in self.evals:
            if len(self.evals) >= MAX_EVALUATIONS:
                raise BracketingError("evaluation budget exceeded", self.history())
            self.evals[R] = self.eval_fn(R)
        self._settle()

    def _sorted(self):
        return sorted(self.evals.items())

    def _suspicious_pair(self):
        """First adjacent pair on the good branch whose floor jumps."""
        last = None
        for R, ev in self._sorted():
            if self.fold_R is not None and R > self.fold_R:
                continue
            if last is not None and ev.E0 > last[1].E0 + JUMP_TOL:
                return last, (R, ev)
            last = (R, ev)
        return None

    def _settle(self):
        """Resolve floor jumps: bisect in R until drift or a confirmed fold."""
        while True:
            pair = self._suspicious_pair()
            if pair is None:
                return
            (R_lo, _), (R_hi, _) = pair
            if R_hi - R_lo <= self.tol_R:
                self.fold_R = R_lo
                continue
            mid = 0.5 * (R_lo + R_hi)
            if len(self.evals) >= MAX_EVALUATIONS:
                raise BracketingError("evaluation budget exceeded while "
                                      "resolving a floor discontinuity", self.history())
            self.evals[mid] = self.eval_fn(mid)

    def classified(self):
        """(R, success, eval) with off-branch evaluations forced to failure."""
        out = []
        for R, ev in self._sorted():
            off_branch = self.fold_R is not None and R > self.fold_R
            out.append((R, ev.success_raw and not off_branch, ev))
        return out

    def history(self):
        rows = []
        for R, success, ev in self.classified():
            rows.append({"R": R, "success": success, "success_raw": ev.success_raw,
                         "E0": ev.E0, **ev.extras})
        return rows

    def _bracket(self):
        """(max successful R, min failing R) after a monotonicity audit."""
        cl = self.classified()
        flips = [i for i in range(1, len(cl)) if cl[i][1] != cl[i - 1][1]]
        if len(flips) > 1 or (flips and not cl[0][1]):
            raise MonotonicityError(
                "success predicate is not monotone over the evaluated rates",
                self.history())
        lo = max((R for R, s, _ in cl if s), default=None)
        hi = min((R for R, s, _ in cl if not s), default=None)
        return lo, hi

    def solve(self, R_start: float, R_cap: float, R_floor: float) -> tuple:
        self._run(R_start)
        while True:
            lo, hi = self._bracket()
            if lo is not None and hi is not None:
                break
            if hi is None:  # everything succeeded so far
                nxt = 2.0 * max(self.evals)
                if nxt > R_cap:
                    raise BracketingError(
                        f"success predicate still holds at R={max(self.evals):.6f} "
                        f"(cap {R_cap:.4f}); no threshold found in range", self.history())
            else:           # everything failed so far
                nxt = 0.5 * min(self.evals)
                if nxt < R_floor:
                    raise BracketingError(
                        f"success predicate already fails at R={min(self.evals):.6f} "
                        f"(floor {R_floor:.6f}); no threshold found in range", self.history())
            self._run(nxt)
        while hi - lo > 2.0 * self.tol_R:
            self._run(0.5 * (lo + hi))
            lo, hi = self._bracket()
        return lo, hi


def _solve_report(kind: str, ev, params: UnderlyingParams, tables,
                  tol_R: float, extra_meta: dict) -> ThresholdReport:
    """Search with ev(R) as the predicate; tables only supply the seed."""
    search = _ThresholdSearch(ev, tol_R)
    C = capacity(params.snr)
    lo, hi = search.solve(R_start=0.5 * C, R_cap=RATE_CAP * C, R_floor=RATE_FLOOR * C)
    metadata = {"kind": kind, "B": params.B, "sigma2": params.sigma2,
                "snr": params.snr, **extra_meta, "tol_R": tol_R,
                "seed": tables[0].meta["seed"],
                "history": search.history(), "fold_R": search.fold_R}
    return ThresholdReport(value=0.5 * (lo + hi), bracket_lo=lo, bracket_hi=hi,
                           tol=tol_R, evaluations=len(search.evals),
                           metadata=metadata)


def amp_threshold_underlying(params: UnderlyingParams, tables,
                             tol_R: float = DEFAULT_TOL_R,
                             tol: float = DEFAULT_TOL,
                             max_iters: int = DEFAULT_MAX_ITERS) -> ThresholdReport:
    """Largest rate at which the worst-case start still reaches the floor.

    params.R is ignored; the rate is the search variable.  Every candidate rate
    reads the same (mmse, entropy) tables, so the predicate sees smooth curves
    in R.
    """
    def ev(R: float) -> _Eval:
        p = params.with_rate(R)
        mmse_t, _ = tables
        r0 = iterate_underlying(0.0, p, mmse_t, tol, max_iters)
        r1 = iterate_underlying(1.0, p, mmse_t, tol, max_iters)
        radius = fixed_point_tolerance(mmse_t, p, r0.final, tol)
        return _Eval(abs(r1.final - r0.final) <= radius, r0.final,
                     {"E1": r1.final, "radius": radius})

    return _solve_report("amp_underlying", ev, params, tables, tol_R, {})


def potential_threshold(params: UnderlyingParams, tables,
                        tol_R: float = DEFAULT_TOL_R,
                        tol: float = DEFAULT_TOL,
                        max_iters: int = DEFAULT_MAX_ITERS) -> ThresholdReport:
    """Largest rate with a positive free-energy gap."""
    def ev(R: float) -> _Eval:
        p = params.with_rate(R)
        gap = free_energy_gap(p, tables, tol=tol, max_iters=max_iters)
        E0 = iterate_underlying(0.0, p, tables[0], tol, max_iters).final
        return _Eval(gap.delta_F > 0.0, E0,
                     {"delta_F": gap.delta_F, "basin_sup": gap.basin_sup})

    return _solve_report("potential", ev, params, tables, tol_R, {})


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

    def ev(R: float) -> _Eval:
        run, E0, radius, decoded = coupled_decode(J, params.with_rate(R), tables[0],
                                                  tol, max_iters)
        return _Eval(decoded, E0,
                     {"profile_max": float(run.final.values.max()),
                      "iterations": run.iterations, "radius": radius})

    return _solve_report("amp_coupled", ev, params, tables, tol_R,
                         {"Gamma": Gamma, "w": w, "design": design.kind})
