"""State evolution for the scalar (underlying) and profile (coupled) systems.

The scalar recursion is E <- mmse(Sigma(E)) with Sigma(E) = sqrt(R(sigma2+E)).
The coupled recursion tracks a length-Gamma profile: each column c sees an
effective noise built from the rows it touches, the section MSE of the 4w
boundary columns is pinned to zero (the decoder knows those sections), and
the row profile is the J-weighted average of the column MSEs.  With monotone
tables every operator here is exactly monotone, componentwise, in floating
point, which the degradation and convergence arguments lean on.  The table
is piecewise linear in Sigma, so scalar_fixed_points solves the scalar fixed
points exactly, one quadratic per segment; floor, basin and fold read them.

Profiles are validated in two places.  ErrorProfile checks length and the
[0, 1] range when it is built.  The coupled step (_coupled_step, shared by
se_step_coupled and iterate_coupled) works on raw arrays and checks each new
profile itself: pinned rows first, then the range, raising the same errors.
So iterate_coupled builds an ErrorProfile only for on_step and its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denoiser import MonotoneTable
from .ensemble import CouplingMatrix, UnderlyingParams

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 10_000
COUPLED_MAX_ITERS = 20_000  # step cap of the coupled threshold search and checks
SHAPE_TOL = 1e-6  # ripple saturate_profile tolerates on the rise to the maximum

STRICTLY_DEGRADED = "strictly_degraded"
DEGRADED_EQUAL = "degraded_equal"
INCOMPARABLE = "incomparable"
REVERSED = "reversed"


def pinned_rows(Gamma: int, w: int) -> np.ndarray:
    """0-based indices of the 3w zero rows at each end."""
    k = 3 * w
    return np.concatenate([np.arange(k), np.arange(Gamma - k, Gamma)])


def pinned_columns(Gamma: int, w: int) -> np.ndarray:
    """0-based indices of the 4w boundary columns whose sections are known."""
    k = 4 * w
    return np.concatenate([np.arange(k), np.arange(Gamma - k, Gamma)])


@dataclass(frozen=True)
class ErrorProfile:
    """Length-Gamma MSE profile for a coupled system with window w."""

    values: np.ndarray
    Gamma: int
    w: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.Gamma,):
            raise ValueError(f"profile must have length {self.Gamma}, got {v.shape}")
        if np.any(v < 0) or np.any(v > 1) or not np.all(np.isfinite(v)):
            raise ValueError("profile entries must lie in [0, 1]")


def ones_profile(Gamma: int, w: int) -> ErrorProfile:
    """The worst-case start: 1 everywhere except the pinned rows."""
    v = np.ones(Gamma)
    v[pinned_rows(Gamma, w)] = 0.0
    return ErrorProfile(v, Gamma, w)


def zeros_profile(Gamma: int, w: int) -> ErrorProfile:
    return ErrorProfile(np.zeros(Gamma), Gamma, w)


@dataclass(frozen=True)
class FixedPointReport:
    final: object          # float for the scalar system, ErrorProfile for coupled
    iterations: int
    residual: float
    converged: bool
    monotone: bool = True  # iterate sequence was componentwise monotone


@dataclass(frozen=True)
class SaturatedProfile:
    """Nondecreasing envelope of a fixed-point profile (1-based r_star/r_max)."""

    values: np.ndarray
    r_star: int
    r_max: int
    E_max: float
    E0: float
    degenerate: bool = False


def sigma_underlying(E: float, params: UnderlyingParams) -> float:
    """Effective section-channel noise at MSE E."""
    if E < 0:
        raise ValueError("MSE must be nonnegative")
    return math.sqrt(params.R * (params.sigma2 + E))


def se_step_underlying(E: float, params: UnderlyingParams, table: MonotoneTable) -> float:
    return table(sigma_underlying(E, params))


def iterate_underlying(E_init: float, params: UnderlyingParams, table: MonotoneTable,
                       tol: float = DEFAULT_TOL,
                       max_iters: int = DEFAULT_MAX_ITERS,
                       on_step=None) -> FixedPointReport:
    """Run the scalar recursion to a fixed point.

    Non-convergence is reported, never raised.  The sequence direction is
    fixed after the first step (the operator is monotone), so a sign flip in
    the updates marks a numerical problem and clears the monotone flag.
    on_step(t, residual, E), when given, is called after every step.
    """
    if not 0.0 <= E_init <= 1.0:
        raise ValueError("E_init must lie in [0, 1]")
    E = float(E_init)
    direction = 0.0
    monotone = True
    residual = math.inf
    for t in range(1, max_iters + 1):
        E_next = se_step_underlying(E, params, table)
        step = E_next - E
        if step != 0.0:
            if direction == 0.0:
                direction = math.copysign(1.0, step)
            elif math.copysign(1.0, step) != direction:
                monotone = False
        residual = abs(step)
        E = E_next
        if on_step is not None:
            on_step(t, residual, E)
        if residual <= tol:
            return FixedPointReport(E, t, residual, True, monotone)
    return FixedPointReport(E, max_iters, residual, False, monotone)


def fixed_point_tolerance(table: MonotoneTable, params: UnderlyingParams, E0: float,
                          tol: float = DEFAULT_TOL) -> float:
    """Classification radius around a fixed point: max(10*tol, 3*table noise)."""
    return max(10.0 * tol, 3.0 * table.stderr_at(sigma_underlying(E0, params)))


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """np.unique of a finite 1-D array: sorted, each value equal to its left
    neighbour dropped.  np.unique does the same here, but its first call
    imports numpy.ma."""
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def scalar_fixed_points(params: UnderlyingParams, table: MonotoneTable) -> np.ndarray:
    """Every fixed point E = mmse(Sigma(E)) in [0, 1], sorted, solved on the table.

    Where the table is a_k + b_k Sigma (segment k), a fixed point solves
    Sigma^2 - R b_k Sigma - R (sigma2 + a_k) = 0; it counts only inside its
    half-open segment and maps to E = Sigma^2/R - sigma2.  Raises ValueError
    when Sigma(E) for E in [0, 1] leaves the grid, where roots would be missed.
    """
    R, s2 = params.R, params.sigma2
    s = table.sigma_grid
    if not s[0] <= math.sqrt(R * s2) or not math.sqrt(R * (s2 + 1.0)) <= s[-1]:
        raise ValueError(f"the table grid [{s[0]:.6g}, {s[-1]:.6g}] does not cover "
                         f"Sigma(E) for E in [0, 1] at R={R:.6g}, sigma2={s2:.6g}")
    a, b = table.segments()
    c = R * (s2 + a)
    disc = (R * b) ** 2 + 4.0 * c
    ok = disc >= 0.0
    big = 0.5 * (R * b[ok] + np.sqrt(disc[ok]))   # > 0, since b >= 0
    sigma = np.stack([big, -c[ok] / big])           # the root product is -c
    inside = (sigma >= s[:-1][ok]) & (sigma < s[1:][ok])
    return _sorted_distinct(np.clip(sigma[inside] ** 2 / R - s2, 0.0, 1.0))


def basin_boundary(params: UnderlyingParams, table: MonotoneTable,
                   tol: float = DEFAULT_TOL) -> float:
    """Supremum of the initial MSEs whose limit lies within radius of the floor.

    Between adjacent fixed points f(E) - E keeps one sign, so a start there
    runs down to the lower root when f < E at their midpoint and up to the
    upper root otherwise.  Returns 1.0 when every start reaches the floor.
    """
    return _basin_boundary(params, table, scalar_fixed_points(params, table), tol)


def _basin_boundary(params: UnderlyingParams, table: MonotoneTable,
                    roots: np.ndarray, tol: float) -> float:
    """basin_boundary from the fixed points scalar_fixed_points returned."""
    radius = fixed_point_tolerance(table, params, roots[0], tol)
    k = int(np.searchsorted(roots, roots[0] + radius, side="right"))  # first root outside
    if k == roots.size:
        return 1.0
    mid = 0.5 * (roots[k - 1] + roots[k])
    return float(roots[k] if se_step_underlying(mid, params, table) < mid else roots[k - 1])


def fold_rate(params: UnderlyingParams, table: MonotoneTable,
              tol: float = DEFAULT_TOL) -> float | None:
    """Rate at which the floor vanishes; None when no bistable window ends on the table.

    The fixed points at rate R solve R = Sigma^2/(sigma2 + mmse(Sigma)), so
    they change only at extrema of that curve: at nodes, or inside segment k
    at Sigma* = -2(sigma2 + a_k)/b_k.  One rate between adjacent extremal
    values classifies each window, bistable when the roots spread beyond the
    floor's radius; the fold ends the first run of bistable windows.
    """
    s2, s = params.sigma2, table.sigma_grid
    a, b = table.segments()
    with np.errstate(divide="ignore", invalid="ignore"):
        star = -2.0 * (s2 + a) / b
    sigma = np.sort(np.concatenate([s, star[(star > s[:-1]) & (star < s[1:])]]))
    curve = sigma ** 2 / (s2 + table(sigma))
    turns = np.sign(np.diff(curve))
    extrema = curve[1:-1][turns[1:] != turns[:-1]]
    # rates whose Sigma range the grid covers
    lo, hi = s[0] ** 2 / s2, s[-1] ** 2 / (s2 + 1.0)
    edges = _sorted_distinct(np.clip(np.concatenate([extrema, [lo, hi]]), lo, hi))
    bistable_seen = False
    for R_lo, R_hi in zip(edges[:-1], edges[1:]):
        p = params.with_rate(0.5 * (R_lo + R_hi))
        roots = scalar_fixed_points(p, table)
        if roots[-1] - roots[0] > fixed_point_tolerance(table, p, roots[0], tol):
            bistable_seen = True
        elif bistable_seen:
            return float(R_lo)
    return None


def _inverse_noise_moment(values: np.ndarray, J: CouplingMatrix,
                          params: UnderlyingParams) -> np.ndarray:
    """Vector of (1/Gamma) sum_r J[r][c] / (R (sigma2 + E_r)) over columns c."""
    weights = params.sigma2 + values
    weights *= params.R
    np.divide(1.0, weights, out=weights)
    moment = J.rmatvec(weights)
    moment /= J.Gamma
    return moment


def _coupled_step(values: np.ndarray, Gamma: int, w: int, J: CouplingMatrix,
                  params: UnderlyingParams, table: MonotoneTable) -> np.ndarray:
    """The pinned profile update on raw arrays; se_step_coupled's body.

    Returns a fresh array, checked as se_step_coupled's ErrorProfile would
    check it (pinned rows first, then the [0, 1] range).  The in-place forms
    run the same elementwise operations in the same order as the allocating
    ones, so every bit matches.
    """
    sigma_cols = _inverse_noise_moment(values, J, params)
    np.power(sigma_cols, -0.5, out=sigma_cols)
    tilde = table(sigma_cols)
    tilde[:4 * w] = 0.0
    tilde[-4 * w:] = 0.0
    nxt = J.matvec(tilde)
    nxt /= Gamma
    if nxt[:3 * w].any() or nxt[-3 * w:].any():
        raise AssertionError("pinned rows came out nonzero; coupling matrix is malformed")
    if not (nxt.min() >= 0.0 and nxt.max() <= 1.0):  # NaN fails both
        raise ValueError("profile entries must lie in [0, 1]")
    return nxt


def se_step_coupled(profile: ErrorProfile, J: CouplingMatrix,
                    params: UnderlyingParams, table: MonotoneTable) -> ErrorProfile:
    """One profile update with the boundary sections pinned to zero MSE.

    Pinning acts on the section MSEs (the 4w columns at each end, see
    pinned_columns); the 3w zero rows at each end of the profile then follow
    from bandedness and are asserted, not enforced.
    """
    Gamma, w = profile.Gamma, profile.w
    nxt = _coupled_step(profile.values, Gamma, w, J, params, table)
    return ErrorProfile(nxt, Gamma, w)


def iterate_coupled(profile_init: ErrorProfile, J: CouplingMatrix,
                    params: UnderlyingParams, table: MonotoneTable,
                    tol: float = DEFAULT_TOL,
                    max_iters: int = DEFAULT_MAX_ITERS,
                    on_step=None) -> FixedPointReport:
    """Profile recursion to sup-norm tolerance, tracking monotonicity.

    Every entry keeps the direction of its first nonzero step; a step against
    it clears the monotone flag, after which directions are no longer tracked.
    on_step(t, residual, profile), when given, is called after every step.
    """
    Gamma, w = profile_init.Gamma, profile_init.w
    values = profile_init.values
    scratch = np.empty(Gamma)
    step = np.empty(Gamma)
    direction = np.zeros(Gamma)
    monotone = True
    residual = math.inf
    for t in range(1, max_iters + 1):
        nxt = _coupled_step(values, Gamma, w, J, params, table)
        np.subtract(nxt, values, out=step)
        if monotone:
            np.multiply(step, direction, out=scratch)
            if (scratch < 0.0).any():
                monotone = False
            else:
                np.copyto(direction, np.sign(step), where=direction == 0.0)
        residual = float(np.abs(step, out=scratch).max())
        values = nxt
        if on_step is not None:
            on_step(t, residual, ErrorProfile(values, Gamma, w))
        if residual <= tol:
            return FixedPointReport(ErrorProfile(values, Gamma, w), t, residual, True, monotone)
    return FixedPointReport(ErrorProfile(values, Gamma, w), max_iters, residual, False, monotone)


def coupled_decode(J: CouplingMatrix, params: UnderlyingParams, table: MonotoneTable,
                   tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS) -> tuple:
    """Run the pinned coupled recursion from the all-ones start and classify it.

    Returns (run, E0, radius, decoded): E0 is the scalar floor, the smallest
    fixed point; radius is its fixed_point_tolerance; and decoded says the
    whole final profile lies within radius of the floor.
    """
    E0 = float(scalar_fixed_points(params, table)[0])
    radius = fixed_point_tolerance(table, params, E0, tol)
    run = iterate_coupled(ones_profile(J.Gamma, J.w), J, params, table, tol, max_iters)
    return run, E0, radius, bool((run.final.values <= E0 + radius).all())


def is_degraded(E, G) -> str:
    """Componentwise order of two profiles: is E at least as bad as G?"""
    a = E.values if isinstance(E, ErrorProfile) else np.asarray(E, dtype=float)
    b = G.values if isinstance(G, ErrorProfile) else np.asarray(G, dtype=float)
    if a.shape != b.shape:
        raise ValueError("profiles must have equal length")
    if np.all(a >= b):
        return STRICTLY_DEGRADED if np.any(a > b) else DEGRADED_EQUAL
    if np.all(a <= b):
        return REVERSED
    return INCOMPARABLE


def saturate_profile(fixed: ErrorProfile, E0: float) -> SaturatedProfile:
    """Nondecreasing envelope: floor plateau, the rising segment, max plateau.

    The source must rise to its global maximum through a single segment
    (ripples up to SHAPE_TOL are tolerated); otherwise the shape is reported
    as a violation rather than silently patched.
    """
    v = fixed.values
    r_max0 = int(np.argmax(v))  # ties break toward the smallest index
    E_max = float(v[r_max0])
    if E_max <= E0:
        vals = np.full(fixed.Gamma, E0)
        return SaturatedProfile(vals, r_star=fixed.Gamma, r_max=fixed.Gamma,
                                E_max=E0, E0=E0, degenerate=True)
    rising = v[: r_max0 + 1]
    drops = np.diff(rising)
    if drops.size and drops.min() < -SHAPE_TOL:
        raise ValueError("profile does not rise monotonically to its maximum")
    above = np.nonzero(rising > E0)[0]
    r_star0 = int(above[0]) - 1 if above.size else r_max0
    out = np.empty(fixed.Gamma)
    out[: r_star0 + 1] = E0
    out[r_star0 + 1: r_max0] = v[r_star0 + 1: r_max0]
    out[r_max0:] = E_max
    out = np.maximum.accumulate(out)  # flatten sub-tolerance ripples
    return SaturatedProfile(out, r_star=r_star0 + 1, r_max=r_max0 + 1,
                            E_max=E_max, E0=float(E0))


def shift(profile_values, E0: float) -> np.ndarray:
    """One block to the right, feeding the floor in from the left edge."""
    v = np.asarray(profile_values, dtype=float)
    out = np.empty_like(v)
    out[0] = E0
    out[1:] = v[:-1]
    return out


def max_profile_increment(profile_values) -> float:
    """Largest jump between neighboring entries."""
    v = np.asarray(profile_values, dtype=float)
    if v.size < 2:
        return 0.0
    return float(np.abs(np.diff(v)).max())
