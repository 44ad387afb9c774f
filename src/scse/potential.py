"""Potential functions, the free-energy gap and stationarity diagnostics.

The scalar potential splits into a closed-form energy term

    U(E) = (1/2R) * [log2(sigma2+E) - E/((sigma2+E) ln 2)]

and an entropy term S(Sigma(E)) read from the Monte-Carlo table; F = U - S.
The coupled potential sums U over rows and S over column noise levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denoiser import MonotoneTable
from .ensemble import CouplingMatrix, UnderlyingParams
from .state_evolution import (DEFAULT_TOL, ErrorProfile, _basin_boundary,
                              _inverse_noise_moment, scalar_fixed_points,
                              sigma_underlying)

LN2 = math.log(2.0)
GAP_GRID_SIZE = 512  # free_energy_gap's coarse grid over [basin_sup, 1]


@dataclass(frozen=True)
class PotentialCurve:
    E_grid: np.ndarray
    F_values: np.ndarray
    U_values: np.ndarray
    S_values: np.ndarray
    stderrs: np.ndarray


@dataclass(frozen=True)
class GapReport:
    delta_F: float            # +inf when the floor attracts everything
    argmin_E: float | None
    basin_sup: float
    E0: float                 # the floor, the smallest fixed point


def potential_energy_underlying(E: float, params: UnderlyingParams) -> float:
    """Closed-form energy term of the scalar potential."""
    if E < 0:
        raise ValueError("MSE must be nonnegative")
    s2e = params.sigma2 + E
    return (math.log2(s2e) - E / (s2e * LN2)) / (2.0 * params.R)


def potential_underlying(E: float, params: UnderlyingParams,
                         entropy_table: MonotoneTable) -> float:
    return potential_energy_underlying(E, params) - entropy_table(sigma_underlying(E, params))


def potential_curve(params: UnderlyingParams, entropy_table: MonotoneTable,
                    E_grid) -> PotentialCurve:
    E = np.asarray(E_grid, dtype=float)
    U = np.array([potential_energy_underlying(e, params) for e in E])
    sig = np.sqrt(params.R * (params.sigma2 + E))
    S = np.asarray(entropy_table(sig), dtype=float)
    err = np.array([entropy_table.stderr_at(s) for s in sig])
    return PotentialCurve(E_grid=E, F_values=U - S, U_values=U, S_values=S, stderrs=err)


def free_energy_gap(params: UnderlyingParams, tables,
                    tol: float = DEFAULT_TOL) -> GapReport:
    """Infimum of F(E) - F(floor) over starts the floor does not attract.

    tables is the (mmse_table, entropy_table) pair.  When the basin is the
    whole domain the infimum runs over the empty set and the gap is +inf.
    """
    mmse_table, entropy_table = tables
    roots = scalar_fixed_points(params, mmse_table)
    E0 = float(roots[0])
    Ebar = _basin_boundary(params, mmse_table, roots, tol)
    if Ebar >= 1.0:
        return GapReport(delta_F=math.inf, argmin_E=None, basin_sup=1.0, E0=E0)

    def F(E):
        return potential_underlying(float(E), params, entropy_table)

    grid = np.linspace(Ebar, 1.0, GAP_GRID_SIZE)
    U = np.array([potential_energy_underlying(float(e), params) for e in grid])
    vals = U - entropy_table(np.sqrt(params.R * (params.sigma2 + grid)))
    k = int(np.argmin(vals))
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, GAP_GRID_SIZE - 1)])
    best_E, best_F = float(grid[k]), float(vals[k])
    if hi > lo:
        x, fx = _bounded_brent(F, lo, hi, xatol=1e-10)
        if fx < best_F:
            best_E, best_F = x, fx
    return GapReport(delta_F=best_F - F(E0), argmin_E=best_E, basin_sup=Ebar, E0=E0)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_BRENT_MAXFUN = 500


def _bounded_brent(func, a: float, b: float, xatol: float) -> tuple:
    """(x, func(x)) at a local minimum of func on [a, b], Brent's (1973) method.

    A step-for-step port of scipy.optimize's _minimize_scalar_bounded
    (scipy 1.17, BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and
    2003-2024 SciPy Developers), which minimize_scalar(method="bounded")
    runs: the same parabolic and golden-section steps, the same tol1/tol2
    updates and the same 500-evaluation cap, so it visits the same points
    and returns the same floats.  Only the options scse does not use (disp,
    args, maxiter) and the result object are left out.
    """
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # parabolic fit through the three best points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True

        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _BRENT_MAXFUN:
            break

    return xf, fx


def _sign_or_one(v: float) -> float:
    """np.sign(v) + (v == 0): the sign of v, with 1 at zero and NaN kept."""
    if v == 0.0:
        return 1.0
    return v if v != v else math.copysign(1.0, v)


def potential_coupled(profile: ErrorProfile, J: CouplingMatrix,
                      params: UnderlyingParams, tables) -> float:
    """Row energies minus column entropies; unnormalized block sum."""
    _, entropy_table = tables
    U = sum(potential_energy_underlying(float(e), params) for e in profile.values)
    sigma_cols = _inverse_noise_moment(profile.values, J, params) ** -0.5
    S = float(np.sum(entropy_table(sigma_cols)))
    return U - S


def potential_large_B(E: float, params: UnderlyingParams) -> float:
    """Limit of the potential as the section size grows, closed form."""
    sig2 = params.R * (params.sigma2 + E)
    return potential_energy_underlying(E, params) - max(0.0, 1.0 - 1.0 / (2.0 * LN2 * sig2))


def stationarity_residual(E_fixed: float, params: UnderlyingParams,
                          entropy_table: MonotoneTable, h: float = 1e-3) -> float:
    """|finite-difference slope of F| at a claimed fixed point.

    Centered step of size h, one-sided at the domain boundary.  With a
    common-random-number table the MC noise in the difference is the
    adjacent-node difference noise, not two independent errors.
    """
    def F(E):
        return potential_underlying(E, params, entropy_table)

    if E_fixed - h < 0.0:
        return abs(F(E_fixed + h) - F(E_fixed)) / h
    if E_fixed + h > 1.0:
        return abs(F(E_fixed) - F(E_fixed - h)) / h
    return abs(F(E_fixed + h) - F(E_fixed - h)) / (2.0 * h)
