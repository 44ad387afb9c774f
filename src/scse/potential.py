"""Potential functions, the free-energy gap and stationarity diagnostics.

The scalar potential splits into a closed-form energy term

    U(E) = (1/2R) * [log2(sigma2+E) - E/((sigma2+E) ln 2)]

and an entropy term S(Sigma(E)) read from the Monte-Carlo table; F = U - S.
The coupled potential sums U over rows and S over column noise levels.  The
free-energy gap is F's exact minimum over the table's linear pieces.
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
    """Minimum of F(E) - F(floor) over starts the floor does not attract.

    tables is the (mmse_table, entropy_table) pair.  When the basin is the
    whole domain the minimum runs over the empty set and the gap is +inf.

    The minimum is exact on the table.  On entropy segment k, S = a_k +
    b_k Sigma; with t = sqrt(sigma2 + E) = Sigma/sqrt(R) and kappa_k =
    b_k R^(3/2) ln 2, F'(E) = E/(2R ln2 t^4) - b_k sqrt(R)/(2t) has the sign
    of g(t) = t^2 - sigma2 - kappa_k t^3.  g(0) < 0, and since b_k >= 0, g
    rises and then may fall, so F's only local minimum inside the segment is
    g's smaller positive root.  With u = 1/t, g = 0 reads sigma2 u^3 - u +
    kappa_k = 0, whose largest root is u = 2 cos(arccos(-1.5 kappa_k
    sqrt(3 sigma2))/3)/sqrt(3 sigma2), real iff 27 kappa_k^2 sigma2 <= 4.
    So the minimum over [basin_sup, 1] is the least F at basin_sup, at 1, at
    the node preimages E = s_k^2/R - sigma2 and at the in-segment roots.
    """
    mmse_table, entropy_table = tables
    roots = scalar_fixed_points(params, mmse_table)
    E0 = float(roots[0])
    Ebar = _basin_boundary(params, mmse_table, roots, tol)
    if Ebar >= 1.0:
        return GapReport(delta_F=math.inf, argmin_E=None, basin_sup=1.0, E0=E0)
    R, s2, s = params.R, params.sigma2, entropy_table.sigma_grid
    _, b = entropy_table.segments()
    x = -1.5 * b * R ** 1.5 * LN2 * math.sqrt(3.0 * s2)
    real = np.abs(x) <= 1.0
    sigma = math.sqrt(3.0 * R * s2) / (2.0 * np.cos(np.arccos(x[real]) / 3.0))  # sqrt(R)/u
    inside = (sigma >= s[:-1][real]) & (sigma <= s[1:][real])
    E = np.concatenate([[Ebar, 1.0], s ** 2 / R - s2, sigma[inside] ** 2 / R - s2])
    E = np.sort(E[(E >= Ebar) & (E <= 1.0)])
    U = np.array([potential_energy_underlying(float(e), params) for e in E])
    F = U - entropy_table(np.sqrt(R * (s2 + E)))
    k = int(np.argmin(F))
    return GapReport(delta_F=float(F[k]) - potential_underlying(E0, params, entropy_table),
                     argmin_E=float(E[k]), basin_sup=Ebar, E0=E0)


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
