"""Independent oracles used by the test suite.

Everything here but the single-point Monte-Carlo estimates at the end is
written against the mathematical definitions directly, with plain
(non-log-domain) arithmetic and quadrature instead of Monte Carlo, so it
shares no code path with the package under test.  The estimates are one
stream_moments job each, for tests that read one Sigma at a time.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from scse import denoiser


@functools.lru_cache(maxsize=None)
def _hermgauss(n):
    """Physicists' Gauss-Hermite rule, computed once per n (an eigensolve that
    dense scans would otherwise repeat per point); read-only, as it is shared."""
    x, w = np.polynomial.hermite.hermgauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_hermite_std(n):
    """Nodes/weights for E[h(z)] with z ~ N(0,1)."""
    x, w = _hermgauss(n)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


def gauss_hermite_var2(n):
    """Nodes/weights for E[h(d)] with d ~ N(0,2)."""
    x, w = _hermgauss(n)
    return x * 2.0, w / math.sqrt(math.pi)


def _sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# For B=2 the section posterior depends on the noise only through
# d = z_2 - z_1 ~ N(0,2):  f_2 = sigmoid(sqrt(rho)*d - rho),  f_1 = 1 - f_2,
# with rho = log2(B)/Sigma^2 = 1/Sigma^2.  The squared error against the
# transmitted basis vector is then (f_1-1)^2 + f_2^2 = 2*f_2^2.

def b2_mmse_quad(sigma, nodes=64):
    """E[ sum_i (f_i - s_i)^2 ] at B=2 by Gauss-Hermite quadrature."""
    d, wn = gauss_hermite_var2(nodes)
    rho = 1.0 / (sigma * sigma)
    f2 = _sigmoid(math.sqrt(rho) * d - rho)
    return float(wn @ (2.0 * f2 * f2))


def b2_posterior_weight_quad(sigma, nodes=64):
    """E[f_1] at B=2; Nishimori pairs this with b2_mmse_quad."""
    d, wn = gauss_hermite_var2(nodes)
    rho = 1.0 / (sigma * sigma)
    f2 = _sigmoid(math.sqrt(rho) * d - rho)
    return float(wn @ (1.0 - f2))


def b2_entropy_quad(sigma, nodes=64):
    """E[log2(1 + e_2)] at B=2 (the section-entropy integrand)."""
    d, wn = gauss_hermite_var2(nodes)
    rho = 1.0 / (sigma * sigma)
    t = math.sqrt(rho) * d - rho
    return float(wn @ (np.log1p(np.exp(np.minimum(t, 700.0))) / math.log(2.0)))


def b2_se_fixed_points(R, sigma2, nodes=201, grid=200001):
    """All crossings of mmse(Sigma(E)) = E at B=2, by dense sign scan."""
    E = np.linspace(1e-12, 1.0, grid)
    sig = np.sqrt(R * (sigma2 + E))
    g = np.array([b2_mmse_quad(s, nodes) for s in sig]) - E
    idx = np.where(np.sign(g[1:]) != np.sign(g[:-1]))[0]
    return [0.5 * (E[i] + E[i + 1]) for i in idx]


def direct_softmax_denoiser(z, sigma, B):
    """Plain-arithmetic posterior mean, no log-sum-exp tricks."""
    lb = math.log2(B)
    u = np.asarray(z, dtype=float) * math.sqrt(lb) / sigma
    u = u.copy()
    u[0] += lb / (sigma * sigma)
    num = np.exp(u)
    return num / num.sum()


def denoise_section(z, sigma_eff: float, B: int) -> np.ndarray:
    """Posterior mean of one section in log-domain; components sum to 1 to
    round-off."""
    z = np.asarray(z, dtype=float)
    if z.shape != (B,):
        raise ValueError(f"expected a length-{B} vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite observation")
    if not (sigma_eff > 0 and math.isfinite(sigma_eff)):
        raise ValueError("sigma_eff must be positive and finite")
    lb = math.log2(B)
    u = z * (math.sqrt(lb) / sigma_eff)
    u[0] += lb / (sigma_eff * sigma_eff)
    m = u.max()
    lse = m + math.log(np.exp(u - m).sum())
    return np.exp(u - lse)


def direct_coupling_matrix(Gamma, w, shape):
    """Coupling variances built with explicit loops from the definition.

    shape: callable x -> g(x) on [-1,1], independent of the package's
    DesignFunction machinery.
    """
    ks = list(range(-w, w + 1))
    raw = [shape(k / w) for k in ks]
    s = sum(raw)
    g = [v * (2 * w + 1) / s for v in raw]  # discrete mean forced to 1
    J = [[0.0] * Gamma for _ in range(Gamma)]
    for r in range(1, Gamma + 1):
        row = [0.0] * Gamma
        for c in range(1, Gamma + 1):
            if abs(r - c) <= w:
                row[c - 1] = Gamma * g[(r - c) + w] / (2 * w + 1)
        tot = sum(row)
        gam = Gamma / tot
        J[r - 1] = [gam * v for v in row]
    return np.array(J)


def dense_coupling_matrix(Gamma, w, g):
    """Dense Gamma x Gamma build from the 2w+1 design samples g (mean 1).

    Fills the band diagonal by diagonal, sums each full zero-padded row with
    numpy and rescales only the rows within w of an edge: the same operations
    in the same order as a dense construction, so results are bit-comparable.
    Returns (J, gamma).
    """
    J = np.zeros((Gamma, Gamma))
    rows = np.arange(Gamma)
    for k in range(-w, w + 1):
        c = rows - k
        ok = (c >= 0) & (c < Gamma)
        J[rows[ok], c[ok]] = Gamma * g[k + w] / (2 * w + 1)
    gamma = Gamma / J.sum(axis=1)
    gamma[w: Gamma - w] = 1.0
    J *= gamma[:, None]
    return J, gamma


def direct_sigma_coupled(E, J, R, sigma2, c):
    """Column effective noise by direct summation; c is 1-based."""
    Gamma = len(E)
    acc = 0.0
    for r in range(Gamma):
        acc += J[r][c - 1] / (R * (sigma2 + E[r]))
    return (acc / Gamma) ** -0.5


def saturation_case_24():
    """Hand-built 24-entry profile and its expected saturation at E0=0.2.

    The source rises 0 -> 0.8 over entries 7..14 (1-based), falls back to 0
    on the right.  Expected: plateau 0.2 through entry 8 (the last rising
    entry <= 0.2 is entry 8 at 0.1, so the first exceedance is entry 9),
    the source's own values on 9..14, and 0.8 from entry 14 on.
    """
    src = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                    0.05, 0.1, 0.25, 0.4, 0.55, 0.7,
                    0.78, 0.8, 0.75, 0.6, 0.4, 0.2,
                    0.1, 0.02, 0.0, 0.0, 0.0, 0.0])
    expected = np.array([0.2, 0.2, 0.2, 0.2, 0.2, 0.2,
                         0.2, 0.2, 0.25, 0.4, 0.55, 0.7,
                         0.78, 0.8, 0.8, 0.8, 0.8, 0.8,
                         0.8, 0.8, 0.8, 0.8, 0.8, 0.8])
    return src, 0.2, expected, 8, 14  # (source, E0, saturated, r_star, r_max)


def pav_brute_force(y):
    """L2 isotonic regression by scipy-free quadratic programming on tiny inputs.

    Exhaustive pooling: repeatedly average any adjacent violating pair.
    O(n^3) but only used on short arrays in tests.
    """
    vals = [float(v) for v in y]
    wts = [1.0] * len(vals)
    changed = True
    while changed:
        changed = False
        for i in range(len(vals) - 1):
            if vals[i] > vals[i + 1] + 0.0:
                m = (vals[i] * wts[i] + vals[i + 1] * wts[i + 1]) / (wts[i] + wts[i + 1])
                vals[i: i + 2] = [m]
                wts[i: i + 2] = [wts[i] + wts[i + 1]]
                changed = True
                break
    out = []
    for v, c in zip(vals, wts):
        out.extend([v] * int(c))
    return np.array(out)


def fd_slope(fn, x, h):
    """Centered finite difference."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def large_b_potential_direct(E, R, sigma2):
    """Closed-form limiting potential, written independently."""
    s2e = sigma2 + E
    U = (math.log2(s2e) - E / (s2e * math.log(2.0))) / (2.0 * R)
    sig2 = R * s2e
    return U - max(0.0, 1.0 - 1.0 / (2.0 * math.log(2.0) * sig2))


def dense_gap_oracle(params, tables, basin_sup, E0, n=200_001):
    """(least F(E) - F(E0), its E) over an n-point grid on [basin_sup, 1] and
    every node preimage Sigma_k^2/R - sigma2 there, with F = U - S written
    out and S read from the entropy table's nodes by np.interp."""
    R, s2 = params.R, params.sigma2
    ent = tables[1]
    E = np.concatenate([np.linspace(basin_sup, 1.0, n), ent.sigma_grid ** 2 / R - s2])
    E = np.append(E[(E >= basin_sup) & (E <= 1.0)], E0)
    s2e = s2 + E
    F = ((np.log2(s2e) - E / (s2e * math.log(2.0))) / (2.0 * R)
         - np.interp(np.sqrt(R * s2e), ent.sigma_grid, ent.values))
    k = int(np.argmin(F[:-1]))
    return F[k] - F[-1], E[k]


def grid_argmin(fn, lo, hi, n):
    xs = np.linspace(lo, hi, n)
    ys = np.array([fn(x) for x in xs])
    k = int(np.argmin(ys))
    return xs[k], ys[k]


# Reference state-evolution loops: the recursions as first written, with an
# allocating array expression per operation, the profile range checked after
# every step, and monotonicity tracked with boolean masks.  They read the
# table's nodes through np.interp directly and use the coupling matrix only
# through its matvec and rmatvec, so they share neither the table's call path
# nor the package's coupled step.

def _table_lookup(table, sigma):
    out = np.interp(np.asarray(sigma, dtype=float), table.sigma_grid, table.values,
                    left=table.lo_value, right=table.hi_value)
    return float(out) if np.ndim(sigma) == 0 else out


def reference_coupled_step(values, Gamma, w, J, params, table):
    """One pinned coupled step; raises AssertionError on nonzero pinned rows,
    then ValueError on entries outside [0, 1] (NaN included)."""
    weights = 1.0 / (params.R * (params.sigma2 + values))
    moment = J.rmatvec(weights) / J.Gamma
    sigma_cols = moment ** -0.5
    tilde = np.asarray(_table_lookup(table, sigma_cols), dtype=float)
    tilde[:4 * w] = 0.0
    tilde[-4 * w:] = 0.0
    nxt = J.matvec(tilde) / Gamma
    if np.any(nxt[:3 * w] != 0.0) or np.any(nxt[-3 * w:] != 0.0):
        raise AssertionError("pinned rows came out nonzero; coupling matrix is malformed")
    if np.any(nxt < 0) or np.any(nxt > 1) or not np.all(np.isfinite(nxt)):
        raise ValueError("profile entries must lie in [0, 1]")
    return nxt


def reference_iterate_coupled(values, Gamma, w, J, params, table, tol, max_iters,
                              on_step=None):
    """(final values, iterations, residual, converged, monotone)."""
    prof = np.asarray(values, dtype=float)
    direction = np.zeros(Gamma)
    monotone = True
    residual = math.inf
    for t in range(1, max_iters + 1):
        nxt = reference_coupled_step(prof, Gamma, w, J, params, table)
        step = nxt - prof
        moving = step != 0.0
        fresh = moving & (direction == 0.0)
        direction[fresh] = np.sign(step[fresh])
        if np.any(np.sign(step[moving]) != direction[moving]):
            monotone = False
        residual = float(np.abs(step).max())
        prof = nxt
        if on_step is not None:
            on_step(t, residual, prof)
        if residual <= tol:
            return prof, t, residual, True, monotone
    return prof, max_iters, residual, False, monotone


def reference_iterate_underlying(E_init, params, table, tol, max_iters, on_step=None):
    """(final E, iterations, residual, converged, monotone)."""
    E = float(E_init)
    direction = 0.0
    monotone = True
    residual = math.inf
    for t in range(1, max_iters + 1):
        if E < 0:
            raise ValueError("MSE must be nonnegative")
        E_next = _table_lookup(table, math.sqrt(params.R * (params.sigma2 + E)))
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
            return E, t, residual, True, monotone
    return E, max_iters, residual, False, monotone


# Fixed points of a table-backed scalar recursion, found without solving the
# per-segment quadratics: sign changes of f(E) - E on a dense grid, with
# f read from the table's nodes through np.interp.

def table_se_gap(table, R, sigma2, E):
    """f(E) - E for the scalar recursion on the table's nodes."""
    E = np.asarray(E, dtype=float)
    return _table_lookup(table, np.sqrt(R * (sigma2 + E))) - E


def dense_scan_fixed_points(table, R, sigma2, n=200001):
    """Midpoints of the cells of an n-point grid on [0, 1] where f(E) - E
    changes sign: one per fixed point, to within half a cell (2.5e-6 at the
    default n), unless two roots share a cell."""
    E = np.linspace(0.0, 1.0, n)
    up = table_se_gap(table, R, sigma2, E) > 0.0
    idx = np.nonzero(up[1:] != up[:-1])[0]
    return 0.5 * (E[idx] + E[idx + 1])


def reference_radius(table, R, sigma2, E0, tol):
    """max(10 tol, 3 x the table's stderr at Sigma(E0))."""
    sigma = math.sqrt(R * (sigma2 + E0))
    return max(10.0 * tol, 3.0 * float(np.interp(sigma, table.sigma_grid, table.stderrs)))


def bisection_basin_boundary(params, table, tol=1e-8, precision=1e-6, max_iters=10_000):
    """The basin boundary as first computed: bisect in the start E between
    the floor and 1 on whether the recursion returns within radius of the
    floor it reaches from E = 0."""
    E0 = reference_iterate_underlying(0.0, params, table, tol, max_iters)[0]
    radius = reference_radius(table, params.R, params.sigma2, E0, tol)

    def in_basin(E_init):
        final = reference_iterate_underlying(E_init, params, table, tol, max_iters)[0]
        return abs(final - E0) <= radius

    if in_basin(1.0):
        return 1.0
    lo, hi = E0, 1.0
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if in_basin(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def floor_jump_rate(table, sigma2, R_lo, R_hi, jump, tol_R):
    """Rate in [R_lo, R_hi] where the smallest dense-scan fixed point jumps
    by more than `jump`, bisected to tol_R; None when it never does."""
    def floor(R):
        return dense_scan_fixed_points(table, R, sigma2)[0]

    rates = np.arange(R_lo, R_hi, 0.01)
    floors = [floor(R) for R in rates]
    for k in range(1, len(rates)):
        if floors[k] - floors[k - 1] > jump:
            lo, hi, E_lo = rates[k - 1], rates[k], floors[k - 1]
            while hi - lo > tol_R:
                mid = 0.5 * (lo + hi)
                if floor(mid) - E_lo > jump:
                    hi = mid
                else:
                    lo, E_lo = mid, floor(mid)
            return 0.5 * (lo + hi)
    return None


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    n: int


def _mc_mean(params, sigma, mc, which, clamp):
    def job(z, bounds):
        return denoiser.section_stats(z, sigma, params.B, bounds, (which,))

    means, stderrs = denoiser.stream_moments(mc, params.B, [job])
    return Estimate(value=float(min(max(means[0], clamp[0]), clamp[1])),
                    stderr=float(stderrs[0]), n=mc.n_samples)


def mmse_estimate(sigma_eff, params, mc):
    """Monte-Carlo section MMSE at effective noise sigma_eff."""
    if not sigma_eff > 0:
        raise ValueError("sigma_eff must be positive")
    return _mc_mean(params, sigma_eff, mc, "mmse", (0.0, 1.0 - 1.0 / params.B))


def entropy_estimate(sigma_eff, params, mc):
    """Monte-Carlo normalized section entropy at effective noise sigma_eff."""
    if not sigma_eff > 0:
        raise ValueError("sigma_eff must be positive")
    return _mc_mean(params, sigma_eff, mc, "entropy", (0.0, 1.0))
