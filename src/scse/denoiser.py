"""Section denoiser, Monte-Carlo mmse/entropy estimators and monotone tables.

The transmitted section is fixed to the first basis vector throughout; the
ensemble is exchangeable over positions so nothing is lost.  A section
observed through the effective channel at noise level Sigma gives scores

    u_j = s_j * log2(B)/Sigma^2 + z_j * sqrt(log2(B))/Sigma

and the posterior mean is the softmax of u, evaluated in log-domain.

Randomness is counter-based: sample i, component j always consumes uniform
word i*B+j of a Philox stream keyed by the seed, mapped through the inverse
normal CDF.  Estimates are therefore bit-identical for a given
(seed, n_samples) no matter how the loop is chunked, and every grid node or
rate reuses the same underlying Gaussians (common random numbers).
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .ensemble import UnderlyingParams

_CHUNK = 65536  # even; fixed so accumulation order never depends on n_samples


@dataclass(frozen=True)
class MCConfig:
    seed: int
    n_samples: int
    antithetic: bool = False

    def __post_init__(self):
        if int(self.seed) != self.seed or not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if int(self.n_samples) != self.n_samples or self.n_samples < 1:
            raise ValueError("n_samples must be a positive integer")


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    n: int


def default_n_samples(B: int) -> int:
    """10^5 up to B=16, shrinking above so table builds stay desk-scale."""
    if B <= 16:
        return 100_000
    return max(20_000, int(100_000 * 16 / B))


def _chunks(n):
    start = 0
    while start < n:
        stop = min(start + _CHUNK, n)
        yield start, stop
        start = stop


def _uniform_words(seed: int, word_start: int, n_words: int) -> np.ndarray:
    """Uniform doubles word_start..word_start+n_words-1 of the Philox stream.

    Philox.advance counts 4-word blocks, so align to the enclosing block and
    drop the padding; any (start, stop) slicing then reproduces the same
    values bit for bit.
    """
    pad = word_start % 4
    bg = np.random.Philox(key=seed)
    bg.advance((word_start - pad) // 4)
    return np.random.Generator(bg).random(pad + n_words)[pad:]


def gaussian_block(seed: int, B: int, start: int, stop: int, antithetic: bool = False) -> np.ndarray:
    """Rows start..stop-1 of the deterministic sample-by-sample normal stream.

    The (rows, B) block is column-major, so each component is one contiguous
    column and section_stats reduces across components column by column.
    """
    if not antithetic:
        u = _uniform_words(seed, start * B, (stop - start) * B).reshape(stop - start, B)
        return ndtri(np.maximum(u, 1e-300), order="F")
    # pairs (2k, 2k+1) share base row k with flipped sign
    b0, b1 = start // 2, (stop + 1) // 2
    u = _uniform_words(seed, b0 * B, (b1 - b0) * B).reshape(b1 - b0, B)
    base = ndtri(np.maximum(u, 1e-300))
    out = np.repeat(base, 2, axis=0)
    signs = np.where((np.arange(2 * b0, 2 * b1) % 2) == 0, 1.0, -1.0)
    out *= signs[:, None]
    return np.asfortranarray(out[start - 2 * b0: stop - 2 * b0])


def _scores(z: np.ndarray, sigma: float, B: int) -> np.ndarray:
    lb = math.log2(B)
    u = np.multiply(z, math.sqrt(lb) / sigma, order="F")
    u[:, 0] += lb / (sigma * sigma)
    return u


def section_stats(z: np.ndarray, sigma: float, B: int) -> dict:
    """Per-sample squared error, entropy summand and true-component weight.

    One exp pass over the shifted scores e = exp(u - max u), done in place on
    a column-major copy of the scores, serves all three integrands:
      f1:      posterior weight of the transmitted component, e_1 / sum e
      mmse:    sum_i (f_i - s_i)^2 = sum e^2 / (sum e)^2 - 2 f_1 + 1
      entropy: log_B of the posterior-odds sum = (log sum e - (u_1 - max u))/ln(B)
    """
    u = _scores(z, sigma, B)
    u -= u.max(axis=1)[:, None]
    u1 = u[:, 0].copy()
    np.exp(u, out=u)
    tot = u.sum(axis=1)
    f1 = u[:, 0] / tot
    np.square(u, out=u)
    sq = u.sum(axis=1) / (tot * tot) - 2.0 * f1 + 1.0
    ent = (np.log(tot) - u1) / math.log(B)
    return {"mmse": sq, "entropy": ent, "f1": f1}


def denoise_section(z, sigma_eff: float, B: int) -> np.ndarray:
    """Posterior mean of one section; components sum to 1 to round-off."""
    z = np.asarray(z, dtype=float)
    if z.shape != (B,):
        raise ValueError(f"expected a length-{B} vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite observation")
    if not (sigma_eff > 0 and math.isfinite(sigma_eff)):
        raise ValueError("sigma_eff must be positive and finite")
    u = _scores(z[None, :], sigma_eff, B)[0]
    m = u.max()
    lse = m + math.log(np.exp(u - m).sum())
    return np.exp(u - lse)


def _mc_mean(params: UnderlyingParams, sigma: float, mc: MCConfig, which: str,
             clamp: tuple) -> Estimate:
    n = mc.n_samples
    acc = acc2 = 0.0
    for a, b in _chunks(n):
        z = gaussian_block(mc.seed, params.B, a, b, mc.antithetic)
        v = section_stats(z, sigma, params.B)[which]
        acc += float(v.sum())
        acc2 += float((v * v).sum())
    mean = acc / n
    var = max(acc2 / n - mean * mean, 0.0) / max(n - 1, 1)
    return Estimate(value=float(min(max(mean, clamp[0]), clamp[1])),
                    stderr=math.sqrt(var), n=n)


def mmse_estimate(sigma_eff: float, params: UnderlyingParams, mc: MCConfig) -> Estimate:
    """Monte-Carlo section MMSE at effective noise sigma_eff."""
    if not sigma_eff > 0:
        raise ValueError("sigma_eff must be positive")
    return _mc_mean(params, sigma_eff, mc, "mmse", (0.0, 1.0 - 1.0 / params.B))


def entropy_estimate(sigma_eff: float, params: UnderlyingParams, mc: MCConfig) -> Estimate:
    """Monte-Carlo normalized section entropy at effective noise sigma_eff."""
    if not sigma_eff > 0:
        raise ValueError("sigma_eff must be positive")
    return _mc_mean(params, sigma_eff, mc, "entropy", (0.0, 1.0))


def isotonic_increasing(y: np.ndarray) -> np.ndarray:
    """L2 projection onto nondecreasing sequences (pool adjacent violators)."""
    y = np.asarray(y, dtype=float)
    level = []   # block means
    weight = []  # block lengths
    for v in y:
        level.append(float(v))
        weight.append(1)
        while len(level) > 1 and level[-2] > level[-1]:
            w2, w1 = weight.pop(), weight.pop()
            v2, v1 = level.pop(), level.pop()
            level.append((v1 * w1 + v2 * w2) / (w1 + w2))
            weight.append(w1 + w2)
    return np.repeat(level, weight)


@dataclass(frozen=True)
class MonotoneTable:
    """Nondecreasing lookup for an MC-estimated curve of Sigma.

    values are the isotonically projected node means; queries interpolate
    linearly between nodes and clamp to the analytic limits outside the grid.
    diff_stderrs[k] is the common-random-number standard error of
    values[k+1]-values[k], the right noise scale for finite differences.
    """

    sigma_grid: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    diff_stderrs: np.ndarray
    lo_value: float
    hi_value: float
    coarse: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def too_coarse(self) -> bool:
        return bool(self.coarse.any())

    def __call__(self, sigma):
        x = np.asarray(sigma, dtype=float)
        out = np.interp(x, self.sigma_grid, self.values)
        out = np.where(x < self.sigma_grid[0], self.lo_value, out)
        out = np.where(x > self.sigma_grid[-1], self.hi_value, out)
        if np.ndim(sigma) == 0:
            return float(out)
        return out

    def stderr_at(self, sigma) -> float:
        return float(np.interp(sigma, self.sigma_grid, self.stderrs))

    def to_csv(self, path) -> None:
        m = self.meta
        head = ("# B={B} R={R} sigma2={sigma2} seed={seed} n_samples={n_samples} kind={kind}\n"
                .format(**m))
        dirname = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(head)
                fh.write("sigma,value,stderr\n")
                for s, v, e in zip(self.sigma_grid, self.values, self.stderrs):
                    fh.write(f"{float(s)!r},{float(v)!r},{float(e)!r}\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


class MmseTable(MonotoneTable):
    pass


class EntropyTable(MonotoneTable):
    pass


def default_sigma_span(params: UnderlyingParams) -> tuple:
    """Two decades below the zero-error noise, two above the worst case."""
    return (1e-2 * math.sqrt(params.R * params.sigma2),
            1e2 * math.sqrt(params.R * (params.sigma2 + 1.0)))


def build_tables(params: UnderlyingParams, mc: MCConfig,
                 sigma_min: float | None = None, sigma_max: float | None = None,
                 n_points: int = 256) -> tuple:
    """Build the mmse and entropy tables in one pass over the sample stream.

    Common random numbers: every node sees the same z rows, so adjacent-node
    differences are far less noisy than independent estimates, and downstream
    bisections in R or E see smooth curves.
    """
    lo, hi = default_sigma_span(params)
    sigma_min = lo if sigma_min is None else sigma_min
    sigma_max = hi if sigma_max is None else sigma_max
    if not 0 < sigma_min < sigma_max:
        raise ValueError("need 0 < sigma_min < sigma_max")
    if n_points < 16:
        raise ValueError("n_points must be at least 16")
    grid = np.geomspace(sigma_min, sigma_max, n_points)
    n = mc.n_samples
    K = n_points
    sums = {"mmse": np.zeros(K), "entropy": np.zeros(K)}
    sumsq = {"mmse": np.zeros(K), "entropy": np.zeros(K)}
    dsum = {"mmse": np.zeros(K - 1), "entropy": np.zeros(K - 1)}
    dsumsq = {"mmse": np.zeros(K - 1), "entropy": np.zeros(K - 1)}
    for a, b in _chunks(n):
        z = gaussian_block(mc.seed, params.B, a, b, mc.antithetic)
        prev = None
        for k in range(K):
            st = section_stats(z, float(grid[k]), params.B)
            for key in ("mmse", "entropy"):
                v = st[key]
                sums[key][k] += float(v.sum())
                sumsq[key][k] += float((v * v).sum())
                if prev is not None:
                    d = v - prev[key]
                    dsum[key][k - 1] += float(d.sum())
                    dsumsq[key][k - 1] += float((d * d).sum())
            prev = {"mmse": st["mmse"], "entropy": st["entropy"]}
    tables = []
    for key, bounds, cls in (("mmse", (0.0, 1.0 - 1.0 / params.B), MmseTable),
                             ("entropy", (0.0, 1.0), EntropyTable)):
        mean = sums[key] / n
        var = np.maximum(sumsq[key] / n - mean * mean, 0.0) / max(n - 1, 1)
        stderrs = np.sqrt(var)
        dmean = dsum[key] / n
        dvar = np.maximum(dsumsq[key] / n - dmean * dmean, 0.0) / max(n - 1, 1)
        diff_stderrs = np.sqrt(dvar)
        values = np.clip(isotonic_increasing(mean), bounds[0], bounds[1])
        gaps = np.abs(np.diff(values))
        coarse = gaps > 10.0 * np.maximum(stderrs[:-1], stderrs[1:])
        meta = {"B": params.B, "R": params.R, "sigma2": params.sigma2,
                "seed": mc.seed, "n_samples": mc.n_samples, "kind": key}
        tables.append(cls(sigma_grid=grid, values=values, stderrs=stderrs,
                          diff_stderrs=diff_stderrs, lo_value=bounds[0],
                          hi_value=bounds[1], coarse=coarse, meta=meta))
    return tables[0], tables[1]


def build_mmse_table(params: UnderlyingParams, sigma_min: float | None = None,
                     sigma_max: float | None = None, n_points: int = 256,
                     mc: MCConfig | None = None) -> MmseTable:
    if mc is None:
        mc = MCConfig(seed=0, n_samples=default_n_samples(params.B))
    return build_tables(params, mc, sigma_min, sigma_max, n_points)[0]


def build_entropy_table(params: UnderlyingParams, sigma_min: float | None = None,
                        sigma_max: float | None = None, n_points: int = 256,
                        mc: MCConfig | None = None) -> EntropyTable:
    if mc is None:
        mc = MCConfig(seed=0, n_samples=default_n_samples(params.B))
    return build_tables(params, mc, sigma_min, sigma_max, n_points)[1]
