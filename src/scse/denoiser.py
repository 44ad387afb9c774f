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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .ensemble import UnderlyingParams, atomic_write

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


def stream_moments(mc: MCConfig, B: int, per_chunk, size: int) -> tuple:
    """Means and standard errors of `size` per-sample statistics.

    per_chunk(z) yields one per-sample array per statistic, always in the same
    order, for each Gaussian block z of the (seed, n_samples) stream.  Each
    statistic sums its chunks in stream order, so the result is independent of
    how the samples are chunked.
    """
    n = mc.n_samples
    sums = np.zeros(size)
    sumsq = np.zeros(size)
    for a, b in _chunks(n):
        z = gaussian_block(mc.seed, B, a, b, mc.antithetic)
        for i, v in enumerate(per_chunk(z)):
            sums[i] += float(v.sum())
            sumsq[i] += float((v * v).sum())
    means = sums / n
    var = np.maximum(sumsq / n - means * means, 0.0) / max(n - 1, 1)
    return means, np.sqrt(var)


def _mc_mean(params: UnderlyingParams, sigma: float, mc: MCConfig, which: str,
             clamp: tuple) -> Estimate:
    means, stderrs = stream_moments(
        mc, params.B, lambda z: [section_stats(z, sigma, params.B)[which]], 1)
    return Estimate(value=float(min(max(means[0], clamp[0]), clamp[1])),
                    stderr=float(stderrs[0]), n=mc.n_samples)


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
        out = np.interp(x, self.sigma_grid, self.values, left=self.lo_value, right=self.hi_value)
        if np.ndim(sigma) == 0:
            return float(out)
        return out

    def stderr_at(self, sigma) -> float:
        return float(np.interp(sigma, self.sigma_grid, self.stderrs))

    def to_csv(self, path) -> None:
        head = ("# B={B} R={R} sigma2={sigma2} seed={seed} n_samples={n_samples} kind={kind}\n"
                .format(**self.meta))
        rows = (f"{float(s)!r},{float(v)!r},{float(e)!r}\n"
                for s, v, e in zip(self.sigma_grid, self.values, self.stderrs))
        atomic_write(path, itertools.chain([head, "sigma,value,stderr\n"], rows))


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
    keys = ("mmse", "entropy")

    def per_chunk(z):
        # slot 4k+j holds node k's statistic keys[j]; slot 4k-2+j its
        # difference from node k-1
        prev = None
        for sigma in grid:
            st = section_stats(z, float(sigma), params.B)
            if prev is not None:
                yield from (st[key] - prev[key] for key in keys)
            yield from (st[key] for key in keys)
            prev = st

    means, stderrs = stream_moments(mc, params.B, per_chunk, 4 * n_points - 2)
    tables = []
    for j, (key, top) in enumerate(zip(keys, (1.0 - 1.0 / params.B, 1.0))):
        node_stderrs = stderrs[j::4]
        values = np.clip(isotonic_increasing(means[j::4]), 0.0, top)
        gaps = np.abs(np.diff(values))
        coarse = gaps > 10.0 * np.maximum(node_stderrs[:-1], node_stderrs[1:])
        meta = {"B": params.B, "R": params.R, "sigma2": params.sigma2,
                "seed": mc.seed, "n_samples": mc.n_samples, "kind": key}
        tables.append(MonotoneTable(sigma_grid=grid, values=values, stderrs=node_stderrs,
                                    diff_stderrs=stderrs[2 + j::4], lo_value=0.0,
                                    hi_value=top, coarse=coarse, meta=meta))
    return tables[0], tables[1]
