"""Section denoiser, Monte-Carlo mmse/entropy estimators and monotone tables.

The transmitted section is fixed to the first basis vector throughout; the
ensemble is exchangeable over positions so nothing is lost.  A section
observed through the effective channel at noise level Sigma gives scores

    u_j = s_j * log2(B)/Sigma^2 + z_j * sqrt(log2(B))/Sigma

and the posterior mean is the softmax of u, evaluated in log-domain.

Randomness is counter-based: sample i, component j always consumes uniform
word i*B+j of a Philox stream keyed by the seed, mapped through the inverse
normal CDF.  Estimates are therefore bit-identical for a given
(seed, n_samples) no matter how the loop is chunked, and every grid node
reuses the same underlying Gaussians (common random numbers).  R enters only
through Sigma(E) = sqrt(R (sigma2 + E)), so one table pair serves every rate.

stream_moments runs the per-chunk jobs of every estimator on a thread pool
sized to the CPUs the process may use (numpy releases the interpreter lock in
its loops).  Each statistic's chunk sum is the same numpy call on the same
array whichever thread makes it, and the sums are added in stream order, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .ensemble import RATE_CAP, RATE_FLOOR, UnderlyingParams, atomic_write, capacity

_CHUNK = 65536  # fixed so accumulation order never depends on n_samples
# elements per row tile of the sampling and kernel loops (4096 rows at B=16):
# 512 KB of doubles, so each tile's passes stay in a 2 MB L2 cache, yet large
# enough that the per-tile interpreter overhead stays small even at B=4; row
# results do not depend on it
_TILE = 65536
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass(frozen=True)
class MCConfig:
    seed: int
    n_samples: int

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


def _tiles(start: int, stop: int, B: int):
    """Row ranges of about _TILE elements each, covering rows start..stop-1."""
    step = max(1, _TILE // B)
    for a in range(start, stop, step):
        yield a, min(a + step, stop)


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


def gaussian_block(seed: int, B: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the deterministic sample-by-sample normal stream.

    The (rows, B) block is column-major, so each component is one contiguous
    column and section_stats reduces across components column by column.  It
    is drawn tile by tile, so only one tile of uniform words is alive at once.
    """
    z = np.empty((stop - start, B), order="F")
    for a, b in _tiles(start, stop, B):
        u = _uniform_words(seed, a * B, (b - a) * B).reshape(b - a, B)
        np.maximum(u, 1e-300, out=u)
        ndtri(u, out=z[a - start:b - start])
    return z


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
    The rows are walked in cache-sized tiles; numpy reduces a column-major
    tile across components one column at a time, so no row depends on the
    tiling.
    """
    n = z.shape[0]
    sq, ent, f1 = np.empty(n), np.empty(n), np.empty(n)
    for a, b in _tiles(0, n, B):
        u = _scores(z[a:b], sigma, B)
        u -= u.max(axis=1)[:, None]
        u1 = u[:, 0].copy()
        # exp(-300) < 1e-130 is lost against the largest term exp(0) = 1 in
        # every sum below, and 1 - f1 rounds to 1 either way; clipping only
        # keeps exp and the squares out of the slow underflow and subnormal
        # range at small sigma
        np.maximum(u, -300.0, out=u)
        np.exp(u, out=u)
        tot = u.sum(axis=1)
        f1[a:b] = u[:, 0] / tot
        np.square(u, out=u)
        sq[a:b] = u.sum(axis=1) / (tot * tot) - 2.0 * f1[a:b] + 1.0
        ent[a:b] = (np.log(tot) - u1) / math.log(B)
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


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="scse-mc")


if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _moments(job, z) -> list:
    """(sum, sum of squares) of each per-sample array job(z) yields, reduced
    as soon as it is yielded, so a job's arrays never pile up."""
    return [(float(v.sum()), float((v * v).sum())) for v in job(z)]


def stream_moments(mc: MCConfig, B: int, jobs) -> tuple:
    """Means and standard errors of per-sample statistics over the stream.

    Each job maps a Gaussian block z of the (seed, n_samples) stream to an
    iterable of per-sample arrays, always the same number in the same order;
    the statistics are the jobs' arrays in job order.  The jobs of one chunk
    run concurrently; each statistic sums its chunks in stream order, so the
    result depends neither on the chunking nor on the worker count.  The
    pool is made on first use, not at import.
    """
    n = mc.n_samples
    mapper = map if _WORKERS == 1 else _executor(_WORKERS).map
    sums = sumsq = 0.0
    for a, b in _chunks(n):
        z = gaussian_block(mc.seed, B, a, b)
        reduced = list(mapper(functools.partial(_moments, z=z), jobs))
        del z  # release this block before the next one is drawn
        s, s2 = np.array([pair for job in reduced for pair in job]).T
        sums, sumsq = sums + s, sumsq + s2
    means = sums / n
    var = np.maximum(sumsq / n - means * means, 0.0) / max(n - 1, 1)
    return means, np.sqrt(var)


def _mc_mean(params: UnderlyingParams, sigma: float, mc: MCConfig, which: str,
             clamp: tuple) -> Estimate:
    means, stderrs = stream_moments(
        mc, params.B, [lambda z: [section_stats(z, sigma, params.B)[which]]])
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
    stderrs[k] is the standard error of node k's mean; build_tables estimates
    every node from the same samples, one stream_moments job per node.
    """

    sigma_grid: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    lo_value: float
    hi_value: float
    coarse: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def too_coarse(self) -> bool:
        return bool(self.coarse.any())

    def __call__(self, sigma):
        out = np.interp(sigma, self.sigma_grid, self.values, left=self.lo_value, right=self.hi_value)
        return float(out) if np.ndim(out) == 0 else out

    def stderr_at(self, sigma) -> float:
        return float(np.interp(sigma, self.sigma_grid, self.stderrs))

    def to_csv(self, path) -> None:
        head = ("# B={B} sigma2={sigma2} seed={seed} n_samples={n_samples} kind={kind}\n"
                .format(**self.meta))
        rows = (f"{float(s)!r},{float(v)!r},{float(e)!r}\n"
                for s, v, e in zip(self.sigma_grid, self.values, self.stderrs))
        atomic_write(path, itertools.chain([head, "sigma,value,stderr\n"], rows))


def default_sigma_span(params: UnderlyingParams) -> tuple:
    """Every Sigma = sqrt(R (sigma2 + E)) with R in [RATE_FLOOR C, RATE_CAP C]
    and E in [0, 1]; params.R plays no part."""
    C = capacity(params.snr)
    return (math.sqrt(RATE_FLOOR * C * params.sigma2),
            math.sqrt(RATE_CAP * C * (params.sigma2 + 1.0)))


def build_tables(params: UnderlyingParams, mc: MCConfig, n_points: int = 256) -> tuple:
    """Build the mmse and entropy tables in one pass over the sample stream.

    stream_moments gets one job per grid node, so each node's mmse and
    entropy are statistics 2k and 2k+1.  Common random numbers: every node
    sees the same z rows, so adjacent-node differences are far less noisy
    than independent estimates, and downstream bisections in R or E see
    smooth curves.  The tables ignore params.R.
    """
    if n_points < 16:
        raise ValueError("n_points must be at least 16")
    grid = np.geomspace(*default_sigma_span(params), n_points)
    keys = ("mmse", "entropy")

    def node(z, sigma):
        st = section_stats(z, sigma, params.B)
        return [st[key] for key in keys]

    means, stderrs = stream_moments(mc, params.B, [
        functools.partial(node, sigma=float(s)) for s in grid])
    tables = []
    for j, (key, top) in enumerate(zip(keys, (1.0 - 1.0 / params.B, 1.0))):
        node_stderrs = stderrs[j::2]
        values = np.clip(isotonic_increasing(means[j::2]), 0.0, top)
        gaps = np.abs(np.diff(values))
        coarse = gaps > 10.0 * np.maximum(node_stderrs[:-1], node_stderrs[1:])
        meta = {"B": params.B, "sigma2": params.sigma2,
                "seed": mc.seed, "n_samples": mc.n_samples, "kind": key}
        tables.append(MonotoneTable(sigma_grid=grid, values=values, stderrs=node_stderrs,
                                    lo_value=0.0, hi_value=top, coarse=coarse, meta=meta))
    return tables[0], tables[1]
