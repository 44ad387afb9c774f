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

stream_moments walks the stream one kernel tile at a time.  The tiles are
the leaves of numpy's pairwise summation tree over each chunk (_tiles), at
most _KERNEL_TILE // (B + 2) rows.  Per tile, gaussian_block draws only that
tile's rows on the calling thread, _row_bounds forms their bounds, and the
jobs of every estimator run on that block on a thread pool sized to the CPUs
the process may use (numpy releases the interpreter lock in its loops).
Each job returns its per-sample statistics for the tile, whose rows are
reduced at once to (sum, sum of squares).  At the end of a chunk the tile
sums are added in the tree's order, which gives v.sum() and (v * v).sum() of
the statistic's whole chunk v bit for bit, and the chunk sums are added in
stream order, so results are bit-identical for any worker count and any
tile budget.  No chunk-long array is formed: the pass holds one tile's
Gaussian block, at most _KERNEL_TILE doubles (1.2 MB) up to B = 1024, where
a 65536-row chunk is 8 MB at B=16 and 512 MiB at B=1024.

Each estimator is a Plan: its stream_moments jobs plus a finish step that
maps their (means, stderrs) to its result.  stream_plans runs several plans
in one pass over the stream and keeps each job's sums apart, so every finish
step gets its own jobs' statistics and `scse verify` draws each Gaussian row
once for its tables and both identity checks; a statistic's chunk sums are
the same whichever plans share the pass.  A tile's bounds are the row vector
max_{j>1} z_j and the largest max_{j>1} z_j - z_1 over its rows.  Neither
depends on Sigma, so section_stats reads them instead of reducing z's off
columns again at every node.

section_stats forms only the statistics its caller names (mmse, entropy,
f1): a table node reads mmse and entropy, a Nishimori point mmse and f1, an
I-MMSE difference one entropy at a time.  It handles one tile per call and
returns them as the rows of one new array, which the job combines in place
and returns.  Nothing else is allocated per call: each thread keeps one
score buffer and two row vectors across calls, every pass writes in place or
through out=, and the row results go straight into the returned array.

section_stats skips every kernel tile whose rows are decided: each off
score sits so far below the transmitted one (_decided_margin) that the
posterior is the transmitted index to machine precision, and the full passes
would give exactly mmse = entropy = 0 and f1 = 1.  The row test reads the
tile's row maxima over z's off columns and is exact, not statistical (see
section_stats).  The tile statistic of the bounds settles almost every tile
at a Sigma without that test: it calls a tile decided only where every
row is, with a rounding allowance delta derived in section_stats, and leaves
the few tiles within delta of the margin to the row test.  At the low-noise
end of a table's grid, where the floor E0 and the pinned boundary blocks of
the coupled chain sit, about two fifths of a table build's tile-rows are
decided.

The inverse normal CDF is _ndtri, a numpy port of the Cephes ndtri (Cephes
Math Library, Copyright 1984-2002 Stephen L. Moshier) as scipy 1.17 ships it
in scipy.special (BSD-3-Clause, 2003-2024 SciPy Developers): the same
coefficients, Horner order, branch tests and sign flip, so every sample
matches scipy.special.ndtri bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import Generator, Philox  # at import: numpy loads it lazily

from .ensemble import RATE_CAP, RATE_FLOOR, UnderlyingParams, atomic_write, capacity

DEFAULT_N_POINTS = 256  # nodes of a lookup table's Sigma grid
_CHUNK = 65536  # fixed so accumulation order never depends on n_samples
# the budget in doubles of a thread's working set per row tile.  The kernel
# walks the leaves of numpy's pairwise summation tree (_tiles), at most
# _KERNEL_TILE // (B + 2) rows, whose column-major scores and two row vectors
# then fill 1.2 MB at any B and stay in a 2 MB L2 cache: 8192-row leaves on a
# full B=16 chunk, and 8616 on the 34464-row last chunk of 10^5 samples,
# which a budget of 147456 would split into 4304-row leaves.  The Monte-Carlo
# pass draws one leaf's Gaussian block at a time, and the sampler draws it
# _KERNEL_TILE // (8 B) rows at a time: ndtri keeps about four arrays of a
# step's words, half a kernel scratch, which the draw of the next leaf finds
# alive on the pool's threads.  No result depends on either tile.
_KERNEL_TILE = 157286
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


def _half(n: int, leaf: int) -> int:
    """Rows in the first half of an n-row node of numpy's pairwise summation,
    or 0 where the node is a leaf of at most leaf rows.

    numpy's pairwise_sum splits an array of n > 128 doubles into n2 =
    n//2 - (n//2 mod 8) and n - n2, and adds the two halves' sums.  With
    leaf >= 128 every leaf here is a node of that tree, so numpy sums it
    exactly as it would inside the whole array.
    """
    if n <= leaf:
        return 0
    half = n // 2
    return half - half % 8


def _leaf_rows(B: int) -> int:
    return max(_KERNEL_TILE // (B + 2), 128)


def _tiles(n: int, B: int) -> tuple:
    """Row ranges covering rows 0..n-1: the leaves, in order, of numpy's
    pairwise summation tree over n rows (_half), each at most
    max(_KERNEL_TILE // (B + 2), 128) rows."""
    return _leaves(n, _leaf_rows(B))


@functools.lru_cache(maxsize=64)
def _leaves(n: int, leaf: int) -> tuple:
    half = _half(n, leaf)
    if not half:
        return ((0, n),)
    return _leaves(half, leaf) + tuple((a + half, b + half) for a, b in _leaves(n - half, leaf))


def _pairwise_add(leaves, n: int, B: int):
    """The per-tile values leaves of _tiles(n, B) added in the order of
    numpy's pairwise summation over the n rows."""
    leaf, it = _leaf_rows(B), iter(leaves)

    def node(n):
        half = _half(n, leaf)
        return node(half) + node(n - half) if half else next(it)

    return node(n)


def _uniform_words(seed: int, word_start: int, n_words: int) -> np.ndarray:
    """Uniform doubles word_start..word_start+n_words-1 of the Philox stream.

    Philox.advance counts 4-word blocks, so align to the enclosing block and
    drop the padding; any (start, stop) slicing then reproduces the same
    values bit for bit.
    """
    pad = word_start % 4
    bg = Philox(key=seed)
    bg.advance((word_start - pad) // 4)
    return Generator(bg).random(pad + n_words)[pad:]


# Cephes ndtri: x = y + y y^2 P0(y^2)/Q0(y^2) scaled by sqrt(2 pi), with
# y = p - 1/2, for exp(-2) < p < 1 - exp(-2); in the tails x = sqrt(-2 ln p)
# and the result is x - ln(x)/x - P(1/x)/(x Q(1/x)) with (P1, Q1) for x < 8
# and (P2, Q2) beyond.  The Q's leading coefficient 1 is implicit (p1evl).
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _horner(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    """Cephes polevl (or p1evl when monic, leading coefficient 1 implied):
    ans = ans * x + c from the highest coefficient down, in one new array."""
    if monic:
        ans = x + coef[0]
    else:
        ans = x * coef[0]
        ans += coef[1]
        coef = coef[1:]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _clog(x: np.ndarray) -> np.ndarray:
    """Natural log of a forward contiguous 1-D array by the C library's log.

    numpy's SIMD float64 log, taken for contiguous arrays on some CPUs,
    differs from the C library's in the last bit on a few inputs.  Read
    backwards, the input keeps numpy on its scalar loop, which calls the C
    library's log as Cephes does; the output is written forwards and read
    back reversed.  (Reversing the output too would let numpy flip both
    strides and return to the SIMD loop.)
    """
    return np.log(x[::-1])[::-1]


def _ndtri_tails(y: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Cephes ndtri's tail branch on words y <= exp(-2), negated where lower
    (Cephes flips an upper-tail word p to y = 1 - p and leaves its sign)."""
    x = -2.0 * _clog(y)  # a new forward array, as _clog(x) needs
    np.sqrt(x, out=x)
    out = _clog(x)
    out /= x
    np.subtract(x, out, out=out)
    z = 1.0 / x
    x1 = z * _horner(z, _P1)
    x1 /= _horner(z, _Q1, monic=True)
    far = np.flatnonzero(x >= 8.0)  # y < exp(-32)
    if far.size:
        zf = z[far]
        x1[far] = zf * _horner(zf, _P2) / _horner(zf, _Q2, monic=True)
    out -= x1
    np.negative(out, out=out, where=lower)
    return out


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of a contiguous 1-D array of words in (0, 1).

    Bit for bit Cephes ndtri (see the module docstring); p is overwritten.
    Cephes flips p > 1 - exp(-2) to 1 - p, which is exact, and since
    1 - fl(1 - exp(-2)) == fl(exp(-2)) a flipped word always lands in a
    tail.  So the tail words are taken out first, and the central fit then
    runs in place on every word; the tails overwrite their slots after.
    """
    tail = np.flatnonzero((p <= _EXPM2) | (p > 1.0 - _EXPM2))
    y = p[tail]
    lower = y <= 0.5
    np.subtract(1.0, y, out=y, where=~lower)
    x_tail = _ndtri_tails(y, lower)
    del y, lower

    p -= 0.5
    y2 = p * p
    x = _horner(y2, _P0)
    x *= y2
    x /= _horner(y2, _Q0, monic=True)
    del y2
    x *= p
    x += p
    x *= _S2PI
    x[tail] = x_tail
    return x


def gaussian_block(seed: int, B: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the deterministic sample-by-sample normal stream.

    The (rows, B) block is column-major, so each component is one contiguous
    column and section_stats reduces across components column by column.
    stream_moments asks for one kernel tile's rows at a time.  The block is
    drawn on the calling thread in steps of _KERNEL_TILE // (8 B) rows, so
    only one step of uniform words is alive at once; each row reads its own
    words, so the block does not depend on the steps, and any split of
    start..stop into blocks gives the same rows bit for bit.
    """
    z = np.empty((stop - start, B), order="F")
    step = max(1, _KERNEL_TILE // (8 * B))
    for a in range(start, stop, step):
        b = min(a + step, stop)
        u = _uniform_words(seed, a * B, (b - a) * B)
        np.maximum(u, 1e-300, out=u)
        z[a - start:b - start] = _ndtri(u).reshape(b - a, B)
    return z


def _score_scales(sigma: float, B: int) -> tuple:
    """(c, d) with u = c z, plus d on the transmitted component."""
    lb = math.log2(B)
    return math.sqrt(lb) / sigma, lb / (sigma * sigma)


def _scores(z: np.ndarray, sigma: float, B: int, out: np.ndarray | None = None) -> np.ndarray:
    c, d = _score_scales(sigma, B)
    u = np.multiply(z, c, out=out, order="F")
    u[:, 0] += d
    return u


_scratch = threading.local()


def _kernel_scratch(rows: int, B: int) -> np.ndarray:
    """This thread's buffer of at least rows*(B + 2) doubles: section_stats'
    score buffer of rows*B and its two row vectors.  It is kept across calls
    and made anew, at rows*(B + 2), only when a call needs more or less than
    a quarter of it.  So a pass sizes it by the largest leaf a thread runs
    (the leaves of one chunk differ by less than a factor 4), and one large
    call leaves no large buffer behind."""
    s, need = _scratch, rows * (B + 2)
    buf = getattr(s, "buf", None)
    if buf is None or not need <= buf.size <= 4 * need:
        buf = s.buf = None  # release the old buffer before the new one is made
        buf = s.buf = np.empty(need)
    return buf


def _decided_margin(B: int) -> float:
    """M such that a row whose off scores all sit at least M below u_1 gives
    exactly sum e = sum e^2 = 1 in section_stats.

    Each off weight is then at most e^-M, and (B - 1) e^-M < 2^-53 once
    M > 53 ln 2 + ln(B - 1), about 36.7 + ln(B - 1): the off weights add up
    to less than half an ulp of the weight e^0 = 1 of u_1, so both sums
    round to 1 in any order.  ln B for ln(B - 1) and the extra 1 (a factor
    e) leave room for the last-bit error of exp.
    """
    return 53 * math.log(2) + math.log(B) + 1.0


# |z_1| and row off maxima up to which a tile statistic is read; the sampler's
# rows stay within 38 (ndtri of its smallest word, 1e-300, is -37.0)
_Z_CAP = 64.0
_STATS = ("mmse", "entropy", "f1")


class RowBounds(NamedTuple):
    """section_stats' bounds for one kernel tile's block z (_row_bounds)."""

    off_max: np.ndarray  # max_{j>1} z_j of every row
    tile_gap: float      # the largest off_max - z_1 over the rows; NaN: test the rows


def _row_bounds(z: np.ndarray) -> RowBounds:
    """The row maxima over z's off columns and the largest
    fl(max_{j>1} z_j - z_1) over z's rows, NaN where a |z_1| or an off
    maximum exceeds _Z_CAP or is not finite.  stream_moments forms them once
    per kernel tile, for every job."""
    off_max = np.max(z[:, 1:], axis=1)
    z1 = z[:, 0]
    size = np.maximum(np.abs(off_max).max(), np.abs(z1).max())  # NaN if either is
    return RowBounds(off_max, float((off_max - z1).max()) if size <= _Z_CAP else math.nan)


def _tile_verdict(tile_gap: float, c: float, d: float, B: int) -> bool | None:
    """From a tile's statistic g: True when every row is decided, False when
    some row is not, None when the rows must be tested (see section_stats
    for delta and the guard on c Z + d)."""
    span = c * _Z_CAP + d
    if not span < 2.0 ** 1000:
        return None
    margin = _decided_margin(B)
    delta = (span + margin) * 2.0 ** -49
    G = c * tile_gap - d  # NaN for a NaN g, and then neither test holds
    return True if G <= -margin - delta else False if G > -margin + delta else None


@functools.lru_cache(maxsize=None)
def _key_layout(keys: tuple) -> tuple:
    """The rows of mmse, entropy and f1 in section_stats' array for keys
    (None where not asked for), and a decided row's values in keys' order.
    Raises ValueError for keys that are not distinct names from _STATS."""
    if not set(keys) <= set(_STATS) or len(set(keys)) < len(keys):
        raise ValueError(f"keys must be distinct names from {_STATS}, got {keys!r}")
    fill = np.array([[1.0 if key == "f1" else 0.0] for key in keys])
    fill.flags.writeable = False
    return tuple(keys.index(key) if key in keys else None for key in _STATS), fill


def section_stats(z: np.ndarray, sigma: float, B: int, bounds: RowBounds | None = None,
                  keys: tuple = _STATS) -> np.ndarray:
    """Per-sample squared error, entropy summand and true-component weight
    of every row of z, as a new (len(keys), rows) array.

    One exp pass over the shifted scores e = exp(u - max u) serves all three
    integrands:
      f1:      posterior weight of the transmitted component, e_1 / sum e
      mmse:    sum_i (f_i - s_i)^2 = sum e^2 / (sum e)^2 - 2 f_1 + 1
      entropy: log_B of the posterior-odds sum = (log sum e - (u_1 - max u))/ln(B)
    Only the statistics named in keys are formed.  Without "mmse" the
    square, its sum and the five row operations after it are skipped;
    without "entropy" the copy of u_1 - max u, the log, the subtraction and
    the division; without both "mmse" and "f1" the division that forms f1,
    which mmse alone forms in the thread's scratch.  Each statistic's bits
    do not depend on which others are asked for.

    z is one kernel tile: stream_moments calls section_stats once per leaf
    of numpy's pairwise summation tree over a chunk (_tiles), at most
    _KERNEL_TILE // (B + 2) rows, and the returned array's rows are the
    statistics in keys' order.  The passes run in the calling thread's
    scratch (_kernel_scratch), a column-major score buffer and two row
    vectors of z's rows, at most 1.2 MB at a leaf, kept across calls.  Each
    pass writes in place or through out=, and the row results go straight
    into the returned array, the one allocation of a call.  numpy reduces a
    column-major block across components one column at a time, so no row
    depends on the other rows of z: any split of a block into tiles gives
    the same rows bit for bit.  keys are checked on a call with keys not
    seen before.

    bounds is what stream_moments forms once per kernel tile (_row_bounds):
    the row vector max_{j>1} z_j and the tile statistic g.  Neither depends
    on Sigma, so every node of a tile shares them.  A call without bounds
    forms the row vector from z and reads no tile statistic.

    A decided tile skips the kernel.  A row is decided when u_1 and
    max_{j>1} u_j are finite and max_{j>1} u_j - u_1 <= -M, with
    M = _decided_margin(B).  Then max u = u_1 and sum e = sum e^2 = 1, so
    the passes below give exactly f1 = 1, mmse = 1 - 2 + 1 = +0.0 and
    entropy = (log 1 - 0)/ln(B) = +0.0.  The row test is exact: c =
    sqrt(log2 B)/Sigma > 0 and rounding is monotone, so max_{j>1} fl(c z_j)
    = fl(c max_{j>1} z_j), and every shifted off score fl(u_j - u_1) is at
    most fl(fl(c max_{j>1} z_j) - u_1).  That bound is formed per row from
    the off maxima.  When it is <= -M on every row of z, the rows are
    filled with (+0.0, +0.0, 1.0) and nothing else runs.  Otherwise the
    full passes run, with max u = max(fl(c max_{j>1} z_j), u_1), the same
    value bit for bit as a row max over u.  A NaN or +inf in z, or a -inf
    in its first column or in all of its others, keeps a row undecided.  A
    -inf off entry below a finite row max does not; the full passes give
    that row the same exact zeros, since exp(-inf) = 0.

    The tile statistic settles almost every tile without the row test.  g
    is the largest fl(m - z_1) over the tile's rows, m = max_{j>1} z_j, and
    G = fl(fl(c g) - d).  A tile is decided when G <= fl(-M - delta), and
    goes to the full passes untested when G > fl(-M + delta); the full
    passes are exact on any tile, so that branch needs no proof.  Otherwise
    the row test runs, as it does for a NaN g: _row_bounds gives a tile NaN
    when a |z_1| or an m exceeds Z = _Z_CAP or is not finite.  No statistic
    is read unless c Z + d < 2^1000, so every score the row test would form
    is finite.  With eps = 2^-53 and |m|, |z_1| <= Z on every row:
      - the row test's fl(fl(c m) - fl(fl(c z_1) + d)) lies within
        eps (5 c Z + 2 d)(1 + eps)^2 of c (m - z_1) - d;
      - fl(m - z_1) <= g, so m - z_1 <= g + 2 eps Z;
      - G lies within eps (4 c Z + d)(1 + eps)^2 of c g - d.
    So every row's test value is at most G + eps (11 c Z + 3 d)(1 + eps)^2,
    and fl(-M - delta) is at most -M - delta + eps (M + delta).  Every row
    is then decided once delta (1 - eps) >= eps (M + (11 c Z + 3 d)
    (1 + eps)^2), which delta = 2^-49 (c Z + d + M) = 16 eps (c Z + d + M)
    meets with room for its own rounding and for the absolute errors, below
    2^-1074 each, of any product that underflows.  The same bounds taken
    from below show that a tile with G > fl(-M + delta) has an undecided
    row, the one whose fl(m - z_1) is g, so both branches agree with the row
    test.

    z is left untouched.
    """
    (i_sq, i_ent, i_f1), fill = _key_layout(keys)
    n = z.shape[0]
    c, d = _score_scales(sigma, B)
    if bounds is None:
        off_max, decided = np.max(z[:, 1:], axis=1), None
    else:
        off_max, decided = bounds.off_max, _tile_verdict(bounds.tile_gap, c, d, B)
    out = np.empty((len(keys), n))
    if decided:
        out[:] = fill
        return out
    buf = _kernel_scratch(n, B)
    scores, mx, tot = buf[:n * B], buf[n * B:n * (B + 1)], buf[n * (B + 1):n * (B + 2)]
    np.multiply(off_max, c, out=mx)  # max_{j>1} u_j
    np.multiply(z[:, 0], c, out=tot)
    tot += d  # u_1
    if decided is None:
        gap = np.subtract(mx, tot, out=scores[:n])
        # a NaN or +inf anywhere, or -inf in u_1, fails the first test, and
        # u_1 = +inf or every u_j = -inf the second (see the docstring)
        if gap.max() <= -_decided_margin(B) and gap.min() > -math.inf:
            out[:] = fill
            return out
    np.maximum(mx, tot, out=mx)
    u = scores.reshape(n, B, order="F")
    _scores(z, sigma, B, out=u)
    u -= mx[:, None]
    if i_ent is not None:
        e = out[i_ent]
        e[:] = u[:, 0]  # u_1 - max u, until the entropy is formed below
    np.exp(u, out=u)
    np.add.reduce(u, axis=1, out=tot)
    if i_sq is not None or i_f1 is not None:
        f = mx if i_f1 is None else out[i_f1]  # mx is spent once u is shifted
        np.divide(u[:, 0], tot, out=f)
    if i_sq is not None:
        s = out[i_sq]
        np.square(u, out=u)
        np.add.reduce(u, axis=1, out=s)  # sum e^2
        tmp = scores[:n]  # u is spent
        np.multiply(tot, tot, out=tmp)
        s /= tmp
        np.multiply(2.0, f, out=tmp)
        s -= tmp
        s += 1.0
    if i_ent is not None:
        np.log(tot, out=tot)
        np.subtract(tot, e, out=e)
        e /= math.log(B)
    return out


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="scse-mc")


if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _moments(stats: np.ndarray, B: int) -> np.ndarray:
    """The sums and sums of squares along the rows of a job's (k, tile rows)
    array of per-sample statistics, as a (2, k) array.

    The squares go into the thread's kernel scratch, idle once the job has
    returned, which holds them for up to B + 2 statistics.  numpy sums each
    row of a kernel tile exactly as it sums that leaf inside its pairwise
    tree over the chunk, so the tiles' sums added in the tree's order
    (_pairwise_add) are v.sum() and (v * v).sum() of the statistic's whole
    chunk v bit for bit, and no chunk-long statistic is ever formed.
    """
    k, m = stats.shape
    squares = np.square(stats, out=_kernel_scratch(m, B)[:k * m].reshape(k, m))
    return np.array((np.add.reduce(stats, axis=1), np.add.reduce(squares, axis=1)))


def _tile_moments(mc: MCConfig, B: int, start: int, stop: int, jobs) -> list:
    """Per job, _moments of what it returns for rows start..stop-1 of the
    stream, one kernel tile, drawn and bounded here once for every job.

    With more than one worker, _WORKERS pool tasks share one iterator over
    the jobs and each runs the next job it pulls, so a tile costs a few
    futures however many jobs there are."""
    z = gaussian_block(mc.seed, B, start, stop)
    bounds = _row_bounds(z)
    sums = [None] * len(jobs)
    todo = iter(range(len(jobs)))

    def run():
        for j in todo:  # the interpreter lock hands each index to one task
            sums[j] = _moments(jobs[j](z, bounds), B)

    if _WORKERS == 1:
        run()
    else:
        pool = _executor(_WORKERS)
        for task in [pool.submit(run) for _ in range(_WORKERS)]:
            task.result()
    return sums


def _stream_sums(mc: MCConfig, B: int, jobs) -> list:
    """Per job, a (2, m) array of the sums and sums of squares over the
    stream of each of the m per-sample statistics it returns (see
    stream_moments)."""
    total, widths = 0.0, None
    for a, b in _chunks(mc.n_samples):
        tiles = []
        for ta, tb in _tiles(b - a, B):
            sums = _tile_moments(mc, B, a + ta, a + tb, jobs)
            widths = widths or [s.shape[1] for s in sums]
            tiles.append(np.concatenate(sums, axis=1))
        total = total + (0.0 + _pairwise_add(tiles, b - a, B))
    return np.split(total, np.cumsum(widths)[:-1], axis=1)


class Plan(NamedTuple):
    """One Monte-Carlo estimator: stream_moments jobs, and finish(means,
    stderrs) over the statistics they return, in job order."""

    jobs: list
    finish: Callable


def stream_plans(mc: MCConfig, B: int, plans) -> list:
    """Finish every plan from one pass over the stream for all their jobs.

    Each job's sums are kept apart, so every plan's finish step gets the
    statistics of its own jobs, bit-identical to a pass over them alone,
    while each Gaussian row is drawn once.
    """
    n = mc.n_samples
    sums = iter(_stream_sums(mc, B, [job for plan in plans for job in plan.jobs]))
    results = []
    for plan in plans:
        s, s2 = np.concatenate([next(sums) for _ in plan.jobs], axis=1)
        means = s / n
        var = np.maximum(s2 / n - means * means, 0.0) / max(n - 1, 1)
        results.append(plan.finish(means, np.sqrt(var)))
    return results


def stream_moments(mc: MCConfig, B: int, jobs) -> tuple:
    """Means and standard errors of per-sample statistics over the stream.

    The stream is walked one kernel tile at a time: the leaves of numpy's
    pairwise summation tree over each chunk (_tiles), at most
    _KERNEL_TILE // (B + 2) rows.  Per tile, gaussian_block draws only that
    tile's rows, _row_bounds forms their bounds (the row maxima over z's off
    columns and the tile statistic), and every job maps the block z and its
    bounds to a (k, tile rows) array, outside the thread's kernel scratch,
    whose rows are its k <= B + 2 per-sample statistics, the same k on every
    tile; the statistics are the jobs' in job order.  The jobs of one tile run concurrently.  Each
    statistic sums its tiles in numpy's pairwise order and its chunks in
    stream order, so the result depends neither on the chunking nor on the
    tiling nor on the worker count, and no chunk-long array is held: the
    pass keeps one tile's block, a thread's kernel scratch per worker and
    each statistic's per-tile sums.  The pool is made on first use, not at
    import.
    """
    return stream_plans(mc, B, [Plan(jobs, lambda means, stderrs: (means, stderrs))])[0]


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

    def segments(self) -> tuple:
        """(a, b) with the table equal to a_k + b_k Sigma between nodes k and k+1."""
        s, v = self.sigma_grid, self.values
        b = np.diff(v) / np.diff(s)
        return v[:-1] - b * s[:-1], b

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


def table_plan(params: UnderlyingParams, mc: MCConfig,
               n_points: int = DEFAULT_N_POINTS) -> Plan:
    """build_tables as a Plan: one job per grid node, whose mmse and entropy
    are statistics 2k and 2k+1, finished into the (mmse, entropy) pair."""
    if n_points < 16:
        raise ValueError("n_points must be at least 16")
    grid = np.geomspace(*default_sigma_span(params), n_points)
    keys = ("mmse", "entropy")

    def node(z, bounds, sigma):
        return section_stats(z, sigma, params.B, bounds, keys)

    def finish(means, stderrs):
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

    return Plan([functools.partial(node, sigma=float(s)) for s in grid], finish)


def build_tables(params: UnderlyingParams, mc: MCConfig,
                 n_points: int = DEFAULT_N_POINTS) -> tuple:
    """Build the mmse and entropy tables in one pass over the sample stream.

    stream_moments gets one job per grid node (table_plan).  Common random
    numbers: every node sees the same z rows, so adjacent-node differences
    are far less noisy than independent estimates, and downstream bisections
    in R or E see smooth curves.  The tables ignore params.R.
    """
    return stream_plans(mc, params.B, [table_plan(params, mc, n_points)])[0]
