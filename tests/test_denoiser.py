import hashlib
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from scse import (MCConfig, MonotoneTable, UnderlyingParams, build_tables,
                  capacity, default_n_samples, denoise_section, denoiser,
                  entropy_estimate, gaussian_block, isotonic_increasing,
                  mmse_estimate, sigma_underlying)
from scse.denoiser import _scores, default_sigma_span, section_stats, stream_moments
from scse.ensemble import RATE_CAP, RATE_FLOOR

from conftest import MC_TWO_CHUNKS, SIGMA2, serial_untiled

from oracles import (b2_entropy_quad, b2_mmse_quad, b2_posterior_weight_quad,
                     direct_softmax_denoiser, pav_brute_force)

# Quadrature reference values at B=2 (64-node Gauss-Hermite; stable to
# ~1e-13 against 127 nodes).
B2_MMSE = {0.5: 0.11550896483608532, 1.0: 0.3249432976622604,
           2.0: 0.444060837156535}
B2_ENTROPY = {0.5: 0.27854840538123754, 1.0: 0.7095198866391506}


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(seed=0, n_samples=0)
    with pytest.raises(ValueError):
        MCConfig(seed=-1, n_samples=10)
    with pytest.raises(ValueError):
        MCConfig(seed=2 ** 64, n_samples=10)


def test_default_n_samples():
    assert default_n_samples(2) == 100_000
    assert default_n_samples(16) == 100_000
    assert default_n_samples(64) == 25_000


def test_gaussian_block_chunking_invariance():
    whole = gaussian_block(3, 4, 0, 100)
    parts = np.vstack([gaussian_block(3, 4, 0, 37), gaussian_block(3, 4, 37, 100)])
    np.testing.assert_array_equal(whole, parts)
    assert whole.shape == (100, 4)
    # different seeds decorrelate
    other = gaussian_block(4, 4, 0, 100)
    assert not np.allclose(whole, other)


def test_gaussian_block_column_major_same_values(monkeypatch):
    # the block is the inverse normal CDF of consecutive Philox words, laid
    # out row by row as (sample, component) and stored column-major, however
    # many tiles it is drawn in
    words = np.random.Generator(np.random.Philox(key=3)).random(100 * 4)
    expected = ndtri(np.maximum(words.reshape(100, 4), 1e-300))
    for tile in (65536, 28):  # one tile, and tiles of 7 rows
        monkeypatch.setattr(denoiser, "_TILE", tile)
        for start, stop in ((0, 100), (37, 100), (5, 6)):
            z = gaussian_block(3, 4, start, stop)
            assert z.flags.f_contiguous and z.shape == (stop - start, 4)
            np.testing.assert_array_equal(z, expected[start:stop])


def _assert_ndtri_bits(words):
    got = denoiser._ndtri(words.copy())
    want = ndtri(words)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, [(float(words[k]), float(got[k]), float(want[k])) for k in bad[:5]]


@pytest.mark.parametrize("seed", range(5))
def test_ndtri_matches_scipy_on_philox_words(seed):
    # 4e6 words per seed, 2e7 over the five, drawn as gaussian_block draws them
    for k in range(4):
        words = denoiser._uniform_words(seed, k * 1_000_000, 1_000_000)
        _assert_ndtri_bits(np.maximum(words, 1e-300))


def test_ndtri_matches_scipy_on_edge_words():
    ulp = 2.0 ** -53
    expm2, expm32 = math.exp(-2.0), math.exp(-32.0)

    def around(x, n=8):  # n floats on each side of x, and x
        up, down = [x], [x]
        for _ in range(n):
            up.append(math.nextafter(up[-1], 1.0))
            down.append(math.nextafter(down[-1], 0.0))
        return down[:0:-1] + up

    k = np.arange(1.0, 4097.0)
    words = np.concatenate([
        [1e-300, 0.5],
        k * ulp,                               # the smallest words; e^-32 is 114 ulp
        1.0 - k * ulp,                         # the largest words, from 1 - 2^-53
        around(expm2), around(1.0 - expm2),    # the central fit's ends
        around(expm32),                        # the tail fits' switch, off the word grid
    ])
    assert ((words > 0.0) & (words < 1.0)).all()
    assert (k * ulp < expm32).sum() == 114
    _assert_ndtri_bits(words)


def test_clog_is_the_c_library_log():
    # numpy's contiguous SIMD log may differ from the C library's in the last
    # bit, and scipy's ndtri uses the C library's; a numpy whose scalar loop
    # were vectorized too would fail here
    words = denoiser._uniform_words(0, 0, 400_000) * math.exp(-2.0)
    exact = np.array([math.log(w) for w in words])
    simd = np.log(words)
    np.testing.assert_array_equal(denoiser._clog(words), exact)
    differ = simd != exact
    np.testing.assert_array_equal(denoiser._clog(words[differ]), exact[differ])
    for w in words[differ][:16]:  # alone, where a size-1 array counts as contiguous
        assert denoiser._clog(np.array([w]))[0] == math.log(w)


@pytest.mark.parametrize("B", [4, 16])
def test_gaussian_block_same_on_any_pool(mc_layout, B):
    # the pooled tiles reproduce the serial untiled draw; at B=16, tiles of
    # 5000 rows end inside the block, and the block starts off a tile
    with serial_untiled():
        want = gaussian_block(9, B, 37, 70_001)
    got = gaussian_block(9, B, 37, 70_001)
    assert got.flags.f_contiguous
    np.testing.assert_array_equal(got, want)


def test_gaussian_block_pool_stress(monkeypatch):
    # more workers than cores (up to 8 cores), 7-row tiles and a short switch
    # interval: the threads write disjoint tiles of one block, switching often
    with serial_untiled():
        want = gaussian_block(2, 4, 3, 5003)
    monkeypatch.setattr(denoiser, "_WORKERS", min((os.cpu_count() or 1) + 1, 9))
    monkeypatch.setattr(denoiser, "_TILE", 28)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = gaussian_block(2, 4, 3, 5003)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(got, want)


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(denoiser.__file__)))
    code = ("import sys, scse, scse.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _two_pass_stats(z, sigma, B):
    """Plain log-sum-exp softmax: one exp for the normaliser, one for f."""
    lb = math.log2(B)
    u = np.array(z, dtype=float) * (math.sqrt(lb) / sigma)
    u[:, 0] += lb / (sigma * sigma)
    m = u.max(axis=1)
    lse = m + np.log(np.exp(u - m[:, None]).sum(axis=1))
    f = np.exp(u - lse[:, None])
    return {"mmse": (f * f).sum(axis=1) - 2.0 * f[:, 0] + 1.0,
            "entropy": (lse - u[:, 0]) / math.log(B), "f1": f[:, 0]}


@pytest.mark.parametrize("B", [2, 4, 16, 32])
def test_section_stats_matches_two_pass_softmax(B):
    # sigmas run two decades past both ends of the table grid at snr 15,
    # sqrt((C/256) sigma2) = 0.023 to sqrt(4C (sigma2 + 1)) = 2.9
    zf = gaussian_block(11, B, 0, 4000)
    zc = np.ascontiguousarray(zf)
    for sigma in np.geomspace(2e-4, 300.0, 13):
        ref = _two_pass_stats(zc, float(sigma), B)
        for z in (zc, zf):
            before = z.copy()
            got = section_stats(z, float(sigma), B)
            np.testing.assert_array_equal(z, before)  # input left untouched
            for key in ("mmse", "entropy", "f1"):
                np.testing.assert_allclose(got[key], ref[key], rtol=0, atol=1e-12,
                                           err_msg=f"{key} at sigma={sigma}")


def _unclipped_stats(z, sigma, B):
    """section_stats without the clip of the shifted scores at -300."""
    u = _scores(z, sigma, B)
    u -= u.max(axis=1)[:, None]
    u1 = u[:, 0].copy()
    np.exp(u, out=u)
    tot = u.sum(axis=1)
    f1 = u[:, 0] / tot
    np.square(u, out=u)
    sq = u.sum(axis=1) / (tot * tot) - 2.0 * f1 + 1.0
    return {"mmse": sq, "entropy": (np.log(tot) - u1) / math.log(B), "f1": f1}


@pytest.mark.parametrize("B", [4, 16])
@pytest.mark.parametrize("sigma", [0.03, 0.05, 0.1])
def test_section_stats_clip_is_exact(B, sigma):
    z = gaussian_block(5, B, 0, 20_000)
    shifted = _scores(z, sigma, B)
    shifted -= shifted.max(axis=1)[:, None]
    if math.log2(B) / sigma ** 2 > 300.0:  # all but (B=4, sigma=0.1)
        assert (shifted < -300.0).mean() > 0.2  # the clip is active on many terms
    got, ref = section_stats(z, sigma, B), _unclipped_stats(z, sigma, B)
    np.testing.assert_array_equal(got["mmse"], ref["mmse"])
    np.testing.assert_array_equal(got["entropy"], ref["entropy"])
    np.testing.assert_array_equal(got["mmse"] - (1.0 - got["f1"]),
                                  ref["mmse"] - (1.0 - ref["f1"]))


def _assert_same_stats(got, want):
    assert list(got) == list(want)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_section_stats_outputs_are_fresh():
    # the thread's scratch is reused across calls; the outputs never are
    z = gaussian_block(3, 16, 0, 10_000)
    before = z.copy()
    first = section_stats(z, 0.5, 16)
    kept = {key: v.copy() for key, v in first.items()}
    second = section_stats(z, 0.7, 16)
    np.testing.assert_array_equal(z, before)
    for a in first.values():
        assert not np.shares_memory(a, z)
        for b in second.values():
            assert not np.shares_memory(a, b)
    for one, other in itertools.combinations(first.values(), 2):
        assert not np.shares_memory(one, other)
    _assert_same_stats(first, kept)  # the second call wrote nothing into the first's


def test_section_stats_alternating_B_matches_untiled():
    # every change of B or of the row count makes the thread's scratch anew.
    # At the default kernel tile, 40000 rows end on a partial tile at each B
    # (32768, 21845, 7281 and 3855 rows per tile at B = 2, 4, 16, 32), and
    # 3000 rows fit in one tile larger than the block at every B
    cases = [(B, sigma, n) for n in (40_000, 3000)
             for B, sigma in ((2, 0.3), (4, 0.05), (16, 1.2), (32, 0.4),
                              (4, 2.0), (2, 0.02), (32, 0.9), (16, 0.1))]
    blocks = {(B, n): gaussian_block(5, B, 0, n) for B, _, n in cases}
    got = [section_stats(blocks[B, n], sigma, B) for B, sigma, n in cases]
    with serial_untiled():
        want = [section_stats(blocks[B, n], sigma, B) for B, sigma, n in cases]
    for g, w in zip(got, want):
        _assert_same_stats(g, w)


def test_section_stats_concurrent_on_pool():
    # calls of mixed B and sigma on a Monte-Carlo pool with more workers than
    # cores (up to 8 cores), switching often, each in its own thread's
    # scratch, match calls on this thread; runs of one B put concurrent calls
    # on scratch of the same shape
    blocks = {B: gaussian_block(8, B, 0, 30_000) for B in (2, 4, 16, 32)}
    sigmas = [float(s) for s in np.geomspace(0.02, 3.0, 6)]
    cases = ([(B, sigma) for B in blocks for sigma in sigmas]
             + [(B, sigma) for sigma in sigmas for B in blocks])
    want = [section_stats(blocks[B], sigma, B) for B, sigma in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = list(denoiser._executor(min((os.cpu_count() or 1) + 1, 9)).map(
            lambda case: section_stats(blocks[case[0]], case[1], case[0]), cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want):
        _assert_same_stats(g, w)


def _never_decided(mp):
    mp.setattr(denoiser, "_decided_margin", lambda B: math.inf)


def _assert_same_bits(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype == np.float64
        np.testing.assert_array_equal(got[key].view(np.int64), want[key].view(np.int64),
                                      err_msg=key)


def _full_tiles(monkeypatch):
    """The z views that _scores gets, one per kernel tile that runs the full
    passes; each starts at its tile's first row."""
    tiles = []

    def spy(z, sigma, B, out=None):
        tiles.append(z)
        return _scores(z, sigma, B, out=out)

    monkeypatch.setattr(denoiser, "_scores", spy)
    return tiles


def _decided_rows(z, sigma, B):
    """Rows whose off scores all sit at least _decided_margin(B) below u_1,
    read off the full score matrix, with u_1 and the off max finite."""
    u = _scores(z, sigma, B)
    gap = u[:, 1:].max(axis=1) - u[:, 0]
    return (gap <= -denoiser._decided_margin(B)) & (gap > -math.inf)


@pytest.mark.parametrize("B", [2, 4, 16, 64])
def test_decided_tiles_bit_identical(mc_layout, monkeypatch, B):
    # a tile is skipped exactly when every row of it is decided, and the
    # outputs match the full kernel's bit for bit.  The sweep runs across the
    # table grid at snr 15, at the layout's kernel tile
    z = gaussian_block(13, B, 0, 30_001)
    start = z.ctypes.data
    step = max(1, denoiser._KERNEL_TILE // (B + 2))
    kinds = set()
    for sigma in np.geomspace(*default_sigma_span(UnderlyingParams(B=B, R=1.0, sigma2=SIGMA2)), 24):
        sigma = float(sigma)
        rows = _decided_rows(z, sigma, B)
        with pytest.MonkeyPatch.context() as mp:
            full = _full_tiles(mp)
            got = section_stats(z, sigma, B)
        ran = {(v.ctypes.data - start) // 8 for v in full}
        for a in range(0, z.shape[0], step):
            decided = rows[a:a + step]
            kinds.add("decided" if decided.all() else "mixed" if decided.any() else "undecided")
            assert (a not in ran) == decided.all(), (sigma, a)
        assert (got["mmse"][rows] == 0.0).all() and not np.signbit(got["mmse"][rows]).any()
        with pytest.MonkeyPatch.context() as mp:
            _never_decided(mp)
            want = section_stats(z, sigma, B)
        _assert_same_bits(got, want)
    assert kinds == {"decided", "mixed", "undecided"}, kinds


@pytest.mark.parametrize("B", [2, 16])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_decided_path_with_nonfinite_z(monkeypatch, B):
    # at sigma 0.05 every finite row of this block is decided; one NaN or
    # +inf anywhere, or -inf in the first column or in every other, sends the
    # whole tile through the full passes, whose bits it keeps.  So does an
    # overflow of u_1 = log2(B)/sigma^2 + ... to +inf at a tiny sigma
    base = np.zeros((50, B), order="F")
    cases = []
    for value, cols in ((math.nan, {0, 1, B - 1}), (math.inf, {0, 1, B - 1}), (-math.inf, {0})):
        for col in sorted(cols):
            z = base.copy()
            z[17, col] = value
            cases.append((z, 0.05))
    z = base.copy()
    z[17, 1:] = -math.inf
    cases += [(z, 0.05), (base, 1e-160)]
    full = _full_tiles(monkeypatch)
    section_stats(base, 0.05, B)
    assert not full  # the finite block is decided
    for z, sigma in cases:
        full.clear()
        got = section_stats(z, sigma, B)
        assert len(full) == 1, (z[17], sigma)
        with pytest.MonkeyPatch.context() as mp:
            _never_decided(mp)
            want = section_stats(z, sigma, B)
        _assert_same_bits(got, want)
    if B > 2:
        # a -inf below a finite off max leaves the row decided: the full
        # passes clip its shifted score to -300 and give the same exact zeros
        z = base.copy()
        z[17, 1] = -math.inf
        full.clear()
        got = section_stats(z, 0.05, B)
        assert not full
        with pytest.MonkeyPatch.context() as mp:
            _never_decided(mp)
            _assert_same_bits(got, section_stats(z, 0.05, B))


def _rows_at_gap(B, gaps):
    """A block with one row per gap, whose off scores all sit about gap
    below u_1 at sigma = 1, and the gaps as the kernel forms them."""
    lb = math.log2(B)
    c = math.sqrt(lb)
    z = np.zeros((len(gaps), B), order="F")
    z[:, 1:] = ((lb - np.asarray(gaps)) / c)[:, None]
    u = _scores(z, 1.0, B)
    return z, u[:, 0] - u[:, 1:].max(axis=1)


@pytest.mark.parametrize("B", [2, 1024])
def test_decided_margin_is_safe_and_needed(monkeypatch, B):
    # with all B - 1 off scores at the same gap g below u_1, the worst case
    # for the two sums: from 53 ln 2 + ln(B - 1) up to the margin M the full
    # kernel already gives exactly (+0.0, +0.0, 1.0), and at g = 30 it does
    # not, so M is both safe and needed
    lo, M = 53 * math.log(2) + math.log(B - 1), denoiser._decided_margin(B)
    assert lo < M < lo + 2.0
    inside = lo + (M - lo) * np.array([0.001, 0.25, 0.5, 0.75, 0.999])
    z, gap = _rows_at_gap(B, inside)
    assert ((gap > lo) & (gap < M)).all()
    full = _full_tiles(monkeypatch)
    st = section_stats(z, 1.0, B)
    assert len(full) == 1  # below M: not decided, so the full passes ran
    for key, want in (("mmse", 0.0), ("entropy", 0.0), ("f1", 1.0)):
        assert (st[key] == want).all() and not np.signbit(st[key]).any(), key

    z, gap = _rows_at_gap(B, [M + 0.5])
    full.clear()
    st = section_stats(z, 1.0, B)
    assert not full and gap[0] >= M  # at M and above: decided, the same bits
    assert (st["mmse"][0], st["entropy"][0], st["f1"][0]) == (0.0, 0.0, 1.0)

    z, gap = _rows_at_gap(B, [30.0])
    assert abs(gap[0] - 30.0) < 1e-9
    st = section_stats(z, 1.0, B)
    assert st["f1"][0] < 1.0 and st["entropy"][0] > 0.0


_BOUNDS_TILE = 333  # kernel tile rows in the row-bounds sweep; 3000 rows end on a 3-row tile


def _bounds_block(B):
    """Gaussian rows with special rows in tiles 1, 3, 5, 7 and 8 of the
    sweep's kernel tiles; tiles 0, 2, 4, 6 and 9 hold Gaussian rows only.

    Tile 7 holds a row with u_1 far below an off max of 0 and tile 8 one
    with u_1 far below an off max of 1000 c, every other score as far.  At
    sigma = 1 their shifted transmitted scores are below -300, so the clip
    sets f1 = e^-300 / sum e, which a kernel without the clip misses.
    """
    z = gaussian_block(17, B, 0, 3000)
    t = _BOUNDS_TILE
    z[t + 17, B - 1] = math.nan
    z[3 * t + 5, 0] = math.inf
    z[3 * t + 40, 1] = -math.inf
    z[5 * t + 9, 0] = -math.inf
    z[7 * t + 3] = 0.0
    z[7 * t + 3, 0] = -1000.0
    z[8 * t + 4] = -1000.0
    z[8 * t + 4, 1] = 1000.0
    return z


def _clip_skipped(zt, sigma, B):
    """Whether section_stats may skip the clip on this tile: the lowest
    score fl(c min z) minus the largest row max is above -300."""
    c, d = denoiser._score_scales(sigma, B)
    with np.errstate(invalid="ignore"):
        row_max = np.maximum(c * zt[:, 1:].max(axis=1), c * zt[:, 0] + d)
        return bool(c * float(zt.min()) - float(row_max.max()) > -300.0)


@pytest.mark.parametrize("B", [2, 4, 16, 32, 64])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_chunk_row_bounds_bit_identical(monkeypatch, B):
    # section_stats with the chunk's row bounds against bounds=None and
    # against an always-clip reference (row minima of -inf, so no tile skips
    # the clip), across the table grid, at a tiny sigma and at sigma = 1, on
    # a block holding NaN, +inf and -inf and rows the clip moves
    monkeypatch.setattr(denoiser, "_KERNEL_TILE", _BOUNDS_TILE * (B + 2))
    z = _bounds_block(B)
    bounds = denoiser._row_bounds(z)
    always_clip = (bounds[0], np.full(len(z), -np.inf))
    before = z.copy()
    start = z.ctypes.data
    span = default_sigma_span(UnderlyingParams(B=B, R=1.0, sigma2=SIGMA2))
    kinds = set()
    for sigma in [float(s) for s in np.geomspace(*span, 24)] + [1e-3, 1.0]:
        with pytest.MonkeyPatch.context() as mp:
            full = _full_tiles(mp)
            got = section_stats(z, sigma, B, bounds)
        _assert_same_bits(got, section_stats(z, sigma, B))
        _assert_same_bits(got, section_stats(z, sigma, B, always_clip))
        for a in sorted({(v.ctypes.data - start) // 8 for v in full}):
            zt = z[a:a + _BOUNDS_TILE]
            kinds.add("skipped" if _clip_skipped(zt, sigma, B) else "clipped")
    np.testing.assert_array_equal(z, before)
    assert kinds == {"skipped", "clipped"}, kinds

    st = section_stats(z, 1.0, B, bounds)
    t = _BOUNDS_TILE
    assert st["f1"][7 * t + 3] == pytest.approx(math.exp(-300.0) / (B - 1), rel=1e-14, abs=0.0)
    assert st["f1"][8 * t + 4] == pytest.approx(math.exp(-300.0), rel=1e-14, abs=0.0)
    unclipped = _unclipped_stats(z[[7 * t + 3, 8 * t + 4]], 1.0, B)["f1"]
    assert (unclipped < 1e-300).all()  # the clip is what sets these f1


def test_stream_plans_hands_each_plan_its_own_jobs():
    # plans of one, two and three statistics per job share one pass; each
    # finish step gets exactly a stream_moments pass over its own jobs
    mc = MCConfig(seed=0, n_samples=100)
    jobs = [[lambda z, bounds: [z[:, 0]]],
            [lambda z, bounds: [z[:, 1], bounds[0]], lambda z, bounds: [bounds[1]]],
            [lambda z, bounds: [z[:, 0] * z[:, 1], z[:, 1], z[:, 0]]]]
    got = denoiser.stream_plans(mc, 2, [denoiser.Plan(j, lambda m, s: (m, s)) for j in jobs])
    for (means, stderrs), own in zip(got, jobs):
        want_means, want_stderrs = stream_moments(mc, 2, own)
        np.testing.assert_array_equal(means, want_means)
        np.testing.assert_array_equal(stderrs, want_stderrs)
    assert [len(m) for m, _ in got] == [1, 3, 3]


def test_denoise_section_matches_direct_softmax():
    z = np.array([0.3, -0.2])
    f = denoise_section(z, 1.0, 2)
    assert f[0] == pytest.approx(0.8175744761936437, abs=1e-12)
    np.testing.assert_allclose(f, direct_softmax_denoiser(z, 1.0, 2), atol=1e-12)
    rng = np.random.default_rng(1)
    for B in (2, 4, 8):
        zz = rng.normal(size=B)
        ff = denoise_section(zz, 0.7, B)
        assert ff.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(ff, direct_softmax_denoiser(zz, 0.7, B), atol=1e-12)


def test_denoise_section_extreme_noise_no_overflow():
    f = denoise_section(np.array([5.0, -5.0]), 1e-6, 2)
    assert np.isfinite(f).all() and f[0] == pytest.approx(1.0)
    f = denoise_section(np.array([5.0, -5.0]), 1e6, 2)
    np.testing.assert_allclose(f, [0.5, 0.5], atol=1e-5)


def test_denoise_section_validation():
    with pytest.raises(ValueError):
        denoise_section(np.zeros(3), 1.0, 2)
    with pytest.raises(ValueError):
        denoise_section(np.array([np.nan, 0.0]), 1.0, 2)
    with pytest.raises(ValueError):
        denoise_section(np.zeros(2), 0.0, 2)


def test_section_stats_consistency():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(50, 4))
    st = section_stats(z, 0.8, 4)
    for i in range(50):
        f = denoise_section(z[i], 0.8, 4)
        assert st["f1"][i] == pytest.approx(f[0], abs=1e-12)
        assert st["mmse"][i] == pytest.approx((f @ f) - 2 * f[0] + 1, abs=1e-12)
    assert (st["entropy"] >= -1e-12).all()


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_mmse_estimate_against_quadrature(sigma):
    p = UnderlyingParams(B=2, R=1.0, sigma2=0.1)
    est = mmse_estimate(sigma, p, MCConfig(seed=0, n_samples=50_000))
    assert est.stderr > 0
    assert abs(est.value - B2_MMSE[sigma]) <= 4 * est.stderr


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_entropy_estimate_against_quadrature(sigma):
    p = UnderlyingParams(B=2, R=1.0, sigma2=0.1)
    est = entropy_estimate(sigma, p, MCConfig(seed=0, n_samples=50_000))
    assert abs(est.value - B2_ENTROPY[sigma]) <= 4 * est.stderr


def test_nishimori_identity_same_samples():
    # E[f1] and the mmse come from one softmax, so the identity holds to
    # the stderr of the per-sample difference, not of either side alone.
    sigma = 1.0
    z = gaussian_block(0, 2, 0, 40_000)
    st = section_stats(z, sigma, 2)
    d = st["mmse"] - (1.0 - st["f1"])
    stderr = d.std(ddof=1) / math.sqrt(d.size)
    assert abs(d.mean()) <= 3 * stderr
    assert b2_posterior_weight_quad(sigma) == pytest.approx(1 - B2_MMSE[sigma], abs=1e-12)


def test_isotonic_matches_brute_force():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12, 30):
        y = rng.normal(size=n)
        got = isotonic_increasing(y)
        np.testing.assert_allclose(got, pav_brute_force(y), atol=1e-12)
        assert (np.diff(got) >= -1e-15).all()
        np.testing.assert_allclose(isotonic_increasing(got), got, atol=1e-15)
        assert got.sum() == pytest.approx(y.sum())  # projection preserves mean


def test_default_sigma_span():
    # C = 2 at snr 15: Sigma from sqrt((C/256) sigma2) to sqrt(4C (sigma2 + 1))
    for R in (0.01, 1.5, 8.0):
        lo, hi = default_sigma_span(UnderlyingParams(B=2, R=R, sigma2=1 / 15))
        assert lo == pytest.approx(math.sqrt(2.0 / 256.0 / 15.0), rel=1e-15)
        assert hi == pytest.approx(math.sqrt(8.0 * 16.0 / 15.0), rel=1e-15)


@pytest.mark.parametrize("snr", [7.0, 15.0, 31.0])
def test_sigma_span_covers_search_range(snr):
    # every Sigma(E) = sqrt(R (sigma2 + E)) a solver can visit lies on the grid
    p = UnderlyingParams(B=4, R=1.0, sigma2=1.0 / snr)
    lo, hi = default_sigma_span(p)
    C = capacity(snr)
    R_floor, R_cap = RATE_FLOOR * C, RATE_CAP * C
    assert sigma_underlying(0.0, p.with_rate(R_floor)) == lo
    assert sigma_underlying(1.0, p.with_rate(R_cap)) == hi
    for R in np.geomspace(R_floor, R_cap, 41):
        for E in np.linspace(0.0, 1.0, 11):
            assert lo <= sigma_underlying(float(E), p.with_rate(float(R))) <= hi


def test_tables_do_not_depend_on_rate(mc_small):
    low, high = (build_tables(UnderlyingParams(B=4, R=R, sigma2=1 / 15), mc_small, n_points=32)
                 for R in (0.05, 7.5))
    for a, b in zip(low, high):
        for name in ("sigma_grid", "values", "stderrs", "coarse"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.meta == b.meta and "R" not in a.meta


def test_build_tables_basic(params_b2, tables_b2):
    mmse_t, ent_t = tables_b2
    assert isinstance(mmse_t, MonotoneTable) and isinstance(ent_t, MonotoneTable)
    for t, hi in ((mmse_t, 0.5), (ent_t, 1.0)):
        assert (np.diff(t.values) >= 0).all()
        assert t.values[0] >= 0.0 and t.values[-1] <= hi
        assert t.sigma_grid.shape == t.values.shape == t.stderrs.shape
        # clamping to the analytic limits outside the grid
        assert t(1e-9) == 0.0
        assert t(1e9) == hi
    assert mmse_t.meta["B"] == 2 and mmse_t.meta["kind"] == "mmse"


def test_table_lookup_interpolates(tables_b2):
    mmse_t, _ = tables_b2
    g = mmse_t.sigma_grid
    mid = math.sqrt(g[40] * g[41])
    v = mmse_t(mid)
    assert min(mmse_t.values[40], mmse_t.values[41]) <= v <= max(mmse_t.values[40], mmse_t.values[41])
    arr = mmse_t(np.array([g[0], mid, g[-1]]))
    assert arr.shape == (3,)
    assert mmse_t(float(g[40])) == pytest.approx(mmse_t.values[40])


def test_table_scalar_lookup_matches_array(tables_b2):
    # scalar lookups (float, np.float64, 0-d array) give the array path's bits
    mmse_t, _ = tables_b2
    g = mmse_t.sigma_grid
    rng = np.random.default_rng(3)
    points = np.concatenate([rng.uniform(0.5 * g[0], 2.0 * g[-1], 200), g,
                             [0.0, np.inf, -np.inf, np.nan]])
    want = mmse_t(points)
    for x, v in zip(points, want):
        for arg in (float(x), np.float64(x), np.array(x)):
            got = mmse_t(arg)
            assert type(got) is float
            assert np.float64(got).tobytes() == v.tobytes()


def test_table_matches_quadrature(tables_b2):
    mmse_t, ent_t = tables_b2
    for sigma in (0.5, 1.0, 2.0):
        tol = max(5 * mmse_t.stderr_at(sigma), 1e-3)  # interp bias + MC noise
        assert abs(mmse_t(sigma) - b2_mmse_quad(sigma)) <= tol
    for sigma in (0.5, 1.0):
        tol = max(5 * ent_t.stderr_at(sigma), 1e-3)
        assert abs(ent_t(sigma) - b2_entropy_quad(sigma)) <= tol


def test_tables_deterministic(params_b2, mc_small, tables_b2):
    again = build_tables(params_b2, mc_small, n_points=96)
    np.testing.assert_array_equal(again[0].values, tables_b2[0].values)
    np.testing.assert_array_equal(again[1].stderrs, tables_b2[1].stderrs)


def test_common_random_numbers_smooth_differences(params_b2, mc_small, tables_b2):
    # CRN makes adjacent-node differences much less noisy than independent
    # estimates would be; the transition region shows it most clearly.
    mmse_t, _ = tables_b2
    g = mmse_t.sigma_grid
    k = int(np.argmin(np.abs(g - 1.0)))

    def difference(z, bounds):
        lo, hi = (section_stats(z, float(s), params_b2.B, bounds)["mmse"] for s in g[k:k + 2])
        return [hi - lo]

    _, (diff_stderr,) = stream_moments(mc_small, params_b2.B, [difference])
    independent = math.hypot(mmse_t.stderrs[k], mmse_t.stderrs[k + 1])
    assert diff_stderr < 0.5 * independent


def test_table_csv(tmp_path, tables_b2):
    mmse_t, _ = tables_b2
    path = tmp_path / "mmse.csv"
    mmse_t.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# B=2 sigma2=")
    assert "seed=0" in lines[0] and "n_samples=20000" in lines[0] and "kind=mmse" in lines[0]
    assert lines[1] == "sigma,value,stderr"
    assert len(lines) == 2 + 96
    sig, val, err = (float(tok) for tok in lines[2].split(","))
    assert sig == mmse_t.sigma_grid[0] and val == mmse_t.values[0] and err == mmse_t.stderrs[0]


def _two_chunk_estimates():
    tables = [build_tables(UnderlyingParams(B=B, R=1.5, sigma2=1 / 15), MC_TWO_CHUNKS,
                           n_points=16) for B in (4, 16)]
    est = mmse_estimate(0.8, UnderlyingParams(B=16, R=1.5, sigma2=1 / 15), MC_TWO_CHUNKS)
    return tables, est


@pytest.fixture(scope="module")
def serial_untiled_estimates():
    with serial_untiled():
        return _two_chunk_estimates()


def test_estimates_independent_of_workers_and_tiles(mc_layout, serial_untiled_estimates):
    (tables, est), (ref_tables, ref_est) = _two_chunk_estimates(), serial_untiled_estimates
    assert est == ref_est
    for pair, ref_pair in zip(tables, ref_tables):
        for got, ref in zip(pair, ref_pair):
            for name in ("sigma_grid", "values", "stderrs", "coarse"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


def test_build_tables_one_kernel_call_per_node(monkeypatch):
    # each chunk's jobs evaluate every grid node once, whatever the workers
    calls = []

    def counting(z, sigma, B, bounds=None):
        calls.append(sigma)
        return section_stats(z, sigma, B, bounds)

    monkeypatch.setattr(denoiser, "_WORKERS", 2)
    monkeypatch.setattr(denoiser, "section_stats", counting)
    mmse_t, _ = build_tables(UnderlyingParams(B=4, R=1.5, sigma2=1 / 15), MC_TWO_CHUNKS,
                             n_points=16)
    assert sorted(calls) == sorted(2 * list(mmse_t.sigma_grid))


# sha256 of values, stderrs and coarse (in that order) of each table, seed 1
FROZEN_TABLE_BITS = {
    (4, 65536): ("716f2e6ee7c34492cc15718c7860c6cc58b4640849a7868f838a93457e9a6f6f",
                 "54d1ebb372812a6a7e292cda1ab385e77d328f39012648c0687dab6f363d92c3"),
    (16, 70001): ("96c306df6d36f537c0b6beb1a75b1b45af735749c6e1ee4b679b8fe4ea5dbd60",
                  "b1a58f7aa9fd1bac6f1686b210e2aed53790d846b5d6be7fa0fb7fc8e7ace332"),
}


@pytest.mark.parametrize("B,n_samples", sorted(FROZEN_TABLE_BITS))
def test_table_bits_frozen(B, n_samples):
    tables = build_tables(UnderlyingParams(B=B, R=1.5, sigma2=1 / 15),
                          MCConfig(seed=1, n_samples=n_samples), n_points=16)
    digests = []
    for t in tables:
        h = hashlib.sha256()
        for a in (t.values, t.stderrs, t.coarse):
            h.update(a.tobytes())
        digests.append(h.hexdigest())
    assert tuple(digests) == FROZEN_TABLE_BITS[B, n_samples]


@pytest.mark.parametrize("workers", [1, 2])
def test_build_tables_chunk_memory(monkeypatch, workers):
    # the 8 MiB Gaussian block plus, per worker, one node's statistics and one
    # cache-sized tile of scratch
    monkeypatch.setattr(denoiser, "_WORKERS", workers)
    p, mc = UnderlyingParams(B=16, R=1.5, sigma2=1 / 15), MCConfig(seed=0, n_samples=65536)
    build_tables(p, mc, n_points=16)  # starts the pool outside the trace
    tracemalloc.start()
    try:
        build_tables(p, mc, n_points=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14.5 * 2 ** 20


def test_estimate_stderr_scales_with_n():
    p = UnderlyingParams(B=2, R=1.0, sigma2=0.1)
    small = mmse_estimate(1.0, p, MCConfig(seed=0, n_samples=4_000))
    large = mmse_estimate(1.0, p, MCConfig(seed=0, n_samples=64_000))
    ratio = small.stderr / large.stderr
    assert 2.5 <= ratio <= 6.5  # sqrt(16) = 4 up to sampling noise


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
def test_pool_restarts_in_forked_child(monkeypatch):
    # a child forked after the pool started must not wait on the parent's
    # threads, which it does not have
    monkeypatch.setattr(denoiser, "_WORKERS", 2)
    p, mc = UnderlyingParams(B=4, R=1.5, sigma2=1 / 15), MCConfig(seed=0, n_samples=1000)
    expected = mmse_estimate(0.8, p, mc)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(mmse_estimate, (0.8, p, mc)).get(timeout=60) == expected
