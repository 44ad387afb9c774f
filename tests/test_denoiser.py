import math

import numpy as np
import pytest
from scipy.special import ndtri

from scse import (MCConfig, MonotoneTable, UnderlyingParams, build_tables,
                  default_n_samples, denoise_section, entropy_estimate,
                  gaussian_block, isotonic_increasing, mmse_estimate)
from scse.denoiser import default_sigma_span, section_stats

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


def test_gaussian_block_antithetic_pairing():
    z = gaussian_block(0, 3, 0, 10, antithetic=True)
    np.testing.assert_array_equal(z[0::2], -z[1::2])
    # odd offsets still line up with the same pairing
    tail = gaussian_block(0, 3, 5, 10, antithetic=True)
    np.testing.assert_array_equal(tail, z[5:10])


def test_gaussian_block_column_major_same_values():
    # the block is the inverse normal CDF of consecutive Philox words, laid
    # out row by row as (sample, component) and stored column-major
    words = np.random.Generator(np.random.Philox(key=3)).random(100 * 4)
    expected = ndtri(np.maximum(words.reshape(100, 4), 1e-300))
    for start, stop in ((0, 100), (37, 100), (5, 6)):
        z = gaussian_block(3, 4, start, stop)
        assert z.flags.f_contiguous and z.shape == (stop - start, 4)
        np.testing.assert_array_equal(z, expected[start:stop])
    anti = gaussian_block(0, 3, 5, 10, antithetic=True)
    assert anti.flags.f_contiguous and anti.shape == (5, 3)


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
    # sigmas span the table grids at snr 15: two decades below the floor's
    # noise at R = C/256 up to two above the worst case at R = 4C
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


def test_antithetic_variance_reduction():
    p = UnderlyingParams(B=2, R=1.0, sigma2=0.1)
    plain = mmse_estimate(1.0, p, MCConfig(seed=0, n_samples=40_000))
    anti = mmse_estimate(1.0, p, MCConfig(seed=0, n_samples=40_000, antithetic=True))
    assert abs(anti.value - B2_MMSE[1.0]) <= 4 * anti.stderr
    assert anti.stderr < plain.stderr


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
    p = UnderlyingParams(B=2, R=1.5, sigma2=1 / 15)
    lo, hi = default_sigma_span(p)
    assert lo == pytest.approx(1e-2 * math.sqrt(1.5 / 15))
    assert hi == pytest.approx(1e2 * math.sqrt(1.5 * (1 / 15 + 1)))


def test_build_tables_basic(params_b2, tables_b2):
    mmse_t, ent_t = tables_b2
    assert isinstance(mmse_t, MonotoneTable) and isinstance(ent_t, MonotoneTable)
    for t, hi in ((mmse_t, 0.5), (ent_t, 1.0)):
        assert (np.diff(t.values) >= 0).all()
        assert t.values[0] >= 0.0 and t.values[-1] <= hi
        assert t.sigma_grid.shape == t.values.shape == t.stderrs.shape
        assert t.diff_stderrs.shape == (t.sigma_grid.size - 1,)
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


def test_common_random_numbers_smooth_differences(tables_b2):
    # CRN makes adjacent-node differences much less noisy than independent
    # estimates would be; the transition region shows it most clearly.
    mmse_t, _ = tables_b2
    k = int(np.argmin(np.abs(mmse_t.sigma_grid - 1.0)))
    independent = math.hypot(mmse_t.stderrs[k], mmse_t.stderrs[k + 1])
    assert mmse_t.diff_stderrs[k] < 0.5 * independent


def test_table_csv(tmp_path, tables_b2):
    mmse_t, _ = tables_b2
    path = tmp_path / "mmse.csv"
    mmse_t.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# B=2 R=1.5 sigma2=")
    assert "seed=0" in lines[0] and "n_samples=20000" in lines[0] and "kind=mmse" in lines[0]
    assert lines[1] == "sigma,value,stderr"
    assert len(lines) == 2 + 96
    sig, val, err = (float(tok) for tok in lines[2].split(","))
    assert sig == mmse_t.sigma_grid[0] and val == mmse_t.values[0] and err == mmse_t.stderrs[0]


def test_estimate_stderr_scales_with_n():
    p = UnderlyingParams(B=2, R=1.0, sigma2=0.1)
    small = mmse_estimate(1.0, p, MCConfig(seed=0, n_samples=4_000))
    large = mmse_estimate(1.0, p, MCConfig(seed=0, n_samples=64_000))
    ratio = small.stderr / large.stderr
    assert 2.5 <= ratio <= 6.5  # sqrt(16) = 4 up to sampling noise
