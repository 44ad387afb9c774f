import contextlib

import numpy as np
import pytest

from scse import MCConfig, UnderlyingParams, build_tables, denoiser

SIGMA2 = 1.0 / 15.0  # snr 15 throughout the shared fixtures

# A full 65536-row chunk plus a 4465-row tail, so both chunk shapes and a
# partial last tile are exercised.
MC_TWO_CHUNKS = MCConfig(seed=7, n_samples=70_001)


def _set_layout(mp, workers, tile):
    mp.setattr(denoiser, "_WORKERS", workers)
    mp.setattr(denoiser, "_KERNEL_TILE", tile)


def tile_bounds(z, B) -> list:
    """_row_bounds of each kernel tile of z (denoiser._tiles), as the
    Monte-Carlo pass forms them for a chunk z."""
    return [denoiser._row_bounds(z[a:b]) for a, b in denoiser._tiles(len(z), B)]


def full_stats(z, sigma, B, bounds=None, keys=("mmse", "entropy", "f1")) -> dict:
    """section_stats on each kernel tile of z, one call per tile as the
    Monte-Carlo pass makes them (with each tile's entry of bounds, a
    tile_bounds list), joined into one row per statistic, keyed by name in
    keys' order."""
    tiles = denoiser._tiles(len(z), B)
    bounds = [None] * len(tiles) if bounds is None else bounds
    parts = [denoiser.section_stats(z[a:b], sigma, B, bnd, keys)
             for (a, b), bnd in zip(tiles, bounds, strict=True)]
    return dict(zip(keys, np.hstack(parts)))


@contextlib.contextmanager
def serial_untiled():
    """One worker and one tile per chunk: the loop structure with neither
    threads nor tiles, the reference every layout must reproduce bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        _set_layout(mp, 1, 2 ** 40)
        yield


@pytest.fixture(params=[(1, 65536), (1, 80000), (2, 65536), (2, 80000), (3, 80000),
                        (2, 147456), (3, 20000)],
                ids=lambda p: f"workers{p[0]}-tile{p[1]}")
def mc_layout(request, monkeypatch):
    """Worker count and tile (elements) of the Monte-Carlo loops.  The pass
    walks the leaves of numpy's pairwise summation tree over each chunk, at
    most _KERNEL_TILE // (B + 2) rows, and draws, bounds and runs every job
    on one leaf at a time: on a full chunk 2048, 4096, 8192 and 1024 rows at
    B=16 for the tiles 65536, 80000, 147456 and 20000 (8192, 8192, 16384 and
    2048 at B=4), on the 4465-row last chunk of MC_TWO_CHUNKS 2232 and 2233
    rows, or one leaf, or 552 to 561 rows.  Within a leaf the sampler draws
    _KERNEL_TILE // (8 B) rows at a time, 512, 625, 1152 and 156 at B=16,
    and of these only 512 divides a full chunk's leaves.  3 workers do not
    divide a table's 16 node jobs."""
    _set_layout(monkeypatch, *request.param)
    return request.param


@pytest.fixture(scope="session")
def params_b2():
    return UnderlyingParams(B=2, R=1.5, sigma2=SIGMA2)


@pytest.fixture(scope="session")
def params_b4():
    return UnderlyingParams(B=4, R=1.6, sigma2=SIGMA2)


@pytest.fixture(scope="session")
def mc_small():
    return MCConfig(seed=0, n_samples=20_000)


@pytest.fixture(scope="session")
def tables_b2(params_b2, mc_small):
    return build_tables(params_b2, mc_small, n_points=96)


@pytest.fixture(scope="session")
def tables_b4(params_b4, mc_small):
    return build_tables(params_b4, mc_small, n_points=96)


@pytest.fixture(scope="session")
def tables_b16(mc_small):
    return build_tables(UnderlyingParams(B=16, R=1.6, sigma2=SIGMA2), mc_small, n_points=96)
