import contextlib

import pytest

from scse import MCConfig, UnderlyingParams, build_tables, denoiser

SIGMA2 = 1.0 / 15.0  # snr 15 throughout the shared fixtures

# A full 65536-row chunk plus a 4465-row tail, so both chunk shapes and a
# partial last tile are exercised.
MC_TWO_CHUNKS = MCConfig(seed=7, n_samples=70_001)


def _set_layout(mp, workers, tile, kernel_tile):
    mp.setattr(denoiser, "_WORKERS", workers)
    mp.setattr(denoiser, "_TILE", tile)
    mp.setattr(denoiser, "_KERNEL_TILE", kernel_tile)


@contextlib.contextmanager
def serial_untiled():
    """One worker and one tile per chunk: the loop structure with neither
    threads nor tiles, the reference every layout must reproduce bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        _set_layout(mp, 1, 2 ** 40, 2 ** 40)
        yield


@pytest.fixture(params=[(1, 65536, 131072), (1, 80000, 147456), (2, 65536, 20000),
                        (2, 80000, 131072), (3, 80000, 147456)],
                ids=lambda p: f"workers{p[0]}-tile{p[1]}")
def mc_layout(request, monkeypatch):
    """Worker count, sampling tile and kernel tile (elements) of the
    Monte-Carlo loops.  At B=16 the sampling tiles are 4096 rows, which
    divide the chunk, and 5000 rows, which do not (16384 and 20000 rows at
    B=4); the kernel tiles, _KERNEL_TILE // (B + 2) rows, are 7281, 8192 and
    1111 rows at B=16 (21845, 24576 and 3333 at B=4), and only 8192 divides
    the chunk.  3 workers do not divide a table's 16 node jobs."""
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
