import contextlib

import pytest

from scse import MCConfig, UnderlyingParams, build_tables, denoiser

SIGMA2 = 1.0 / 15.0  # snr 15 throughout the shared fixtures

# A full 65536-row chunk plus a 4465-row tail, so both chunk shapes and a
# partial last tile are exercised.
MC_TWO_CHUNKS = MCConfig(seed=7, n_samples=70_001)


def _set_layout(mp, workers, tile):
    mp.setattr(denoiser, "_WORKERS", workers)
    mp.setattr(denoiser, "_KERNEL_TILE", tile)


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
    """Worker count and tile (elements) of the Monte-Carlo loops.  Both the
    sampling loop and the kernel walk _KERNEL_TILE // (B + 2) rows per tile:
    3640, 4444, 8192 and 1111 rows at B=16 (10922, 13333, 24576 and 3333 at
    B=4, 16384 at B=2 for the first), and of these only 8192 rows at B=16 and
    16384 at B=2 divide the chunk.  3 workers do not divide a table's 16 node
    jobs."""
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
