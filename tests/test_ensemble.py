import math
import tracemalloc

import numpy as np
import pytest

from scse import (CoupledParams, UnderlyingParams,
                  asymmetric_exponential_design, build_coupling_matrix,
                  effective_rate, make_design, measurement_rate,
                  ones_profile, rectangular_design, se_step_coupled,
                  triangular_design)
from scse.ensemble import DesignFunction

from oracles import dense_coupling_matrix, direct_coupling_matrix

DESIGNS = [("rectangular", None), ("triangular", 0.5), ("asymmetric-exponential", 1.0)]
OPERATOR_SIZES = [(17, 2), (64, 3), (100, 12), (1024, 32), (4096, 64)]


def test_underlying_params_basic():
    p = UnderlyingParams(B=4, R=1.6, sigma2=1 / 15)
    assert p.snr == pytest.approx(15.0)
    assert p.log2B == 2.0
    q = p.with_rate(1.2)
    assert q.R == 1.2 and q.B == 4 and q.sigma2 == p.sigma2


@pytest.mark.parametrize("kwargs", [
    dict(B=1, R=1.0, sigma2=0.1),
    dict(B=2.5, R=1.0, sigma2=0.1),
    dict(B=2, R=0.0, sigma2=0.1),
    dict(B=2, R=-1.0, sigma2=0.1),
    dict(B=2, R=1.0, sigma2=0.0),
    dict(B=2, R=math.inf, sigma2=0.1),
])
def test_underlying_params_validation(kwargs):
    with pytest.raises(ValueError):
        UnderlyingParams(**kwargs)


def test_measurement_rate():
    p = UnderlyingParams(B=4, R=0.5, sigma2=0.1)
    assert measurement_rate(p) == pytest.approx(2.0 / (4 * 0.5))


def test_design_shapes():
    rect = rectangular_design()
    assert rect.evaluate([-1.0, 0.0, 1.0]) == pytest.approx([1.0, 1.0, 1.0])
    assert rect.evaluate(1.5) == 0.0
    tri = triangular_design(0.5)
    assert tri.evaluate([0.0, 1.0, -1.0]) == pytest.approx([1.0, 0.5, 0.5])
    ae = asymmetric_exponential_design(1.0)
    vals = ae.evaluate([-1.0, 1.0])
    assert vals[0] > 1.0 > vals[1] > 0.0


def test_design_sample_mean_exactly_one():
    for design in (rectangular_design(), triangular_design(0.3),
                   asymmetric_exponential_design(2.0)):
        for w in (1, 2, 5, 9):
            s = design.sample(w)
            assert s.shape == (2 * w + 1,)
            assert s.mean() == pytest.approx(1.0, abs=1e-15)
            assert (s > 0).all()


def test_design_constants():
    rect = rectangular_design()
    assert (rect.g0, rect.gstar, rect.gtilde) == (1.0, 0.0, 1.0)
    tri = triangular_design(0.25)
    assert tri.g0 == 0.25 and tri.gstar == 0.75
    for d in (rect, tri, asymmetric_exponential_design(1.5)):
        assert d.gtilde == max(1.0 + d.gstar, d.g0 + 2.0 * d.gstar)


def test_make_design_dispatch():
    assert make_design("rectangular").kind == "rectangular"
    assert make_design("triangular", 0.7).param == 0.7
    assert make_design("asymmetric-exponential").param == 1.0
    # a missing param leaves each constructor's own default in force
    assert make_design("triangular") == triangular_design()
    assert make_design("asymmetric-exponential") == asymmetric_exponential_design()
    with pytest.raises(ValueError):
        make_design("gaussian")
    with pytest.raises(ValueError, match="takes no parameter"):
        make_design("rectangular", 0.3)
    with pytest.raises(ValueError):
        DesignFunction("rectangular", None, g0=0.0, gstar=0.0)


def test_coupled_params_validation():
    u = UnderlyingParams(B=2, R=1.0, sigma2=0.1)
    with pytest.raises(ValueError):
        CoupledParams(u, Gamma=16, w=2, design=rectangular_design())
    with pytest.raises(ValueError):
        CoupledParams(u, Gamma=32, w=0, design=rectangular_design())
    cp = CoupledParams(u, Gamma=32, w=2, design=rectangular_design())
    assert effective_rate(cp) == pytest.approx(1.0 * (1 - 16 / 32))


def test_rectangular_small_matrix_hand_values():
    # Gamma=16, w=1: interior entries Gamma/(2w+1); first row loses one of
    # its three band entries, so gamma_1 = 3/2 rescales the remaining two.
    u = UnderlyingParams(B=2, R=1.0, sigma2=0.1)
    M = build_coupling_matrix(CoupledParams(u, 16, 1, rectangular_design()))
    base = 16 / 3
    assert M.J[5, 4] == pytest.approx(base)
    assert M.J[5, 5] == pytest.approx(base)
    assert M.gamma[0] == pytest.approx(1.5)
    assert M.J[0, 0] == pytest.approx(8.0)
    assert M.J[0, 1] == pytest.approx(8.0)
    assert M.J[0, 2] == 0.0


@pytest.mark.parametrize("kind,param,shape", [
    ("rectangular", None, lambda x: 1.0),
    ("triangular", 0.5, lambda x: 1.0 - 0.5 * abs(x)),
    ("asymmetric-exponential", 1.0, lambda x: math.exp(-x)),
])
def test_matrix_matches_direct_construction(kind, param, shape):
    u = UnderlyingParams(B=2, R=1.0, sigma2=0.1)
    for Gamma, w in ((17, 2), (40, 3), (64, 1)):
        M = build_coupling_matrix(CoupledParams(u, Gamma, w, make_design(kind, param)))
        D = direct_coupling_matrix(Gamma, w, shape)
        np.testing.assert_allclose(M.J, D, rtol=0, atol=1e-12)


def test_matrix_invariants_random_configs():
    rng = np.random.default_rng(7)
    kinds = ["rectangular", "triangular", "asymmetric-exponential"]
    for _ in range(10):
        w = int(rng.integers(1, 7))
        Gamma = int(rng.integers(8 * w + 1, 8 * w + 80))
        kind = kinds[rng.integers(0, 3)]
        param = None if kind == "rectangular" else float(rng.uniform(0.2, 0.9))
        M = build_coupling_matrix(
            CoupledParams(UnderlyingParams(2, 1.0, 0.1), Gamma, w, make_design(kind, param)))
        assert np.abs(M.J.mean(axis=1) - 1.0).max() <= 1e-12
        cols = M.interior_columns()
        assert np.abs(M.J[:, cols].mean(axis=0) - 1.0).max() <= 1e-12
        r, c = np.meshgrid(np.arange(Gamma), np.arange(Gamma), indexing="ij")
        assert (M.J[np.abs(r - c) > w] == 0.0).all()
        assert (M.J[np.abs(r - c) <= w] > 0.0).all()
        assert np.all(M.gamma[w: Gamma - w] == 1.0)


def _coupling(Gamma, w, kind, param):
    design = make_design(kind, param)
    return build_coupling_matrix(CoupledParams(UnderlyingParams(2, 1.0, 0.1), Gamma, w, design))


@pytest.mark.parametrize("kind,param", DESIGNS)
@pytest.mark.parametrize("Gamma,w", OPERATOR_SIZES)
def test_band_operator_matches_dense(Gamma, w, kind, param):
    M = _coupling(Gamma, w, kind, param)
    J = M.J
    rng = np.random.default_rng(Gamma + w)
    for _ in range(3):
        x = rng.uniform(0.0, 1.0, Gamma)
        for got, want in ((M.matvec(x), J @ x), (M.rmatvec(x), J.T @ x)):
            assert got.shape == (Gamma,)
            # every entry, the gamma-corrected edge rows and columns included
            assert (np.abs(got - want) / np.abs(want)).max() <= 1e-13


@pytest.mark.parametrize("kind,param", DESIGNS)
@pytest.mark.parametrize("Gamma,w", OPERATOR_SIZES[:4] + [(40, 3), (64, 1)])
def test_band_matrix_bit_equal_to_dense_build(Gamma, w, kind, param):
    M = _coupling(Gamma, w, kind, param)
    J, gamma = dense_coupling_matrix(Gamma, w, make_design(kind, param).sample(w))
    assert np.array_equal(M.gamma, gamma)
    assert np.array_equal(M.J, J)
    assert M.taps.shape == (2 * w + 1,)


def test_coupled_step_allocates_no_dense_matrix(tables_b4, params_b4):
    # a dense Gamma=4096 J alone is 134 MB; the band and the profile vectors
    # are a few hundred kB
    Gamma, w = 4096, 64
    tracemalloc.start()
    try:
        M = build_coupling_matrix(CoupledParams(params_b4, Gamma, w, rectangular_design()))
        prof = ones_profile(Gamma, w)
        for _ in range(5):
            prof = se_step_coupled(prof, M, params_b4, tables_b4[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_atomic_write_failure_keeps_target(tmp_path):
    from scse.ensemble import atomic_write
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def chunks():
        yield "new first line\n"
        raise RuntimeError("disk went away")

    with pytest.raises(RuntimeError):
        atomic_write(path, chunks())
    assert path.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))
    atomic_write(path, iter(["a,", "b\n"]))
    assert path.read_text() == "a,b\n"
