import math

import numpy as np
import pytest

from scse import (BracketingError, MCConfig, MonotonicityError,
                  UnderlyingParams, amp_threshold_coupled,
                  amp_threshold_underlying, build_tables, capacity,
                  large_B_limits, potential_threshold)
from scse import denoiser, potential, state_evolution, thresholds
from scse.thresholds import _audit, _search

SIGMA2 = 1.0 / 15.0


def test_capacity():
    assert capacity(15.0) == 2.0
    assert capacity(3.0) == 1.0
    with pytest.raises(ValueError):
        capacity(0.0)


def test_large_B_limits_closed_form():
    p = UnderlyingParams(B=2, R=1.0, sigma2=1.0 / 15.0)
    alg, pot = large_B_limits(p)
    assert abs(alg - 15.0 / (32.0 * math.log(2.0))) <= 1e-12
    assert abs(pot - 2.0) <= 1e-12


def _solve(success_fn, tol_R=2e-3, fold=math.inf):
    """The shared search on a synthetic predicate; capacity 2 puts the
    start at 1, the cap at 8 and the floor at 2/256."""
    return _search(lambda R: {"success": success_fn(R), "E0": 0.1}, 2.0, tol_R, fold)


def test_search_clean_monotone_threshold():
    true_R = 1.3456
    lo, hi, history = _solve(lambda R: R <= true_R)
    assert hi - lo <= 2 * 2e-3
    assert lo <= true_R <= hi
    # the history is a clean prefix of successes
    flags = [row["success"] for row in sorted(history, key=lambda row: row["R"])]
    assert flags == sorted(flags, reverse=True)


def test_search_starts_above_threshold():
    lo, hi, _ = _solve(lambda R: R <= 0.17)
    assert lo <= 0.17 <= hi and hi - lo <= 4e-3


def test_search_resolves_fold_trap():
    # Above the fold at 1.3 the raw predicate turns true again; a known fold
    # keeps the 1.2 threshold, and no rate at or above it is evaluated.
    lo, hi, history = _solve(lambda R: R <= 1.2 or R >= 1.3, fold=1.3)
    assert lo <= 1.2 <= hi and hi - lo <= 4e-3
    assert history and max(row["R"] for row in history) < 1.3
    # without the fold the search walks into the trap and finds no flip
    with pytest.raises(BracketingError):
        _solve(lambda R: R <= 1.2 or R >= 1.3)


def test_search_stops_when_the_bracket_meets_float_spacing():
    # below the float spacing the bisection must stop, not spin on one midpoint
    for tol_R in (1e-300, 0.0):
        lo, hi, history = _solve(lambda R: R <= 1.3456, tol_R=tol_R)
        assert lo < hi == np.nextafter(lo, 2.0)
        assert len(history) < 64


@pytest.mark.parametrize("tol_R", [float("nan"), math.inf, -0.01])
def test_search_rejects_nan_infinite_or_negative_tol(tol_R):
    # a NaN or infinite tol_R would skip the bisection and report the bare
    # doubling bracket as converged
    calls = []
    with pytest.raises(ValueError, match="tol_R"):
        _solve(lambda R: calls.append(R) or R <= 1.3456, tol_R=tol_R)
    assert not calls


def test_threshold_solve_below_float_spacing_returns():
    p = UnderlyingParams(B=4, R=1.0, sigma2=SIGMA2)
    tables = build_tables(p, MCConfig(seed=1, n_samples=65536), n_points=16)
    rep = amp_threshold_underlying(p, tables, tol_R=1e-300)
    assert rep.bracket_hi == np.nextafter(rep.bracket_lo, 2.0)
    assert 1.56640625 <= rep.bracket_lo < 1.5703125


def test_search_monotonicity_audit():
    # re-entrant success cannot be a threshold and must abort with diagnostics
    history = [{"R": R, "success": ok, "E0": 0.1}
               for R, ok in ((1.0, True), (3.0, True), (2.0, False))]
    with pytest.raises(MonotonicityError) as err:
        _audit(history)
    assert "not monotone" in str(err.value)
    assert err.value.history == history
    _audit(history[:1] + history[2:])


def test_search_never_fails_raises():
    with pytest.raises(BracketingError) as err:
        _solve(lambda R: True)
    assert "still holds" in str(err.value)
    assert err.value.history


def test_search_always_fails_raises():
    with pytest.raises(BracketingError) as err:
        _solve(lambda R: False)
    assert "already fails" in str(err.value)


def test_amp_threshold_underlying_b4():
    p = UnderlyingParams(B=4, R=1.0, sigma2=SIGMA2)
    tables = build_tables(p, MCConfig(seed=0, n_samples=20_000), n_points=96)
    rep = amp_threshold_underlying(p, tables)
    assert 1.48 <= rep.value <= 1.62
    assert rep.bracket_hi - rep.bracket_lo <= 2 * rep.tol
    assert rep.metadata["kind"] == "amp_underlying"
    assert rep.metadata["seed"] == 0
    assert rep.evaluations == len(rep.metadata["history"])
    # histories carry the floor for every evaluation
    assert all("E0" in row for row in rep.metadata["history"])


def test_potential_threshold_above_amp_b4():
    p = UnderlyingParams(B=4, R=1.0, sigma2=SIGMA2)
    tables = build_tables(p, MCConfig(seed=0, n_samples=20_000), n_points=96)
    ru = amp_threshold_underlying(p, tables)
    rp = potential_threshold(p, tables)
    assert rp.value > ru.value + 0.01
    assert 1.55 <= rp.value <= 1.75


def test_amp_threshold_coupled_b4_small():
    p = UnderlyingParams(B=4, R=1.0, sigma2=SIGMA2)
    tables = build_tables(p, MCConfig(seed=0, n_samples=20_000), n_points=96)
    rep = amp_threshold_coupled(p, Gamma=48, w=2, tables=tables)
    ru = amp_threshold_underlying(p, tables)
    # coupling must push the decodable rate well past the underlying threshold
    assert rep.value > ru.value + 0.02
    assert rep.metadata["Gamma"] == 48 and rep.metadata["w"] == 2
    # frozen: round-off changes in the coupled operator must not move the bisection
    assert rep.value == 1.642578125
    assert (rep.bracket_lo, rep.bracket_hi) == (1.640625, 1.64453125)
    assert rep.evaluations == 9


def _three_solves(p, tables, tol_R):
    ru = amp_threshold_underlying(p, tables[0], tol_R)
    rp = potential_threshold(p, tables[1], tol_R)
    rc = amp_threshold_coupled(p, Gamma=48, w=2, tables=tables[2], tol_R=tol_R)
    return ru, rp, rc


def test_shared_factory_builds_each_rate_once(monkeypatch):
    # one table pair serves every rate of all three solves: no solve builds
    p = UnderlyingParams(B=4, R=1.0, sigma2=SIGMA2)
    mc = MCConfig(seed=0, n_samples=20_000)
    tables = build_tables(p, mc, n_points=96)
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        raise AssertionError("a solve rebuilt its tables")

    monkeypatch.setattr(denoiser, "build_tables", counting)
    monkeypatch.setattr(thresholds, "build_tables", counting)
    shared = _three_solves(p, [tables] * 3, tol_R=0.01)
    monkeypatch.undo()
    rates = {row["R"] for rep in shared for row in rep.metadata["history"]}
    assert built == [] and len(rates) > 1

    # shared tables give the same reports as three independent builds
    fresh = _three_solves(p, [build_tables(p, mc, n_points=96) for _ in range(3)],
                          tol_R=0.01)
    for a, b in zip(shared, fresh):
        assert (a.value, a.bracket_lo, a.bracket_hi) == (b.value, b.bracket_lo, b.bracket_hi)
        assert a.metadata["history"] == b.metadata["history"]
        assert a == b


def test_potential_threshold_runs_no_state_evolution(monkeypatch):
    # every floor and basin is read from the exact fixed points
    p = UnderlyingParams(B=4, R=1.0, sigma2=SIGMA2)
    tables = build_tables(p, MCConfig(seed=1, n_samples=65536), n_points=16)
    starts = []

    def counting(E_init, *args, **kwargs):
        starts.append(E_init)
        raise AssertionError("a scalar solve ran state evolution")

    for module in (state_evolution, potential, thresholds):
        monkeypatch.setattr(module, "iterate_underlying", counting, raising=False)
    rep = potential_threshold(p, tables)
    assert rep.evaluations == 8
    assert starts == []


def test_threshold_search_fails_when_monostable_b2():
    # at B=2, snr=15 the worst-case start always reaches the floor, so the
    # success predicate never fails and bracketing reports that honestly
    p = UnderlyingParams(B=2, R=1.0, sigma2=SIGMA2)
    tables = build_tables(p, MCConfig(seed=0, n_samples=8_000), n_points=64)
    with pytest.raises(BracketingError):
        amp_threshold_underlying(p, tables)
