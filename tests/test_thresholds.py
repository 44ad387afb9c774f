import math

import numpy as np
import pytest

from scse import (BracketingError, MCConfig, MonotonicityError,
                  UnderlyingParams, amp_threshold_coupled,
                  amp_threshold_underlying, build_tables, capacity,
                  large_B_limits, potential_threshold)
from scse import denoiser, thresholds
from scse.thresholds import _Eval, _ThresholdSearch

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


def _search(success_fn, e0_fn, tol_R=2e-3):
    def ev(R):
        return _Eval(success_fn(R), e0_fn(R), {})
    return _ThresholdSearch(ev, tol_R)


def test_search_clean_monotone_threshold():
    true_R = 1.3456
    s = _search(lambda R: R <= true_R, lambda R: 0.1 * R)
    lo, hi = s.solve(R_start=1.0, R_cap=8.0, R_floor=0.01)
    assert hi - lo <= 2 * 2e-3
    assert lo <= true_R <= hi
    assert s.fold_R is None
    # classified history is a clean prefix of successes
    flags = [ok for _, ok, _ in s.classified()]
    assert flags == sorted(flags, reverse=True)


def test_search_starts_above_threshold():
    s = _search(lambda R: R <= 0.17, lambda R: 0.0)
    lo, hi = s.solve(R_start=1.0, R_cap=8.0, R_floor=0.001)
    assert lo <= 0.17 <= hi and hi - lo <= 4e-3


def test_search_resolves_fold_trap():
    # Above the fold at 1.3 the floor jumps to the bad branch and the raw
    # predicate turns true again; the solver must keep the 1.2 threshold
    # and classify everything above the fold as failure.
    def success(R):
        return R <= 1.2 or R >= 1.3

    def e0(R):
        return 0.05 * R if R < 1.3 else 0.6

    s = _search(success, e0)
    lo, hi = s.solve(R_start=1.0, R_cap=16.0, R_floor=0.01)
    assert lo <= 1.2 <= hi + 2e-3
    assert hi <= 1.25
    assert s.fold_R is not None and abs(s.fold_R - 1.3) <= 5e-3
    above = [ok for R, ok, ev in s.classified() if R > s.fold_R]
    assert above and not any(above)
    raw_above = [ev.success_raw for R, ok, ev in s.classified() if R > s.fold_R]
    assert any(raw_above)  # the trap really was there


def test_search_continuous_drift_is_not_a_fold():
    # E0 drifts by more than the jump tolerance across the range but is
    # continuous; bisection in R absorbs it without declaring a fold.
    s = _search(lambda R: R <= 2.0, lambda R: 0.3 * R)
    lo, hi = s.solve(R_start=1.0, R_cap=16.0, R_floor=0.01)
    assert s.fold_R is None
    assert lo <= 2.0 <= hi + 2e-3


def test_search_monotonicity_audit():
    # re-entrant success with a continuous floor cannot be explained by a
    # fold and must abort with diagnostics
    def success(R):
        return R <= 1.2 or R >= 2.5

    s = _search(success, lambda R: 0.05 * R)
    s._run(1.0)
    s._run(3.0)
    with pytest.raises(MonotonicityError) as err:
        s._run(2.0)
        s._bracket()
    assert "not monotone" in str(err.value)
    assert err.value.history


def test_search_never_fails_raises():
    s = _search(lambda R: True, lambda R: 0.1)
    with pytest.raises(BracketingError) as err:
        s.solve(R_start=1.0, R_cap=8.0, R_floor=0.01)
    assert "still holds" in str(err.value)
    assert err.value.history


def test_search_always_fails_raises():
    s = _search(lambda R: False, lambda R: 0.1)
    with pytest.raises(BracketingError) as err:
        s.solve(R_start=1.0, R_cap=8.0, R_floor=0.01)
    assert "already fails" in str(err.value)


def test_search_evaluation_budget():
    s = _search(lambda R: True, lambda R: 0.1)
    with pytest.raises(BracketingError) as err:
        for k in range(300):
            s._run(1.0 + k * 1e-6)
    assert "budget" in str(err.value)


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
    assert rep.evaluations == 17


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


def test_threshold_search_fails_when_monostable_b2():
    # at B=2, snr=15 the worst-case start always reaches the floor, so the
    # success predicate never fails and bracketing reports that honestly
    p = UnderlyingParams(B=2, R=1.0, sigma2=SIGMA2)
    tables = build_tables(p, MCConfig(seed=0, n_samples=8_000), n_points=64)
    with pytest.raises(BracketingError):
        amp_threshold_underlying(p, tables)
