"""Output checks that share no code with scse.

Each check compares a round's artifacts with a computation scse does not make
(a plain-softmax Monte Carlo of the B=4 section on numpy's PCG64 generator,
where scse uses Philox words mapped through ndtri) or with a property the
method must have.  None compares against a stored copy of earlier output.
Every check returns a list of problems; an empty list means the round passed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import workloads as wl

LN2 = math.log(2.0)
SIGMA2 = 1.0 / wl.SNR
CAPACITY = 0.5 * math.log2(1.0 + wl.SNR)

# Distance in R from a reported threshold at which the reference recursion
# must already decode (below) or stall (above).  At 65536 samples and 16
# nodes, R_u over seeds 0-9 spread 1.572-1.607 and R_pot 1.639-1.658, both
# above the 256-node values (1.545, 1.631) because 16 nodes interpolate the
# mmse curve coarsely; 0.08 covers that bias plus the seed spread.
DELTA_R = 0.08

NISHIMORI_SAMPLES = 100_000  # scse's default sample count at B=16


class ReferenceB4:
    """mmse and entropy of the B=4 section, by plain Monte Carlo on a grid.

    Common random numbers over the grid keep the curves smooth.  The recursion
    sees Sigma only in [sqrt(R sigma2), sqrt(R (sigma2 + 1))] for R in
    [1, 2], which the grid covers.
    """

    B = 4

    def __init__(self, n_samples: int = 1 << 16, n_points: int = 96):
        z = np.random.Generator(np.random.PCG64(20160303)).standard_normal((n_samples, self.B))
        self.grid = np.geomspace(0.2, 1.6, n_points)
        self.mmse = np.empty(n_points)
        self.entropy = np.empty(n_points)
        lb = math.log2(self.B)
        for k, sigma in enumerate(self.grid):
            u = z * (math.sqrt(lb) / sigma)
            u[:, 0] += lb / sigma ** 2
            top = u.max(axis=1)
            e = np.exp(u - top[:, None])
            tot = e.sum(axis=1)
            f = e / tot[:, None]
            self.mmse[k] = np.mean((f * f).sum(axis=1) - 2.0 * f[:, 0] + 1.0)
            self.entropy[k] = np.mean((top + np.log(tot) - u[:, 0]) / math.log(self.B))

    def fixed_point(self, E: float, R: float) -> float:
        for _ in range(100_000):
            nxt = float(np.interp(math.sqrt(R * (SIGMA2 + E)), self.grid, self.mmse))
            if abs(nxt - E) <= 1e-10:
                return nxt
            E = nxt
        return E

    def decodes(self, R: float) -> bool:
        """Does the scalar recursion from E=1 reach the floor (the E=0 limit)?"""
        return abs(self.fixed_point(1.0, R) - self.fixed_point(0.0, R)) < 1e-3

    def potential(self, E: float, R: float) -> float:
        s2e = SIGMA2 + E
        energy = (math.log2(s2e) - E / (s2e * LN2)) / (2.0 * R)
        return energy - float(np.interp(math.sqrt(R * s2e), self.grid, self.entropy))

    def gap(self, R: float) -> float:
        """F at the high fixed point minus F at the floor; +inf with one fixed point."""
        if self.decodes(R):
            return math.inf
        return self.potential(self.fixed_point(1.0, R), R) - self.potential(self.fixed_point(0.0, R), R)

    def amp_threshold(self) -> float:
        lo, hi = 1.0, 2.0
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if self.decodes(mid) else (lo, mid)
        return 0.5 * (lo + hi)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_thresholds(outdir: str, ref: ReferenceB4) -> list:
    r = {k: _load(os.path.join(outdir, f"threshold_{k}.json"))["value"]
         for k in ("underlying", "potential", "coupled")}
    r_u, r_pot, r_c = r["underlying"], r["potential"], r["coupled"]
    gamma, w = wl.B4_ARGS["gamma"], wl.B4_ARGS["w"]
    problems = []
    if not r_u < r_pot < CAPACITY:
        problems.append(f"want R_u < R_pot < C, got {r_u} {r_pot} {CAPACITY}")
    if r_c < r_u - wl.B4_TOL_R:
        problems.append(f"R_c={r_c} below R_u={r_u} by more than tol_R")
    if not r_c * (1.0 - 8.0 * w / gamma) < CAPACITY:
        problems.append(f"effective coupled rate {r_c * (1 - 8 * w / gamma)} not below C")
    if not ref.decodes(r_u - DELTA_R):
        problems.append(f"reference recursion stalls at R_u - delta = {r_u - DELTA_R}")
    if ref.decodes(r_u + DELTA_R):
        problems.append(f"reference recursion decodes at R_u + delta = {r_u + DELTA_R}")
    if not ref.gap(r_pot - DELTA_R) > 0.0:
        problems.append(f"reference free-energy gap not positive at R_pot - delta = {r_pot - DELTA_R}")
    if not ref.gap(r_pot + DELTA_R) < 0.0:
        problems.append(f"reference free-energy gap not negative at R_pot + delta = {r_pot + DELTA_R}")
    return problems


def check_saturation(outdir: str, profiles_path: str, ref: ReferenceB4) -> list:
    out = _load(os.path.join(outdir, "saturation.json"))
    tol = wl.SAT_TOL_R
    problems = []
    if out["potential"] is None or len(out["coupled"]) != len(wl.SAT_WIDTHS):
        return ["a threshold solve produced no result"]
    r_pot = out["potential"]["value"]
    r_u = ref.amp_threshold()
    r_c = [out["coupled"][str(w)]["value"] for w in wl.SAT_WIDTHS]
    for w, value in zip(wl.SAT_WIDTHS, r_c):
        if not r_u - tol <= value <= r_pot + 2.0 * tol:
            problems.append(f"w={w}: R_c={value} outside [R_u - tol_R, R_pot + 2 tol_R] "
                            f"with reference R_u={r_u:.4f}, R_pot={r_pot}")
    for (w1, a), (w2, b) in zip(zip(wl.SAT_WIDTHS, r_c), zip(wl.SAT_WIDTHS[1:], r_c[1:])):
        if (r_pot - b) > (r_pot - a) + tol:
            problems.append(f"R_pot - R_c grows from w={w1} ({r_pot - a}) to w={w2} ({r_pot - b})")
    for w, values in _load(profiles_path).items():
        k = 3 * int(w)
        if any(v != 0.0 for v in values[:k] + values[-k:]):
            problems.append(f"w={w}: decoded profile nonzero on a pinned row")
        # a decoded profile sits at the floor (~0.01 here); a stalled one
        # plateaus near the high fixed point (~0.3)
        if max(values) >= 0.1:
            problems.append(f"w={w}: profile at bracket_lo did not decode (max {max(values)})")
    return problems


def check_verify(outdir: str) -> list:
    doc = _load(os.path.join(outdir, "verify_report.json"))
    reports = {r["name"]: r for r in doc["reports"]}
    problems = []
    if sorted(reports) != sorted(wl.VERIFY_REPORTS):
        return [f"unexpected report set {sorted(reports)}"]
    nish = reports["nishimori"]["context"]["points"]
    if len(nish) != 16:
        problems.append(f"nishimori has {len(nish)} points, want 16")
    # At E=0 the per-sample difference is nonzero only on rare samples, so the
    # sample stderr understates the error; allow 10/n on top of 3 stderr, a
    # few rare samples' worth of mean at n = 1e5.
    for pt in nish:
        allowed = 3.0 * pt["stderr"] + 10.0 / NISHIMORI_SAMPLES
        if not (pt["stderr"] > 0.0 and abs(pt["diff"]) <= allowed):
            problems.append(f"nishimori point E={pt['E']}: |{pt['diff']}| > {allowed}")
    immse = reports["i_mmse"]["context"]["points"]
    if len(immse) != 8:
        problems.append(f"i_mmse has {len(immse)} points, want 8")
    for pt in immse:
        allowed = 3.0 * pt["stderr"] + pt["discretization"]
        if not (pt["stderr"] > 0.0 and abs(pt["slope_plus_c_mmse"]) <= allowed):
            problems.append(f"i_mmse point sigma={pt['sigma']}: |{pt['slope_plus_c_mmse']}| > {allowed}")
    thm = reports["theorem1_decoding"]
    if not (thm["pass"] and math.isclose(thm["context"]["R"], 0.75 * CAPACITY, rel_tol=1e-12)):
        problems.append("theorem1_decoding did not decode at 0.75 C")
    basin = reports["basin_exclusion"]
    if not (basin["skipped"] and "decoded" in basin["context"].get("reason", "")):
        problems.append("basin_exclusion was not skipped for a decoded profile")
    return problems


def same_artifacts(dir_a: str, dir_b: str) -> list:
    """Identical configs must give byte-identical artifacts."""
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return [f"artifact sets differ: {names} vs {sorted(os.listdir(dir_b))}"]
    problems = []
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{name} differs between rounds")
    return problems
