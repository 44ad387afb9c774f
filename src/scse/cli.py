"""Command-line front end: seeded, reproducible numerical experiments.

Subcommands: tables, se, potential, thresholds, verify, sweep.  Options can
come from a JSON config file (--config); explicit flags override file values.
Every artifact embeds the resolved configuration, outputs are written
atomically (temp file + rename), and identical configs produce byte-identical
files.  The Monte-Carlo stage (tables and the denoiser identities) runs its
jobs on a thread pool sized to the CPUs the process may use, and its results
are bit-identical whatever that count is.  The rest is single-threaded: the
coupled recursion applies its banded coupling matrix as a convolution, with no
matrix product and so no work on the BLAS thread pool.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .denoiser import MCConfig, build_tables, default_n_samples
from .ensemble import (RATE_CAP, CoupledParams, UnderlyingParams, atomic_write,
                       build_coupling_matrix, capacity, make_design)
from .potential import free_energy_gap, potential_curve, potential_large_B
from .state_evolution import iterate_coupled, iterate_underlying, ones_profile
from .thresholds import (ThresholdSearchError, amp_threshold_coupled,
                         amp_threshold_underlying, potential_threshold)
from .verification import run_suite


@dataclass(frozen=True)
class RunConfig:
    B: int = 2
    snr: float = 15.0
    R: float | None = None          # None = let the command pick/search
    Gamma: int = 64
    w: int = 3
    design: str = "rectangular"
    design_param: float | None = None
    seed: int = 0
    samples: int | None = None      # None = section-size dependent default
    tol: float = 1e-8
    tol_R: float = 2e-3
    n_points: int = 256
    max_iters: int = 10_000
    outdir: str = "."

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not all(v > 0 and math.isfinite(v) for v in (self.tol, self.tol_R)):
            raise ValueError("tol and tol_R must be positive and finite, "
                             f"got {self.tol} and {self.tol_R}")
        if self.n_points < 16:  # build_tables' minimum, checked before any build
            raise ValueError("n_points must be at least 16")
        # the lookup tables end at the largest Sigma a rate of RATE_CAP * C reaches
        if self.R is not None and self.R > RATE_CAP * capacity(self.snr):
            raise ValueError(f"R must be at most {RATE_CAP:g} times capacity, "
                             f"{RATE_CAP * capacity(self.snr):.6g}")

    @property
    def sigma2(self) -> float:
        return 1.0 / self.snr

    def rate(self) -> float:
        """Configured rate, or three quarters of capacity when unset."""
        return self.R if self.R is not None else 0.75 * capacity(self.snr)

    def params(self) -> UnderlyingParams:
        return UnderlyingParams(B=self.B, R=self.rate(), sigma2=self.sigma2)

    def mc(self) -> MCConfig:
        n = self.samples if self.samples is not None else default_n_samples(self.B)
        return MCConfig(seed=self.seed, n_samples=n)

    def design_fn(self):
        return make_design(self.design, self.design_param)

    def to_dict(self) -> dict:
        return asdict(self)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if hasattr(obj, "__dataclass_fields__"):
        return asdict(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _write_json(path: str, payload) -> None:
    atomic_write(path, [json.dumps(payload, indent=2, default=_jsonable) + "\n"])


def _write_csv(path: str, cfg: RunConfig, header: str, rows) -> None:
    lines = ["# config=" + json.dumps(cfg.to_dict(), sort_keys=True), header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    atomic_write(path, ["\n".join(lines) + "\n"])


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.outdir, exist_ok=True)
    return os.path.join(cfg.outdir, name)


def cmd_tables(cfg: RunConfig) -> int:
    p = cfg.params()
    mmse_t, ent_t = build_tables(p, cfg.mc(), n_points=cfg.n_points)
    paths = (_out(cfg, "mmse_table.csv"), _out(cfg, "entropy_table.csv"))
    mmse_t.to_csv(paths[0])
    ent_t.to_csv(paths[1])
    _write_json(_out(cfg, "tables_config.json"),
                {"config": cfg.to_dict(),
                 "sigma_span": [float(mmse_t.sigma_grid[0]), float(mmse_t.sigma_grid[-1])],
                 "too_coarse": {"mmse": mmse_t.too_coarse, "entropy": ent_t.too_coarse}})
    print(f"wrote {paths[0]} and {paths[1]} ({cfg.n_points} nodes)")
    return 0


def _require_rate(cfg: RunConfig, parser: argparse.ArgumentParser) -> None:
    if cfg.R is None:
        parser.error("this command needs an explicit rate; pass --R")


def cmd_se(cfg: RunConfig, mode: str, e_init: float) -> int:
    p = cfg.params()
    mmse_t, _ = build_tables(p, cfg.mc(), n_points=cfg.n_points)
    if mode == "underlying":
        trace = [(0, math.nan, float(e_init))]
        run = iterate_underlying(e_init, p, mmse_t, cfg.tol, cfg.max_iters,
                                 on_step=lambda t, res, E: trace.append((t, res, E)))
        final = {"E": run.final}
        header = "iteration,residual,E"
    else:
        J = build_coupling_matrix(CoupledParams(p, cfg.Gamma, cfg.w, cfg.design_fn()))
        start = ones_profile(cfg.Gamma, cfg.w)
        trace = [(0, math.nan, *start.values)]
        run = iterate_coupled(start, J, p, mmse_t, cfg.tol, cfg.max_iters,
                              on_step=lambda t, res, prof: trace.append((t, res, *prof.values)))
        final = {"profile": run.final.values.tolist(),
                 "profile_max": float(run.final.values.max())}
        header = "iteration,residual," + ",".join(f"E_{r}" for r in range(1, cfg.Gamma + 1))
    _write_csv(_out(cfg, f"se_trace_{mode}.csv"), cfg, header, trace)
    _write_json(_out(cfg, f"se_report_{mode}.json"),
                {"config": cfg.to_dict(), "mode": mode, "converged": run.converged,
                 "iterations": run.iterations, "residual": run.residual, **final})
    status = "converged" if run.converged else "did not converge"
    print(f"{mode} recursion {status} after {run.iterations} iterations "
          f"(residual {run.residual:.3e})")
    return 0  # non-convergence is an analysis result, not a CLI failure


def cmd_potential(cfg: RunConfig) -> int:
    p = cfg.params()
    tables = build_tables(p, cfg.mc(), n_points=cfg.n_points)
    grid = np.linspace(0.0, 1.0, 513)
    curve = potential_curve(p, tables[1], grid)
    large = [potential_large_B(float(e), p) for e in grid]
    rows = [(float(E), float(F), float(U), float(S), float(err), float(lb))
            for E, F, U, S, err, lb in zip(curve.E_grid, curve.F_values,
                                           curve.U_values, curve.S_values,
                                           curve.stderrs, large)]
    _write_csv(_out(cfg, "potential_curve.csv"), cfg, "E,F,U,S,stderr,F_large_B", rows)
    gap = free_energy_gap(p, tables, tol=cfg.tol)
    _write_json(_out(cfg, "gap_report.json"),
                {"config": cfg.to_dict(), "delta_F": gap.delta_F,
                 "argmin_E": gap.argmin_E, "basin_sup": gap.basin_sup})
    print(f"free-energy gap at R={p.R:.4f}: {gap.delta_F:.6e}")
    return 0


def _threshold_row(cfg: RunConfig):
    base = UnderlyingParams(B=cfg.B, R=0.5 * capacity(cfg.snr), sigma2=cfg.sigma2)
    tables = build_tables(base, cfg.mc(), n_points=cfg.n_points)
    r_u = amp_threshold_underlying(base, tables, cfg.tol_R, cfg.tol)
    r_pot = potential_threshold(base, tables, cfg.tol_R, cfg.tol)
    r_c = amp_threshold_coupled(base, cfg.Gamma, cfg.w, tables, cfg.tol_R,
                                cfg.design_fn(), cfg.tol, cfg.max_iters)
    return r_u, r_pot, r_c


SWEEP_HEADER = "B,snr,Gamma,w,R_u,R_pot,R_c,C"


def cmd_thresholds(cfg: RunConfig) -> int:
    try:
        r_u, r_pot, r_c = _threshold_row(cfg)
    except ThresholdSearchError as exc:
        print(f"threshold search failed: {exc}", file=sys.stderr)
        return 1
    for name, rep in (("underlying", r_u), ("potential", r_pot), ("coupled", r_c)):
        _write_json(_out(cfg, f"threshold_{name}.json"),
                    {"config": cfg.to_dict(), "value": rep.value,
                     "bracket": [rep.bracket_lo, rep.bracket_hi], "tol": rep.tol,
                     "evaluations": rep.evaluations, "metadata": rep.metadata})
    row = (cfg.B, cfg.snr, cfg.Gamma, cfg.w, r_u.value, r_pot.value, r_c.value,
           capacity(cfg.snr))
    _write_csv(_out(cfg, "thresholds.csv"), cfg, SWEEP_HEADER, [row])
    print(f"R_u={r_u.value:.4f}  R_pot={r_pot.value:.4f}  "
          f"R_c={r_c.value:.4f}  C={capacity(cfg.snr):.4f}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    p = cfg.params()
    reports = run_suite(p, cfg.Gamma, cfg.w, cfg.design_fn(), cfg.mc(),
                        n_points=cfg.n_points, tol=cfg.tol)
    for rep in reports:
        tag = "SKIP" if rep.skipped else ("PASS" if rep.passed else "FAIL")
        print(f"{tag:4s} {rep.name}")
    _write_json(_out(cfg, "verify_report.json"),
                {"config": cfg.to_dict(),
                 "reports": [r.to_dict() for r in reports]})
    return 0 if all(r.passed for r in reports) else 1


def cmd_sweep(cfg: RunConfig, b_list) -> int:
    rows = []
    for B in b_list:
        sub = replace(cfg, B=B)
        try:
            r_u, r_pot, r_c = _threshold_row(sub)
        except ThresholdSearchError as exc:
            print(f"threshold search failed at B={B}: {exc}", file=sys.stderr)
            return 1
        rows.append((B, cfg.snr, cfg.Gamma, cfg.w, r_u.value, r_pot.value,
                     r_c.value, capacity(cfg.snr)))
        print(f"B={B}: R_u={r_u.value:.4f} R_pot={r_pot.value:.4f} R_c={r_c.value:.4f}")
    _write_csv(_out(cfg, "sweep.csv"), cfg, SWEEP_HEADER, rows)
    return 0


_FLAGS = {
    # dest -> (flag, type)
    "B": ("--B", int),
    "snr": ("--snr", float),
    "R": ("--R", float),
    "Gamma": ("--gamma", int),
    "w": ("--w", int),
    "design": ("--design", str),
    "design_param": ("--design-param", float),
    "seed": ("--seed", int),
    "samples": ("--samples", int),
    "tol": ("--tol", float),
    "tol_R": ("--tol-R", float),
    "n_points": ("--n-points", int),
    "max_iters": ("--max-iters", int),
    "outdir": ("--outdir", str),
}


def _common_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", help="JSON file with RunConfig fields")
    for dest, (flag, typ) in _FLAGS.items():
        kwargs = {"dest": dest, "type": typ, "default": None}
        if dest == "design":
            kwargs["choices"] = ["rectangular", "triangular", "asymmetric-exponential"]
            del kwargs["type"]
        parent.add_argument(flag, **kwargs)
    return parent


def _resolve_config(args: argparse.Namespace,
                    parser: argparse.ArgumentParser) -> RunConfig:
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_values) - known
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    for dest in _FLAGS:
        flag_val = getattr(args, dest, None)
        if flag_val is not None:
            values[dest] = flag_val
    try:
        cfg = RunConfig(**values)
        # build every parameter object once, so a bad value exits 2 before any work
        cfg.mc()
        CoupledParams(cfg.params(), cfg.Gamma, cfg.w, cfg.design_fn())
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scse",
        description="State evolution and potential analysis for sparse "
                    "superposition codes, underlying and spatially coupled.")
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("tables", parents=[common],
                   help="build and write the mmse/entropy lookup tables")
    p_se = sub.add_parser("se", parents=[common],
                          help="run a state-evolution recursion and dump its trace")
    p_se.add_argument("--mode", choices=["underlying", "coupled"],
                      default="underlying")
    p_se.add_argument("--e-init", type=float, default=1.0,
                      help="starting error for the underlying recursion, in [0, 1]")
    sub.add_parser("potential", parents=[common],
                   help="tabulate the potential curve and the free-energy gap")
    sub.add_parser("thresholds", parents=[common],
                   help="solve for the algorithmic, potential and coupled thresholds")
    sub.add_parser("verify", parents=[common],
                   help="run the verification suite; nonzero exit iff a check fails")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="threshold row per section size")
    p_sweep.add_argument("--B-list", default="2,4,8,16",
                         help="comma-separated section sizes")
    args = parser.parse_args(argv)
    cfg = _resolve_config(args, parser)

    if args.command == "tables":
        return cmd_tables(cfg)
    if args.command == "se":
        _require_rate(cfg, parser)
        if not 0.0 <= args.e_init <= 1.0:
            parser.error("--e-init must lie in [0, 1]")
        return cmd_se(cfg, args.mode, args.e_init)
    if args.command == "potential":
        _require_rate(cfg, parser)
        return cmd_potential(cfg)
    if args.command == "thresholds":
        return cmd_thresholds(cfg)
    if args.command == "verify":
        return cmd_verify(cfg)
    if args.command == "sweep":
        try:
            b_list = [int(tok) for tok in args.B_list.split(",") if tok.strip()]
        except ValueError:
            parser.error("--B-list must be comma-separated integers")
        if not b_list:
            parser.error("--B-list is empty")
        return cmd_sweep(cfg, b_list)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
