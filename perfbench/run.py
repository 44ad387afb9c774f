"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each round of the workload runs in a fresh
interpreter (worker.py) with BLAS and OpenMP pinned to one thread, writing to
its own directory under .perfbench-runs/.  With --trace 0 the rounds repeat
while the next one is expected to end within S seconds, and the end-to-end
figures are medians over rounds.  With --trace 1 one untraced and one traced
round run, and the per-layer figures come from the traced round's spans.
Output checks run after the timed rounds; the last line of standard output is
the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_PROBES = 3      # extra set-up-only interpreters per run, for the setup_s median
WORKER_TIMEOUT = 150  # seconds; a round that takes longer is a fault

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "calls": "count", "rows": "count", "steps": "count", "evals": "count",
    "s": "s", "self_s": "s", "overhead_s": "s", "ns_per_elem": "ns",
    "us_per_step": "us", "bytes": "B", "artifact_bytes": "B",
    "tables_per_eval": "ratio",
}


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # one thread: the coupled matvecs would otherwise run on OpenBLAS's pool,
    # turning a parallel speed-up into noise on a shared two-core box
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(mode: str, workload: str, seed: int, cwd: str, env: dict) -> dict:
    os.makedirs(cwd)
    env = dict(env, TMPDIR=cwd)
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed), repr(t_spawn)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} round of {workload} exited {proc.returncode}:\n{proc.stderr}")
    if mode == "warmup":
        return {}
    with open(os.path.join(cwd, "result.json")) as fh:
        return json.load(fh)


def _artifact_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))


def _check(workload: str, rounds: list) -> list:
    """Full checks on the first round; later rounds must repeat it byte for byte."""
    import checks
    first = os.path.join(rounds[0], "out")
    if workload == "thresholds-b4":
        problems = checks.check_thresholds(first, checks.ReferenceB4())
    elif workload == "saturation-g1024":
        profiles = os.path.join(rounds[0], "profiles.json")
        problems = checks.check_saturation(first, profiles, checks.ReferenceB4())
    else:
        problems = checks.check_verify(first)
    for other in rounds[1:]:
        problems += checks.same_artifacts(first, os.path.join(other, "out"))
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must be a nonnegative 63-bit integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "scse", "__init__.py")):
        print(f"no scse sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = _env()
    runs = os.path.join(ROOT, ".perfbench-runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs)
    try:
        return _run(args, env, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, env: dict, run_dir: str) -> int:
    name, seed = args.workload, args.seed
    _worker("warmup", name, seed, os.path.join(run_dir, "warmup"), env)
    results, rounds = [], []

    def round_(mode):
        cwd = os.path.join(run_dir, f"round-{len(rounds)}")
        results.append(_worker(mode, name, seed, cwd, env))
        rounds.append(cwd)

    if args.trace:
        round_("first")
        round_("trace")
    else:
        setups = [_worker("setup", name, seed, os.path.join(run_dir, f"setup-{i}"), env)["setup_s"]
                  for i in range(SETUP_PROBES)]
        start = time.perf_counter()
        round_("first")
        while (time.perf_counter() - start
               + statistics.median(r["wall_s"] for r in results) <= args.seconds):
            round_("run")

    problems = _check(name, rounds)
    for p in problems:
        print("CHECK FAILED:", p, file=sys.stderr)

    if args.trace:
        from tracer import layer_metrics
        with open(os.path.join(rounds[1], "spans.json")) as fh:
            spans = json.load(fh)
        values = layer_metrics(spans, _artifact_bytes(os.path.join(rounds[1], "out")))
        values["trace.overhead_s"] = results[1]["wall_s"] - results[0]["wall_s"]
        keep = os.path.join(os.path.dirname(run_dir), f"spans-{name}-{seed}.json")
        shutil.copyfile(os.path.join(rounds[1], "spans.json"), keep)
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k.rsplit(".", 1)[-1]]}
                   for k, v in values.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in results]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    ops = wl.OPS[name]
    print(json.dumps({"correct": not problems, "attempted": ops * len(results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
