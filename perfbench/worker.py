"""One round of one workload in a fresh interpreter; started by run.py.

    python3 worker.py MODE WORKLOAD SEED T_SPAWN

MODE is `warmup` (import and exit), `setup` (time the set-up only), `run`,
`first` (a run followed by the data the checks need) or `trace` (a run with
spans).  T_SPAWN is the parent's CLOCK_MONOTONIC reading just before it
started this process, so set-up includes interpreter start.  Artifacts go to
./out, the figures to ./result.json and spans to ./spans.json, all relative to
the working directory the parent chose for this round.
"""

import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    mode, name, seed, t_spawn = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    import workloads
    if mode == "warmup":
        import scse  # noqa: F401  (compiles and caches the package's bytecode)
        return 0
    run = workloads.prepare(name, seed, "out")
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t_setup = _now()
    result = {"setup_s": t_setup - t_spawn}
    if mode != "setup":
        result["failed"] = run()
        result["wall_s"] = _now() - t_spawn
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open("spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    if mode == "first" and name == "saturation-g1024":
        workloads.saturation_profiles(seed, "out", "profiles.json")
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
