"""Spans around the public functions of each scse module, recorded from outside.

install() replaces every reference to a traced function in every loaded scse
module (modules import each other's functions by name, so patching only the
defining module would miss most calls).  Spans are kept in memory and written
out once at the end; layer_metrics() turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> public functions traced.  The counter pulls a work count out of
# (args, result): sample elements, [rows, B], iterations, bytes or evaluations.
TRACED = {
    "denoiser": {
        "build_tables": None,
        "section_stats": lambda a, r: a[0].size,
        "gaussian_block": lambda a, r: list(r.shape),  # [rows, B]
    },
    "state_evolution": {
        "iterate_underlying": lambda a, r: r.iterations,
        "iterate_coupled": lambda a, r: r.iterations,
        "basin_boundary": None,
    },
    "potential": {"free_energy_gap": None},
    "thresholds": {
        "amp_threshold_underlying": lambda a, r: r.evaluations,
        "potential_threshold": lambda a, r: r.evaluations,
        "amp_threshold_coupled": lambda a, r: r.evaluations,
    },
    "ensemble": {"build_coupling_matrix": lambda a, r: r.J.nbytes},
    "verification": {
        "run_suite": None,
        "nishimori_report": None,
        "i_mmse_report": None,
        "verify_smoothness": None,
        "verify_telescoping": None,
        "verify_basin_exclusion": None,
        "shift_potential_scaling": None,
        "theorem1_experiment": None,
    },
    "cli": {"main": None},
}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, count]
        self._stack = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result
        return traced

    def install(self):
        import importlib
        modules = {m: importlib.import_module("scse." + m) for m in TRACED}
        for mod_name, funcs in TRACED.items():
            for fn_name, counter in funcs.items():
                original = getattr(modules[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
                for key, mod in list(sys.modules.items()):
                    if key != "scse" and not key.startswith("scse."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def layer_metrics(spans, artifact_bytes: int) -> dict:
    """Per-layer figures (name -> value) from a finished trace."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, calls, count, self_s = {}, {}, {}, {}
    for i, (name, start, end, parent, n) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if isinstance(n, int):
            count[name] = count.get(name, 0) + n
        module = name.split(".")[0]
        self_s[module] = self_s.get(module, 0.0) + (end - start) - child[i]

    def s(name):
        return total.get(name, 0.0)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    evals = sum(count.get(f"thresholds.{k}", 0) for k in TRACED["thresholds"])
    builds = calls.get("denoiser.build_tables", 0)
    coupling = [n for name, _, _, _, n in spans if name == "ensemble.build_coupling_matrix"]
    blocks = [n for name, _, _, _, n in spans if name == "denoiser.gaussian_block" and n]
    return {
        "denoiser.build_tables.calls": builds,
        "denoiser.build_tables.s": s("denoiser.build_tables"),
        "denoiser.self_s": self_s.get("denoiser", 0.0),
        "denoiser.section_stats.calls": calls.get("denoiser.section_stats", 0),
        "denoiser.section_stats.ns_per_elem": per(s("denoiser.section_stats"),
                                                  count.get("denoiser.section_stats", 0), 1e9),
        "denoiser.gaussian_block.rows": sum(rows for rows, _ in blocks),
        "denoiser.gaussian_block.ns_per_elem": per(s("denoiser.gaussian_block"),
                                                   sum(rows * b for rows, b in blocks), 1e9),
        "state_evolution.iterate_underlying.steps": count.get("state_evolution.iterate_underlying", 0),
        "state_evolution.iterate_underlying.s": s("state_evolution.iterate_underlying"),
        "state_evolution.iterate_coupled.steps": count.get("state_evolution.iterate_coupled", 0),
        "state_evolution.iterate_coupled.s": s("state_evolution.iterate_coupled"),
        "state_evolution.iterate_coupled.us_per_step": per(
            s("state_evolution.iterate_coupled"),
            count.get("state_evolution.iterate_coupled", 0), 1e6),
        "state_evolution.basin_boundary.s": s("state_evolution.basin_boundary"),
        "potential.free_energy_gap.calls": calls.get("potential.free_energy_gap", 0),
        "potential.self_s": self_s.get("potential", 0.0),
        "thresholds.evals": evals,
        "thresholds.tables_per_eval": per(builds, evals, 1.0),
        "thresholds.self_s": self_s.get("thresholds", 0.0),
        "thresholds.amp_threshold_underlying.s": s("thresholds.amp_threshold_underlying"),
        "thresholds.potential_threshold.s": s("thresholds.potential_threshold"),
        "thresholds.amp_threshold_coupled.s": s("thresholds.amp_threshold_coupled"),
        "ensemble.build_coupling_matrix.s": s("ensemble.build_coupling_matrix"),
        "ensemble.coupling_matrix.bytes": max(coupling, default=0),
        "verification.nishimori_report.s": s("verification.nishimori_report"),
        "verification.i_mmse_report.s": s("verification.i_mmse_report"),
        "verification.self_s": self_s.get("verification", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.artifact_bytes": artifact_bytes if "cli.main" in calls else 0,
    }
