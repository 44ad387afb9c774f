"""The benchmark in perfbench/ reaches into scse by name; every name it uses
must resolve and every workload must run and pass its checks, so a removal or
a changed signature fails here rather than in a benchmark run."""

import ast
import importlib
import importlib.util
import os

import pytest

import scse

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, funcs in tracer.TRACED.items():
        module = importlib.import_module("scse." + mod_name)
        for fn_name in funcs:
            assert callable(getattr(module, fn_name, None)), f"scse.{mod_name}.{fn_name}"


def test_workload_names_resolve():
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    # local name -> scse object it stands for: `import scse` and `from scse import x`
    bound = {"scse": scse}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scse":
            for alias in node.names:
                try:
                    obj = importlib.import_module("scse." + alias.name)
                except ModuleNotFoundError:
                    obj = getattr(scse, alias.name)
                bound[alias.asname or alias.name] = obj
    used = [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound]
    assert len(used) > 10
    for base, attr in used:
        assert hasattr(bound[base], attr), f"{base}.{attr}"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        workloads = importlib.import_module("workloads")
        checks = importlib.import_module("checks")
        yield workloads, checks, checks.ReferenceB4()


@pytest.mark.parametrize("name", ["thresholds-b4", "saturation-g1024", "verify-b16"])
def test_workload_runs_and_passes_checks(tmp_path, bench, name):
    workloads, checks, ref = bench
    out = str(tmp_path / "out")
    assert workloads.prepare(name, 1, out)() == 0
    if name == "thresholds-b4":
        problems = checks.check_thresholds(out, ref)
    elif name == "saturation-g1024":
        profiles = str(tmp_path / "profiles.json")
        workloads.saturation_profiles(1, out, profiles)
        problems = checks.check_saturation(out, profiles, ref)
    else:
        problems = checks.check_verify(out)
    assert problems == []
