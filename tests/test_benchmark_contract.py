"""The benchmark's hold on the library: `perfbench/` wraps orbispec names by
module attribute, so renaming or dropping one of them breaks the benchmark
without breaking the library.  Each workload runs here once, traced, at
the smoke word length, and once at its benchmark word length against
perfbench/reference.json, through the harness's own job-spec, child-process
and check functions.  The harness's float workload is meant to exercise
integral float enumeration, so its generating sets must stay integer-valued."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from orbispec import GeneratorSet, GroupElement, GroupSpec

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["gamma2-cli-base-L11", "hitchin3-float-cli-L11"])
def test_traced_cli_job_records_every_wrapped_call(run_module, name, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(run_module, "OUT", tmp_path)
    monkeypatch.chdir(ROOT)  # the job process imports orbispec from ./src
    spec_path, _ = run_module.write_job_spec(name, 0, "contract", run_module.SMOKE_L,
                                             True, False)
    payload, error = run_module.run_child(spec_path, run_module.CHILD_TIMEOUT_S)
    assert error == ""
    assert payload["result"]["exit_code"] == 0
    spans = payload["spans"]
    assert run_module.missing_cli_calls(spans) == []
    assert any(s["name"] == "cartan.log_singular_values" for s in spans)


def test_traced_lib_job_projects_the_ball_once(run_module, tmp_path, monkeypatch):
    """The library pipeline builds one base-point-free table, and the Cartan
    projection it calls through `exponents` is still seen by the tracer."""
    monkeypatch.setattr(run_module, "OUT", tmp_path)
    monkeypatch.chdir(ROOT)
    spec_path, _ = run_module.write_job_spec("gamma2-lib-L12", 0, "contract",
                                             run_module.SMOKE_L, True, False)
    payload, error = run_module.run_child(spec_path, run_module.CHILD_TIMEOUT_S)
    assert error == ""
    spans = payload["spans"]
    assert sum(s["name"] == "exponents.relative_chamber_matrix" for s in spans) == 1
    rows = [s["rows"] for s in spans if s["name"] == "cartan.log_singular_values"]
    assert sum(rows) == sum(payload["result"]["levels"])


@pytest.mark.parametrize("name", ["gamma2-lib-L12", "gamma2-cli-base-L11",
                                  "hitchin3-float-cli-L11"])
def test_seed_zero_job_matches_the_reference(run_module, name, tmp_path, monkeypatch):
    """At its benchmark word length, seed 0 of each workload reproduces the
    exponent triple and the CSV digests in perfbench/reference.json, as the
    harness's own check reads them."""
    monkeypatch.setattr(run_module, "OUT", tmp_path)
    monkeypatch.chdir(ROOT)
    L = run_module.WORKLOADS[name]["L"]
    spec_path, spec = run_module.write_job_spec(name, 0, "reference", L, False, False)
    payload, error = run_module.run_child(spec_path, run_module.CHILD_TIMEOUT_S)
    assert error == ""
    outputs = run_module.collect_outputs(name, payload, Path(spec["out"]))
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert run_module.check(name, 0, L, outputs, reference) == []


def test_hitchin_generating_sets_are_integral(run_module):
    """Every entry of the hitchin workload's generating set, inverses
    included, is an integer for seeds 0-23, so its float ball is keyed by
    int64 values and multiplied exactly, as the workload means to measure."""
    spec = GroupSpec.sl(3, "float")
    for seed in range(24):
        mats = run_module.make_inputs("hitchin3-float-cli-L11", seed)["generators"]
        gens = GeneratorSet.from_elements(
            [GroupElement(spec, (tuple(map(tuple, m)),)) for m in mats])
        rows = np.array([g.flat_entries() for g in gens.elements])
        assert np.array_equal(rows, np.rint(rows)), seed
