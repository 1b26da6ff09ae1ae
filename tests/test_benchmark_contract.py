"""The benchmark's hold on the library: `perfbench/` wraps orbispec names by
module attribute, so renaming or dropping one of them breaks the benchmark
without breaking the library.  Each CLI workload runs here once, traced, at
the smoke word length, through the harness's own job-spec and child-process
functions."""

import importlib.util
from pathlib import Path

import pytest

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
