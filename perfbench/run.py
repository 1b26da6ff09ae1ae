"""orbispec benchmark: fixed batch workloads, output checks, layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload gamma2-lib-L12 --seed 0 --seconds 36 --trace 0

Each workload is a closed loop with one client: one job at a time, each in a
fresh single-threaded Python process (OMP/OPENBLAS/MKL threads = 1, CLI
`--threads 1`).  A further job starts only while it should end, judging by
the last job's wall time, within `--seconds` of the first job's start; at
least one job runs.  With `--trace 0` the run reports the end-to-end metrics
of untraced jobs: medians over the run's jobs, and for set-up time over at
least nine set-ups (jobs plus set-up-only processes).  Job time is reported
as `job_rel`, each job's wall time over the time `job.calibrate` took in the
same process right after the job; the raw median job wall time goes to the
`#` line and the details file.  With `--trace 1` it runs one untraced and one
traced job and reports per-layer metrics derived from the spans the traced
job recorded.

Every job's outputs are checked against `reference.json` (seed 0) or
against seed-independent invariants (other seeds); a job that raises,
exits non-zero or fails the check counts as failed.  The last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Spans and per-job details go to `.perfbench_out/` in the working directory.

`--smoke` runs every workload at word length 8 and checks that every metric
named in BENCHMARK.json is emitted with its unit, that every layer the
workload calls recorded spans, that the exact counts repeat, and that a
corrupted output trips the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")

# Closed-form trace-form ||rho|| per group, so the gate does not trust the
# program for it: 1/sqrt(2) for SL(2,R), sqrt(2) for SL(3,R).
RHO_NORM = {2: 1 / math.sqrt(2), 3: math.sqrt(2)}

GAMMA2 = ([[1, 2], [0, 1]], [[1, 0], [2, 1]])
BASE_X = [[2, 1], [1, 1]]
ALL_ANALYSES = ["project", "orbit", "count", "exponent", "lambda0", "green", "heatbound"]

# Why each workload: see BENCHMARK.json.  Γ(2) is free on GAMMA2, so every
# seed gives the level counts 1, 4, 12, ..., 4·3^(k-1).  The word lengths keep
# a job at a few seconds on a 2-core host, so a run holds four to ten jobs:
# jobs of identical work vary by +-20% there, and medians over two or three
# jobs one word length longer moved by more than 25% between sets of runs.
WORKLOADS = {
    "gamma2-lib-L12": {"kind": "lib", "n": 2, "L": 12, "arithmetic": "exact-int"},
    "gamma2-cli-base-L11": {"kind": "cli", "n": 2, "L": 11, "arithmetic": "exact-int",
                            "base": True, "analyses": ALL_ANALYSES},
    "hitchin3-float-cli-L11": {"kind": "cli", "n": 3, "L": 11, "arithmetic": "float",
                               "analyses": ["orbit", "count", "exponent", "lambda0",
                                            "green"]},
}

SMOKE_L = 8
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
TRIPLE_TOL = 1e-9  # seed 0: |value - reference| per exponent
ORDER_TOL = 0.05   # delta <= delta_second + tol, delta_second <= delta_prime + tol
RANGE_SLACK = 0.2  # 0 <= exponent <= 2||rho|| + slack
EXACT_COUNTS = ("orbit.elements", "orbit.candidates", "cartan.rows_projected",
                "exponents.table_rebuilds")
# Per-layer metrics that read 0 on a workload because it never calls the
# layer: the library pipeline computes no partial sums, bisection or Green
# series, and runs no CLI.  Every other per-layer metric except
# trace.overhead_s must be above 0, or a wrapper recorded nothing.
IDLE_METRICS = {
    "gamma2-lib-L12": {"exponents.partial_sums_s", "exponents.bisection_s",
                       "asymptotics.green_s", "asymptotics.green_calls",
                       "asymptotics.self_s", "cli.self_s", "cli.output_bytes"},
}
# Calls that `cli.run` makes on every CLI workload through names imported
# into orbispec.cli.  If cli stops importing one, its wrapper is gone and
# the smoke test reports it.
CLI_CALLS = ("orbit.enumerate_ball", "exponents.exponent_triple",
             "exponents.counting_curve", "exponents.level_partial_sums",
             "exponents.delta_second_bisection",
             "asymptotics.green_series_diagnostic")


# ---------------------------------------------------------------- inputs

def _mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _inv2(m):
    (a, b), (c, d) = m
    return [[d, -b], [-c, a]]


def _sym2(m):
    """Irreducible representation SL(2) -> SL(3) on quadratic forms."""
    (a, b), (c, d) = m
    return [[a * a, a * b, b * b], [2 * a * c, a * d + b * c, 2 * b * d],
            [c * c, c * d, d * d]]


def _hyperbolic_pool():
    """Hyperbolic SL(2,Z) elements with entries in [-2, 2]: the eight trace
    +-3 elements of the same size as BASE_X."""
    r = range(-2, 3)
    return [[[a, b], [c, d]] for a in r for b in r for c in r for d in r
            if a * d - b * c == 1 and abs(a + d) > 2]


def _signed_permutations3():
    """SO(3) ∩ SL(3,Z) without the identity: 23 signed permutation matrices."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = [[signs[i] if j == perm[i] else 0 for j in range(3)] for i in range(3)]
            inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
            if (-1) ** inversions * signs[0] * signs[1] * signs[2] == 1 \
                    and m != [[1, 0, 0], [0, 1, 0], [0, 0, 1]]:
                out.append(m)
    return out


def make_inputs(name: str, seed: int) -> dict:
    """Generators (and base point) of a workload.  Seed 0 gives the fixed
    inputs.  Another seed changes them as follows.

    * gamma2-lib-L12: conjugate the generators by a seeded product of three
      elementary SL(2,Z) matrices (entries at most 3).
    * gamma2-cli-base-L11: draw the base point from `_hyperbolic_pool`; the
      generators stay fixed.  A conjugated generating set shrinks the trust
      radius, and with the base-point shift the fit window can then have too
      few radii: at L=12 orbispec exits with code 1 for every conjugator with
      entries in [-1, 1] that changes the generating set.  Each of the eight
      base points passes the gate at L=11.
    * hitchin3-float-cli-L11: conjugate the SL(3) generators by a seeded
      signed permutation matrix.  It lies in SO(3), so every distance from
      the base point, and with it the workload's size and fit windows, stays
      the same, while the entries the program multiplies, sorts and
      decomposes change.  General SL(2,Z) conjugators change the fit windows
      and the estimates themselves at L=12 (see CHANGES.md).
    """
    w = WORKLOADS[name]
    rng = random.Random(seed)
    gens, inputs = [list(g) for g in GAMMA2], {}
    if w["n"] == 3:
        gens = [_sym2(g) for g in gens]
        if seed:
            p = rng.choice(_signed_permutations3())
            pt = [list(col) for col in zip(*p)]
            gens = [_mul(_mul(p, g), pt) for g in gens]
    elif w.get("base"):
        inputs["base_x"] = rng.choice(_hyperbolic_pool()) if seed else BASE_X
    elif seed:
        letters = ([[1, 1], [0, 1]], [[1, -1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [-1, 1]])
        conj = [[1, 0], [0, 1]]
        for _ in range(3):
            conj = _mul(conj, rng.choice(letters))
        gens = [_mul(_mul(conj, g), _inv2(conj)) for g in gens]
    inputs["generators"] = gens
    return inputs


def write_job_spec(name: str, seed: int, job_id: str, L: int, trace: bool,
                   setup_only: bool) -> tuple[Path, dict]:
    w, inputs = WORKLOADS[name], make_inputs(name, seed)
    job_dir = OUT / "jobs" / job_id
    job_dir.mkdir(parents=True, exist_ok=True)
    spec = {"id": job_id, "kind": w["kind"], "trace": trace, "setup_only": setup_only,
            "max_word_length": L, "arithmetic": w["arithmetic"],
            "generators": inputs["generators"], "out": str(job_dir / "out")}
    if w["kind"] == "cli":
        config = {"group": {"factors": [{"type": "sl", "n": w["n"]}],
                            "arithmetic": w["arithmetic"]},
                  "generators": [[g] for g in inputs["generators"]],
                  "max_word_length": L, "analyses": w["analyses"]}
        if "base_x" in inputs:
            config["base_points"] = {"x": [inputs["base_x"]]}
        spec["config"] = str(job_dir / "config.json")
        Path(spec["config"]).write_text(json.dumps(config))
    path = job_dir / "job.json"
    path.write_text(json.dumps(spec))
    return path, spec


# ---------------------------------------------------------------- jobs

def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec_path: Path, timeout: float) -> tuple[dict | None, str]:
    """Run one job process to completion; returns (payload, error)."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "job.py"), str(spec_path)],
                              capture_output=True, text=True, env=child_env(),
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    stderr = proc.stderr.strip()[-2000:]
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {stderr}"
    try:
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"unreadable job output: {proc.stdout[-500:]!r}"
    code = payload.get("result", {}).get("exit_code", 0)
    return payload, (f"orbispec exited with code {code}: {stderr}" if code else "")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def collect_outputs(name: str, payload: dict, out_dir: Path) -> dict:
    """The job's results in one shape for both job kinds."""
    res = payload["result"]
    if WORKLOADS[name]["kind"] == "lib":
        return {"levels": res["levels"], "triple": res["triple"],
                "lambda0_exact": res["lambda0_exact"],
                "lambda0_interval": res["lambda0_interval"], "csv_sha256": {},
                "output_bytes": 0}
    report = json.loads((out_dir / "report.json").read_text())
    rows = (out_dir / "orbit_levels.csv").read_text().splitlines()[1:]
    return {
        "levels": [int(r.split(",")[1]) for r in rows],
        "triple": [report["exponents"][k]["value"]
                   for k in ("delta", "delta_second", "delta_prime")],
        "lambda0_exact": report["spectrum"]["lambda0_exact"],
        "lambda0_interval": report["spectrum"]["lambda0_interval"],
        "csv_sha256": {p.name: sha256(p) for p in sorted(out_dir.glob("*.csv"))},
        "output_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
    }


def corrupt(outputs: dict) -> None:
    """Damage a job's outputs the way a wrong enumeration would: one more
    element on the last level (and hence a different orbit_levels.csv)."""
    outputs["levels"][-1] += 1
    if "orbit_levels.csv" in outputs["csv_sha256"]:
        outputs["csv_sha256"]["orbit_levels.csv"] = "corrupted"


def check(name: str, seed: int, L: int, outputs: dict, reference: dict) -> list[str]:
    """Problems found in one job's outputs; empty when the job is correct."""
    problems = []
    want = [1] + [4 * 3 ** (k - 1) for k in range(1, L + 1)]
    if outputs["levels"] != want:
        problems.append(f"level counts {outputs['levels']} != {want}")
    rho = RHO_NORM[WORKLOADS[name]["n"]]
    d, ds, dp = outputs["triple"]
    if not (d <= ds + ORDER_TOL and ds <= dp + ORDER_TOL):
        problems.append(f"exponent triple {outputs['triple']} is not ordered")
    if not all(0.0 <= v <= 2 * rho + RANGE_SLACK for v in outputs["triple"]):
        problems.append(f"exponent triple {outputs['triple']} out of range")
    lam = outputs["lambda0_exact"]
    for v in ([lam] if lam is not None else outputs["lambda0_interval"]):
        if not -1e-12 <= v <= rho * rho + 1e-12:
            problems.append(f"lambda0 {v} outside [0, ||rho||^2]")
    ref = reference.get(name)
    if seed == 0 and ref is not None and L == WORKLOADS[name]["L"]:
        for got, exp, label in zip(outputs["triple"], ref["triple"],
                                   ("delta", "delta_second", "delta_prime")):
            if abs(got - exp) > TRIPLE_TOL:
                problems.append(f"{label} {got!r} differs from reference {exp!r}")
        if outputs["csv_sha256"] != ref["csv_sha256"]:
            bad = sorted(k for k in set(outputs["csv_sha256"]) | set(ref["csv_sha256"])
                         if outputs["csv_sha256"].get(k) != ref["csv_sha256"].get(k))
            problems.append(f"CSV tables differ from reference: {bad}")
    return problems


# ---------------------------------------------------------------- trace

def layer_metrics(spans: list[dict], outputs: dict, gen_count: int, L: int) -> dict:
    """Per-layer numbers of one traced job, from its spans."""
    def dur(s):
        return s["end"] - s["start"]

    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur(s)
    self_s = [dur(s) - c for s, c in zip(spans, covered)]

    def total(*names):
        return sum(dur(s) for s in spans if s["name"] in names)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def layer_self(layer):
        return sum(t for s, t in zip(spans, self_s) if s["name"].split(".")[0] == layer)

    enum = [s for s in spans if s["name"] == "orbit.enumerate_ball"]
    elements = sum(outputs["levels"])
    candidates = gen_count * sum(outputs["levels"][:L])
    rows = sum(s.get("rows", 0) for s in spans if s["name"] == "cartan.log_singular_values")
    return {
        "orbit.enumerate_s": total("orbit.enumerate_ball"),
        "orbit.elements": elements,
        "orbit.candidates": candidates,
        "orbit.dedup_yield": elements / candidates,
        "orbit.rss_rise_mb": sum(s["rss_kb_end"] - s["rss_kb_start"] for s in enum) / 1024,
        "cartan.project_s": total("cartan.log_singular_values"),
        "cartan.project_calls": calls("cartan.log_singular_values"),
        "cartan.rows_projected": rows,
        "cartan.rows_per_element": rows / elements,
        "exponents.triple_s": total("exponents.exponent_triple"),
        "exponents.counting_s": total("exponents.counting_curve"),
        "exponents.partial_sums_s": total("exponents.level_partial_sums",
                                          "exponents.poincare_partial_sum"),
        "exponents.bisection_s": total("exponents.delta_second_bisection"),
        "exponents.table_rebuilds": calls("exponents.relative_chamber_matrix"),
        "exponents.table_rebuild_s": total("exponents.relative_chamber_matrix"),
        "exponents.self_s": layer_self("exponents"),
        "asymptotics.green_s": total("asymptotics.green_series_diagnostic"),
        "asymptotics.green_calls": calls("asymptotics.green_series_diagnostic"),
        "asymptotics.self_s": layer_self("asymptotics"),
        "cli.self_s": layer_self("cli"),
        "cli.output_bytes": outputs["output_bytes"],
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(Path("src").rglob("*.py")))


def llc_bytes() -> int | None:
    sizes = {}
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            text = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        unit = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
        sizes[level] = int(text.rstrip("KM")) * unit
    return sizes[max(sizes)] if sizes else None


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "llc_bytes": llc_bytes()}


# ---------------------------------------------------------------- runs

def median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool, L: int,
                 reference: dict, corrupt_outputs: bool = False,
                 traced_jobs: int = 1) -> dict:
    """Run one workload's jobs and return everything measured about them."""
    start = time.perf_counter()
    budget_end = start + 170.0
    jobs, setups, spans_out = [], [], []
    counter = 0

    def one(traced: bool, setup_only: bool = False) -> dict:
        nonlocal counter
        counter += 1
        job_id = f"{name}-s{seed}-{counter}"
        spec_path, spec = write_job_spec(name, seed, job_id, L, traced, setup_only)
        remaining = max(budget_end - time.perf_counter(), 1.0)
        t0 = time.perf_counter()
        payload, error = run_child(spec_path, min(CHILD_TIMEOUT_S, remaining))
        wall = time.perf_counter() - t0
        record = {"id": job_id, "traced": traced, "wall_s": wall, "error": error}
        if payload is not None:
            record.update({k: payload[k] for k in ("setup_s", "maxrss_kb", "user_s", "sys_s")})
        if not setup_only:
            problems = [error] if error else []
            outputs = None
            if not problems:
                try:
                    outputs = collect_outputs(name, payload, Path(spec["out"]))
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    problems.append(f"unreadable outputs: {exc!r}")
            if outputs is not None:
                if corrupt_outputs:
                    corrupt(outputs)
                problems += check(name, seed, L, outputs, reference)
                record["outputs"] = outputs
                record["job_s"] = payload["job_s"]
                record["cal_s"] = payload["cal_s"]
                if traced:
                    record["layers"] = layer_metrics(payload["spans"], outputs,
                                                     payload["generating_set_size"], L)
                    spans_out.extend(payload["spans"])
            record["problems"] = problems
            jobs.append(record)
        shutil.rmtree(OUT / "jobs" / job_id, ignore_errors=True)
        return record

    one(False, setup_only=True)  # warm the file cache and bytecode; not counted
    measure_start = time.perf_counter()
    plan = [False] + ([True] * traced_jobs if trace else [])
    for traced in plan:
        one(traced)
    # start another job only if it should end within the measuring window
    while not trace and (time.perf_counter() - measure_start
                         + jobs[-1]["wall_s"] <= seconds):
        one(False)
    setups = [j["setup_s"] for j in jobs if "setup_s" in j]
    while not trace and len(setups) < SETUP_SAMPLES and time.perf_counter() < budget_end:
        rec = one(False, setup_only=True)
        if "setup_s" not in rec:
            break
        setups.append(rec["setup_s"])
    return {"jobs": jobs, "setups": setups, "spans": spans_out,
            "elapsed_s": time.perf_counter() - start}


def summarize(trace: bool, run: dict) -> tuple[dict, dict]:
    """(metrics, notes) for the final JSON line and the details file."""
    jobs = run["jobs"]
    ok = [j for j in jobs if not j["problems"]]
    untraced = [j["job_s"] for j in ok if not j["traced"]]
    notes = {"job_s": median(untraced), "job_s_samples": len(untraced),
             "setup_s_samples": len(run["setups"])}
    if not trace:
        metrics = {
            "job_rel": (median([j["job_s"] / j["cal_s"] for j in ok if not j["traced"]]),
                        "ratio"),
            "setup_s": (median(run["setups"]), "s"),
            "peak_rss_mb": (median([j["maxrss_kb"] / 1024 for j in ok]), "MB"),
        }
        return metrics, notes
    traced = [j["layers"] for j in ok if j["traced"]]
    for key in EXACT_COUNTS:
        values = {t[key] for t in traced}
        if len(values) > 1:
            notes.setdefault("count_mismatch", {})[key] = sorted(values)
    layers = {k: median([t[k] for t in traced]) for k in (traced[0] if traced else {})}
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    metrics = {k: (v, units[k]) for k, v in layers.items()}
    metrics["trace.overhead_s"] = (
        median([j["job_s"] for j in ok if j["traced"]]) - median(untraced), "s")
    metrics["repo.src_lines"] = (src_lines(), "lines")
    return metrics, notes


def load_benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line; a metric that could not be measured is null."""
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def main_run(args, reference) -> int:
    L = WORKLOADS[args.workload]["L"]
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), L,
                       reference)
    metrics, notes = summarize(bool(args.trace), run)
    jobs = run["jobs"]
    failed = sum(1 for j in jobs if j["problems"])
    ref_counts = reference.get(args.workload, {}).get("counts", {})
    drift = {k: (metrics[k][0], v) for k, v in ref_counts.items()
             if k in metrics and metrics[k][0] != v}
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "environment": environment(), "notes": notes,
               "count_drift_from_reference": drift, "elapsed_s": run["elapsed_s"],
               "setups_s": run["setups"],
               "jobs": [{k: v for k, v in j.items() if k != "outputs"} | (
                   {"levels": j["outputs"]["levels"], "triple": j["outputs"]["triple"],
                    "csv_sha256": j["outputs"]["csv_sha256"]} if "outputs" in j else {})
                        for j in jobs]}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=1))
    if run["spans"]:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for s in run["spans"]:
                fh.write(json.dumps(s) + "\n")
    for j in jobs:
        for p in j["problems"]:
            print(f"job {j['id']} failed: {p}", file=sys.stderr)
    if drift:
        print(f"exact counts differ from reference.json (value, reference): {drift}",
              file=sys.stderr)
    env = details["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops_failed={failed}/{len(jobs)} {notes} env={env}")
    emit(failed == 0, len(jobs), failed, metrics)
    return 0


def missing_cli_calls(spans: list[dict]) -> list[str]:
    """One problem per traced job whose `cli.run` span lacks a direct child
    span for one of CLI_CALLS."""
    problems = []
    for job in sorted({s["job"] for s in spans}):
        mine = [s for s in spans if s["job"] == job]
        direct = {s["name"] for s in mine
                  if s["parent"] is not None and mine[s["parent"]]["name"] == "cli.run"}
        missing = [c for c in CLI_CALLS if c not in direct]
        if missing:
            problems.append(f"job {job}: cli.run recorded no span for {missing}")
    return problems


def main_smoke(reference) -> int:
    """Every workload at a small word length: metric names and units, exact
    counts repeating across two traced jobs, and the gate catching damage."""
    bench = load_benchmark()
    errors = []
    for name in WORKLOADS:
        before = len(errors)
        for trace in (False, True):
            run = run_workload(name, 0, 0.0, trace, SMOKE_L, reference,
                               traced_jobs=2 if trace else 0)
            metrics, notes = summarize(trace, run)
            want = bench["per_layer" if trace else "end_to_end"]
            for m in want:
                got = metrics.get(m["name"])
                if got is None or got[1] != m["unit"] or not math.isfinite(got[0]):
                    errors.append(f"{name}: metric {m['name']} missing or wrong: {got}")
            if trace:
                idle = IDLE_METRICS.get(name, set()) | {"trace.overhead_s"}
                unrecorded = sorted(k for k, (v, _) in metrics.items()
                                    if k not in idle and not v > 0)
                if unrecorded:
                    errors.append(f"{name}: no spans behind {unrecorded}")
                if WORKLOADS[name]["kind"] == "cli":
                    errors += [f"{name}: {e}" for e in missing_cli_calls(run["spans"])]
            extra = set(metrics) - {m["name"] for m in want}
            if extra:
                errors.append(f"{name}: unlisted metrics {sorted(extra)}")
            for j in run["jobs"]:
                errors += [f"{name}: {p}" for p in j["problems"]]
            if "count_mismatch" in notes:
                errors.append(f"{name}: exact counts differ: {notes['count_mismatch']}")
        damaged = run_workload(name, 0, 0.0, False, SMOKE_L, reference,
                               corrupt_outputs=True)
        if not all(j["problems"] for j in damaged["jobs"]):
            errors.append(f"{name}: corrupted output passed the gate")
        print(f"# smoke {name}: {'ok' if len(errors) == before else 'FAILED'}",
              file=sys.stderr)
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke ok" if not errors else f"smoke failed: {len(errors)} problems")
    return 0 if not errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quick self-test of the harness at a small word length")
    args = parser.parse_args(argv)
    if not Path("src/orbispec/__init__.py").is_file():
        print("run from the root of an orbispec checkout: src/orbispec is missing",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    reference = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    return main_smoke(reference) if args.smoke else main_run(args, reference)


if __name__ == "__main__":
    sys.exit(main())
