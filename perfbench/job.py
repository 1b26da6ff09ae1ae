"""One benchmark job, run in a fresh process by `run.py`.

Usage: python3 perfbench/job.py SPEC.json

SPEC names the job kind ("lib" or "cli"), its inputs and its output
directory; with "setup_only" the process stops after set-up.  The job times
its set-up (importing orbispec, building the root system, loading the config
and closing the generators) apart from the job itself: the library pipeline
on the closed generators, or `cli.run` on the loaded config.  After the job
and after reading the process's peak RSS and CPU times, it times
`calibrate`.  It prints one JSON line with the three times, the peak RSS and
CPU times, the computed results and, when traced, the recorded spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, "src")


def _elements(osp, spec, mats):
    return [osp.GroupElement(spec, (tuple(tuple(r) for r in m),)) for m in mats]


def calibrate() -> float:
    """Seconds taken by a fixed float computation that calls no orbispec
    code: batched 3x3 singular values, a batched 3x3 product and a logarithm
    over 75 MB of matrices, the kind of numpy work the jobs spend their time
    on.  On a shared host the speed of every process drifts by tens of
    percent over minutes; timed in the job's process right after the job,
    this computation drifts with it, so job time / calibration time measures
    the program rather than the host."""
    import numpy as np
    x = np.random.default_rng(0).standard_normal((1 << 20, 3, 3))
    t0 = time.perf_counter()
    np.linalg.svd(x[: 1 << 18], compute_uv=False)
    np.log(np.abs(np.einsum("nij,njk->nik", x, x)) + 1.0).sum()
    return time.perf_counter() - t0


def main(spec_path: str) -> None:
    job = json.loads(Path(spec_path).read_text())

    import orbispec as osp
    from orbispec import cli

    if job["kind"] == "cli":
        config = cli.load_config(job["config"], threads=1)
        rs = osp.build_root_system(config.spec)
        gens = osp.GeneratorSet.from_elements(config.generators)
    else:
        from orbispec import exponents, orbit, spectrum
        gspec = osp.GroupSpec.sl(len(job["generators"][0]), job["arithmetic"])
        rs = osp.build_root_system(gspec)
        gens = osp.GeneratorSet.from_elements(_elements(osp, gspec, job["generators"]))
    setup_s = time.perf_counter() - T_START

    out = {"setup_s": setup_s, "generating_set_size": len(gens.elements)}
    if not job["setup_only"]:
        tracer = None
        if job["trace"]:
            from spans import Tracer
            tracer = Tracer(job["id"])
            tracer.install()
            root = tracer.open("job")
        t0 = time.perf_counter()
        if job["kind"] == "cli":
            result = {"exit_code": cli.run(config, job["out"])}
        else:
            ball = orbit.enumerate_ball(gens, job["max_word_length"])
            triple = exponents.exponent_triple(ball, rs)
            report = spectrum.consistency_check(
                rs.rho_norm, rs.rho_min, triple.delta.value,
                triple.delta_prime.value, triple.delta_second.value)
            result = {
                "exit_code": 0,
                "levels": ball.growth_per_level,
                "triple": list(triple.values),
                "lambda0_exact": report.lambda0_exact,
                "lambda0_interval": list(report.lambda0_interval),
            }
        t1 = time.perf_counter()
        out.update(job_s=t1 - t0, result=result)
        if tracer is not None:
            tracer.close(root)
            out["spans"] = tracer.spans
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(maxrss_kb=usage.ru_maxrss, user_s=usage.ru_utime, sys_s=usage.ru_stime)
    if not job["setup_only"]:
        out["cal_s"] = calibrate()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
