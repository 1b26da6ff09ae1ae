"""In-memory span recorder for traced benchmark jobs.

Spans are recorded around calls into orbispec's modules, from outside the
library: `install` replaces module attributes that the layers call through
with timing wrappers.  A span holds its name, start and end (perf_counter
seconds), the index of the span that was open when it started, the job id,
and the process's peak RSS at start and end.  Calls into the Cartan
projection also record how many matrices they projected.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "parent": self._open[-1] if self._open else None,
                "job": self.job_id, "rss_kb_start": _maxrss_kb(),
                "start": time.perf_counter()}
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["rss_kb_end"] = _maxrss_kb()
        self._open.pop()

    def wrap(self, module, attr: str, name: str, count_rows: bool = False) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            if count_rows:
                shape = getattr(args[0], "shape", (1, 1, 1))
                rows = 1
                for n in shape[:-2]:
                    rows *= n
                span["rows"] = rows
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap every layer boundary: the orbispec functions imported into
        `orbispec.cli`, `cli.run` itself, the library entry points the
        benchmark calls, the counting curves `exponent_triple` computes, the
        chamber-matrix rebuilds and the Cartan projection as bound in `orbit`
        and `exponents`."""
        from orbispec import asymptotics, cli, exponents, orbit, spectrum

        for attr, obj in list(vars(cli).items()):
            mod = getattr(obj, "__module__", "") or ""
            if inspect.isfunction(obj) and mod.startswith("orbispec.") \
                    and mod != "orbispec.cli":
                self.wrap(cli, attr, f"{mod.rsplit('.', 1)[1]}.{obj.__name__}")
        self.wrap(cli, "run", "cli.run")
        self.wrap(orbit, "enumerate_ball", "orbit.enumerate_ball")
        self.wrap(exponents, "exponent_triple", "exponents.exponent_triple")
        self.wrap(exponents, "counting_curve", "exponents.counting_curve")
        self.wrap(spectrum, "consistency_check", "spectrum.consistency_check")
        for module in (exponents, asymptotics):
            self.wrap(module, "relative_chamber_matrix",
                      "exponents.relative_chamber_matrix")
        for module in (orbit, exponents):
            self.wrap(module, "log_singular_values", "cartan.log_singular_values",
                      count_rows=True)
