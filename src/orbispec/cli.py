"""Batch command-line interface.

A single JSON config describes the group, its generators, and the requested
analyses; the run writes a machine-readable `report.json` plus one CSV per
requested table into the output directory.  Identical configs reproduce the
output files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .asymptotics import (fit_ball_volume, green_series_diagnostic, heat_bound,
                          LARGE_RADII_DEFAULT, SMALL_RADII_DEFAULT)
from .cartan import GroupElement, cartan_projection
from .errors import ConfigError, NumericalError, ResourceLimitError, UnsupportedGroupError
from .exponents import (DEFAULT_RADII_STEP, DEFAULT_WINDOW_FRACTION, KIND_MIXED,
                        KIND_POLYHEDRAL, KIND_RIEMANNIAN, counting_curve,
                        delta_second_bisection, exponent_triple, level_partial_sums,
                        poincare_partial_sum, trust_radius)
from .liecore import ARITHMETIC_MODES, Factor, GroupSpec, build_root_system
from .orbit import DEFAULT_MAX_ELEMENTS, GeneratorSet, enumerate_ball
from .spectrum import consistency_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNSUPPORTED_GROUP = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

_FLOAT_FMT = "%.12g"

_HELP_EPILOG = """\
config schema (JSON):
  group            {"factors": [{"type": "sl", "n": 2}, ...],
                    "arithmetic": "exact-int" | "exact-rational" | "float"}
  generators       list of elements; an element is a list of per-factor
                   square matrices (row-major nested arrays); entries are
                   integers, floats, or rationals written as "p/q"
  max_word_length  orbit ball depth (>= 1 for orbit-dependent analyses)
  analyses         any of the names below (exponent/lambda0 dependencies are
                   pulled in automatically; the report always carries them):
                   %s
  optional keys    radii_step (0.25), window_fraction (0.5), base_points
                   {"x": element, "y": element}, max_elements (1e7),
                   mixed_s, green_zetas, heat_times, volume_radii_small
                   (>= 2 distinct radii), volume_radii_large (>= 3)

output files (all floats printed with 12 significant digits):
  report.json               group, exponent triple, spectral report, fits
  projections.csv           generator_index, coordinates..., d_riemannian,
                            d_polyhedral
  orbit_levels.csv          word_length, count
  counting_<kind>.csv       radius, count, complete        (kind: riemannian,
                            polyhedral, mixed)
  partial_sums.csv          kind, s, level, partial_sum
  volumes.csv               family, regime, radius, volume
  green_series.csv          zeta, level, partial_sum, verdict
  heat_bounds.csv           case, t, s, s1, s2, eps, pseudo_dim, value
                            (pseudo_dim is always empty)

exit codes: 0 success, 1 config or usage error, 2 unsupported group,
            3 resource cap exceeded, 4 numerical failure
"""


@dataclass
class JobConfig:
    """Validated batch-job description, every field set by `load_config`."""

    spec: GroupSpec
    generators: list[GroupElement]
    max_word_length: int
    analyses: tuple[str, ...]
    radii_step: float
    window_fraction: float
    base_x: GroupElement | None
    base_y: GroupElement | None
    max_elements: int
    mixed_s: float | None
    green_zetas: list[float] | None
    heat_times: tuple[float, ...] | list[float]
    volume_radii_small: tuple[float, ...] | list[float]
    volume_radii_large: tuple[float, ...] | list[float]


def _parse_element(spec: GroupSpec, blocks, what: str) -> GroupElement:
    if not isinstance(blocks, list) or len(blocks) != len(spec.factors):
        raise ConfigError(f"{what}: expected {len(spec.factors)} per-factor matrices")
    if not all(isinstance(b, list) and all(isinstance(r, list) for r in b) for b in blocks):
        raise ConfigError(f"{what}: every matrix row must be a JSON array, got {blocks!r}")
    try:
        return GroupElement(spec, tuple(tuple(tuple(row) for row in b) for b in blocks))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _positive(what: str, val, spec=None) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not 0 < val <= sys.float_info.max:
        raise ConfigError(f"{what} must be a positive number, got {val!r}")
    return float(val)


def _fraction(what: str, val, spec=None) -> float:
    if _positive(what, val) > 1:
        raise ConfigError(f"{what} must lie in (0, 1]")
    return float(val)


def _whole(what: str, val, spec=None) -> int:
    if not _positive(what, val).is_integer():
        raise ConfigError(f"{what} must be a positive integer, got {val!r}")
    return int(val)


def _positive_list(what: str, val, spec=None) -> list[float]:
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{what} must be a non-empty list of positive numbers")
    return [_positive(f"{what} entry", v) for v in val]


def _distinct_radii(least: int, what: str, val, spec=None) -> list[float]:
    radii = _positive_list(what, val)
    if len(set(radii)) < least:
        raise ConfigError(f"{what} needs at least {least} distinct radii to determine "
                          f"its fit, got {len(set(radii))}")
    return radii


def _base_points(what: str, val, spec: GroupSpec) -> tuple:
    if not isinstance(val, dict) or set(val) - {"x", "y"}:
        raise ConfigError(f"{what} must be an object with keys x and/or y")
    return tuple(_parse_element(spec, val[k], f"base point {k}") if k in val else None
                 for k in ("x", "y"))


# Every optional config key: its parser, called as parse(key, value, spec),
# which rejects JSON null, and the value the key takes when left out.
_OPTIONAL_KEYS = {
    "radii_step": (_positive, DEFAULT_RADII_STEP),
    "window_fraction": (_fraction, DEFAULT_WINDOW_FRACTION),
    "base_points": (_base_points, (None, None)),
    "max_elements": (_whole, DEFAULT_MAX_ELEMENTS),
    "mixed_s": (_positive, None),
    "green_zetas": (_positive_list, None),
    "heat_times": (_positive_list, (0.5, 1.0, 2.0, 4.0, 8.0)),
    # the small-radii volume fit has two coefficients, the large-radii one three
    "volume_radii_small": (partial(_distinct_radii, 2), tuple(SMALL_RADII_DEFAULT.tolist())),
    "volume_radii_large": (partial(_distinct_radii, 3), tuple(LARGE_RADII_DEFAULT.tolist())),
}


def _refuse_unknown(what: str, obj: dict, known: set) -> None:
    if set(obj) - known:
        raise ConfigError(f"unknown {what} keys: {sorted(set(obj) - known)}")


def load_config(path: str | Path, threads: int = 1) -> JobConfig:
    """Parse and validate a JSON job config.  `_OPTIONAL_KEYS` gives the
    optional keys, their parsing and defaults; null for one of them is an
    error.  `threads` does nothing: `perfbench/job.py` passes `threads=1`,
    and the next benchmark revision removes the keyword."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _refuse_unknown("config", raw, {"group", "generators", "max_word_length", "analyses",
                                    *_OPTIONAL_KEYS})

    group = raw.get("group")
    if not isinstance(group, dict) or "factors" not in group:
        raise ConfigError("config needs group.factors")
    _refuse_unknown("group", group, {"factors", "arithmetic"})
    factors = group["factors"]
    if not isinstance(factors, list):
        raise ConfigError("group.factors must be a list")
    for f in factors:
        if not isinstance(f, dict):
            raise UnsupportedGroupError(f"unsupported factor {f!r}")
        _refuse_unknown("factor", f, {"type", "n"})
    arithmetic = group.get("arithmetic", "exact-int")
    if arithmetic not in ARITHMETIC_MODES:
        raise ConfigError(f"unknown arithmetic {arithmetic!r}; choose from {ARITHMETIC_MODES}")
    spec = GroupSpec(tuple(Factor(f.get("type"), f.get("n")) for f in factors), arithmetic)

    gens_raw = raw.get("generators", [])
    if not isinstance(gens_raw, list):
        raise ConfigError("generators must be a list")
    generators = [_parse_element(spec, g, f"generator {i}") for i, g in enumerate(gens_raw)]
    try:
        GeneratorSet(spec, tuple(generators))
    except ValueError as exc:
        raise ConfigError(f"generators: {exc}") from exc

    analyses = raw.get("analyses", ["orbit", "count", "exponent", "lambda0"])
    if not isinstance(analyses, list):
        raise ConfigError("analyses must be a list of names")
    for a in analyses:
        if not isinstance(a, str) or a not in ANALYSES:
            raise ConfigError(f"unknown analysis {a!r}; choose from {tuple(ANALYSES)}")

    max_word_length = raw.get("max_word_length", 0)
    if type(max_word_length) is not int or max_word_length < 0:
        raise ConfigError("max_word_length must be a non-negative integer")
    if generators and max_word_length < 1:
        raise ConfigError("max_word_length must be >= 1 for orbit-dependent analyses")

    options = {key: parse(key, raw[key], spec) if key in raw else default
               for key, (parse, default) in _OPTIONAL_KEYS.items()}
    base_x, base_y = options.pop("base_points")
    return JobConfig(spec=spec, generators=generators, max_word_length=max_word_length,
                     analyses=tuple(analyses), base_x=base_x, base_y=base_y, **options)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return _FLOAT_FMT % x
    return str(x)


def _check_out(out: Path) -> None:
    """Refuse an --out that cannot be made a directory, without creating
    it: its nearest existing path must be a directory this process may
    write into."""
    probe = out
    while not probe.exists():
        probe = probe.parent
    if not probe.is_dir():
        reason = "not a directory"
    elif not os.access(probe, os.W_OK | os.X_OK):
        reason = "permission denied"
    else:
        return
    raise ConfigError(f"--out {str(out)!r} is not a usable directory: {reason}")


def _create(path: Path):
    """Open `path` for writing, making its directory first: --out comes into
    being with the first file written to it, so a job that fails before
    then leaves nothing behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with _create(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _project(config, rs, ball, triple, out) -> None:
    rows = []
    for i, g in enumerate(GeneratorSet(config.spec, tuple(config.generators)).elements):
        h = cartan_projection(g)
        rows.append([i, *h.coords.tolist(), h.norm, float(rs.polyhedral(h.coords))])
    header = ["generator_index"] + [f"coordinate_{k}" for k in range(rs.ambient_dim)]
    header += ["d_riemannian", "d_polyhedral"]
    _write_csv(out / "projections.csv", header, rows)


def _orbit(config, rs, ball, triple, out) -> None:
    _write_csv(out / "orbit_levels.csv", ["word_length", "count"],
               list(enumerate(ball.growth_per_level)))


def _count(config, rs, ball, triple, out) -> None:
    for kind in (KIND_RIEMANNIAN, KIND_POLYHEDRAL, KIND_MIXED):
        s = (config.mixed_s or rs.rho_norm) if kind == KIND_MIXED else None
        curve = counting_curve(ball, rs, kind, s=s, x=config.base_x, y=config.base_y,
                               radii_step=config.radii_step)
        rows = [[r, int(c), curve.complete] for r, c in zip(curve.radii, curve.counts)]
        _write_csv(out / f"counting_{kind}.csv", ["radius", "count", "complete"], rows)


def _partial_sums(config, rs, ball, triple, out) -> None:
    rows = []
    for kind in (KIND_RIEMANNIAN, KIND_POLYHEDRAL, KIND_MIXED):
        for mult in (0.5, 1.0, 1.5, 2.0):
            s = mult * rs.rho_norm
            sums = level_partial_sums(ball, rs, kind, s, config.base_x, config.base_y)
            rows += [[kind, s, lvl, v] for lvl, v in enumerate(sums)]
    _write_csv(out / "partial_sums.csv", ["kind", "s", "level", "partial_sum"], rows)


def _volume(config, rs, ball, triple, out) -> dict:
    if rs.rank > 3:
        raise NumericalError("volume quadrature supports rank <= 3")
    rows, fits = [], {}
    for family in ("polyhedral", "classical"):
        for regime, radii in (("small", config.volume_radii_small),
                              ("large", config.volume_radii_large)):
            try:
                fit = fit_ball_volume(rs, family, regime, np.asarray(radii))
            except ValueError as exc:
                raise ConfigError(f"volume_radii_{regime}: {exc}") from exc
            fits[f"{family}_{regime}"] = {
                "exponential_rate": fit.fitted_exponential_rate,
                "polynomial_degree": fit.fitted_polynomial_degree,
            }
            rows += [[family, regime, r, math.exp(lv)]
                     for r, lv in zip(fit.radii, fit.log_volumes)]
    _write_csv(out / "volumes.csv", ["family", "regime", "radius", "volume"], rows)
    return {"volume_fits": fits}


def _green(config, rs, ball, triple, out) -> dict:
    zetas = config.green_zetas
    if zetas is None:
        crit = triple.delta_second.value - rs.rho_norm
        zetas = ([max(crit + d, 0.01) for d in (-0.2, -0.1, 0.0, 0.1, 0.2)]
                 if crit > 0.05 else [0.1, 0.5, 1.0])
    zetas = list(dict.fromkeys(zetas))  # a config or two floored defaults may repeat one
    rows, summary = [], []
    for diag in green_series_diagnostic(ball, rs, zetas, x=config.base_x, y=config.base_y):
        rows += [[diag.zeta, lvl, v, diag.verdict] for lvl, v in enumerate(diag.partial_sums)]
        summary.append({"zeta": diag.zeta, "verdict": diag.verdict,
                        "trend_slope": _json_safe(diag.trend_slope)})
    _write_csv(out / "green_series.csv", ["zeta", "level", "partial_sum", "verdict"], rows)
    return {"green": summary}


def _heatbound(config, rs, ball, triple, out) -> dict:
    """Case i below ||rho||, case ii below 2||rho||, each with case iii; at
    the lattice endpoint 2||rho|| no case applies."""
    rho, x, y = rs.rho_norm, config.base_x, config.base_y
    ds = min(max(triple.delta_second.value, 0.0), 2 * rho)
    rows = []
    if ds < 2 * rho:
        if ds < rho:
            s = 0.5 * (ds + rho)
            case, params, cols = "i", {"s": s}, [s, "", ""]
            p = poincare_partial_sum(ball, rs, KIND_MIXED, s, x, y)
        else:
            gap = rho - (ds - rho)
            s1, s2 = ds - rho + 0.25 * gap, ds - rho + 0.75 * gap
            case, params, cols = "ii", {"s1": s1, "s2": s2}, ["", s1, s2]
            p = poincare_partial_sum(ball, rs, KIND_MIXED, rho + s1, x, y)
        s3, eps = ds + 0.25, 0.05
        px = poincare_partial_sum(ball, rs, KIND_MIXED, s3, x, x)
        py = poincare_partial_sum(ball, rs, KIND_MIXED, s3, y, y)
        for t in config.heat_times:
            val = heat_bound(rs, case, t=t, delta_second=ds, psecond=p, **params)
            rows.append([case, t, *cols, "", "", val])
            val = heat_bound(rs, "iii", t=t, delta_second=ds, s=s3, eps=eps,
                             psecond_x=px, psecond_y=py)
            rows.append(["iii", t, s3, "", "", eps, "", val])
    _write_csv(out / "heat_bounds.csv",
               ["case", "t", "s", "s1", "s2", "eps", "pseudo_dim", "value"], rows)
    return {"heat_bounds": len(rows)}


# Every analysis a config can request, run in this order.  Each writes its
# CSVs and returns its report entries, if it has any; lambda0 does neither,
# because the report always carries the exponents and the spectrum.
ANALYSES = {
    "project": _project,
    "orbit": _orbit,
    "count": _count,
    "exponent": _partial_sums,
    "lambda0": lambda config, rs, ball, triple, out: None,
    "volume": _volume,
    "green": _green,
    "heatbound": _heatbound,
}


def run(config: JobConfig, out_dir: str | Path = ".") -> int:
    """Execute the configured analyses and write report.json plus CSVs."""
    out = Path(out_dir)
    _check_out(out)

    rs = build_root_system(config.spec)
    report: dict = {
        "group": {
            "factors": [{"type": f.type, "n": f.n} for f in config.spec.factors],
            "arithmetic": config.spec.arithmetic,
        },
        "parameters": {
            "max_word_length": config.max_word_length,
            "radii_step": config.radii_step,
            "window_fraction": config.window_fraction,
        },
        "rho_norm": rs.rho_norm,
        "rho_min": rs.rho_min,
        "analyses_run": sorted(set(config.analyses)),
    }

    # probing one level proves the trivial group exhausted
    ball = enumerate_ball(GeneratorSet(config.spec, tuple(config.generators)),
                          max(config.max_word_length, 1), config.max_elements)
    report["orbit"] = {
        "size": len(ball),
        "levels": ball.growth_per_level,
        "exhausted": ball.exhausted,
        "trust_radius": _json_safe(trust_radius(ball, rs)),
    }

    try:
        triple = exponent_triple(ball, rs, x=config.base_x, y=config.base_y,
                                 radii_step=config.radii_step,
                                 window_fraction=config.window_fraction)
    except ValueError as exc:
        raise ConfigError(
            f"cannot fit exponents over this orbit ball ({exc}); "
            f"increase max_word_length or decrease radii_step"
        ) from exc
    report["exponents"] = {
        "delta": asdict(triple.delta),
        "delta_second": asdict(triple.delta_second),
        "delta_prime": asdict(triple.delta_prime),
        "ordered": triple.ordered(),
        "mixed_bisection_diagnostic": delta_second_bisection(ball, rs),
    }
    report["spectrum"] = asdict(consistency_check(
        rs.rho_norm, rs.rho_min, triple.delta.value, triple.delta_prime.value,
        triple.delta_second.value))

    for name, analysis in ANALYSES.items():
        if name in config.analyses:
            report.update(analysis(config, rs, ball, triple, out) or {})

    with _create(out / "report.json") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, the code of an unsupported group
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="orbispec",
        description="Critical exponents of orbit growth and the bottom of the "
                    "L2 spectrum for discrete subgroups of SL(n,R) products.",
        epilog=_HELP_EPILOG % " ".join(ANALYSES),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", required=True, help="path to the JSON job config")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    args = parser.parse_args(argv)

    try:
        return run(load_config(args.config), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedGroupError as exc:
        print(f"unsupported group: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_GROUP
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
