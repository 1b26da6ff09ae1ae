"""End-to-end CLI runs: exit codes, report contents, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import orbispec
from orbispec import (KIND_MIXED, GeneratorSet, GroupElement, GroupSpec, build_root_system,
                      cli, enumerate_ball, exponents, pressure_exponent)
from orbispec.cartan import distance_riemannian
from orbispec.cli import ANALYSES, main
from orbispec.exponents import ExponentEstimate, ExponentTriple

from conftest import sanov_generators

SQRT2 = 2.0 ** 0.5


def write_config(tmp_path: Path, payload: dict, name: str = "job.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def sanov_config(**extra):
    cfg = {
        "group": {"factors": [{"type": "sl", "n": 2}], "arithmetic": "exact-int"},
        "generators": [
            [[[1, 2], [0, 1]]],
            [[[1, 0], [2, 1]]],
        ],
        "max_word_length": 8,
        "analyses": ["orbit", "count", "exponent", "lambda0"],
    }
    cfg.update(extra)
    return cfg


def test_trivial_config_reports_top_of_spectrum(tmp_path):
    cfg = write_config(tmp_path, {
        "group": {"factors": [{"type": "sl", "n": 2}], "arithmetic": "exact-int"},
        "generators": [],
        "max_word_length": 0,
        "analyses": ["lambda0"],
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    exps = report["exponents"]
    assert exps["delta"]["value"] == 0.0
    assert exps["delta_prime"]["value"] == 0.0
    assert exps["delta_second"]["value"] == 0.0
    assert report["spectrum"]["lambda0_exact"] == pytest.approx(0.5)
    assert report["spectrum"]["consistent"]


def test_single_involution_config_is_an_exhausted_group_of_order_two(tmp_path):
    """-I is its own inverse, so the generating set is one element paired
    with itself: the walk stops at level 2 with the ball {I, -I}."""
    cfg = write_config(tmp_path, {
        "group": {"factors": [{"type": "sl", "n": 2}], "arithmetic": "exact-int"},
        "generators": [[[[-1, 0], [0, -1]]]],
        "max_word_length": 3,
        "analyses": ["project", "orbit", "lambda0"],
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["orbit"]["levels"] == [1, 1]
    assert report["orbit"]["exhausted"] is True
    lines = (out / "orbit_levels.csv").read_text().splitlines()
    assert [line.split(",") for line in lines[1:]] == [["0", "1"], ["1", "1"]]
    assert len((out / "projections.csv").read_text().splitlines()) == 2  # header and -I
    for name in ("delta", "delta_prime", "delta_second"):
        assert report["exponents"][name]["value"] == 0.0


def test_congruence_group_run(tmp_path):
    cfg = write_config(tmp_path, sanov_config())
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # rank one: the three estimates coincide; at depth 8 the fit sits above
    # the asymptotic sqrt(2) but already inside its coarse neighborhood
    assert report["exponents"]["delta"]["value"] == pytest.approx(SQRT2, abs=0.35)
    assert report["exponents"]["ordered"]
    assert report["orbit"]["levels"][:3] == [1, 4, 12]
    for f in ["orbit_levels.csv", "counting_riemannian.csv",
              "counting_polyhedral.csv", "counting_mixed.csv", "partial_sums.csv"]:
        assert (out / f).exists(), f
    # report always carries the three theorem outputs and the verdict
    assert set(report["spectrum"]) >= {"lambda0_exact", "lambda0_interval",
                                       "inputs", "theorem_tags", "consistent"}
    stm = report["spectrum"]["statements"]
    assert set(stm) == {"characterization", "two_sided_interval", "polyhedral_lower"}
    lo, hi = stm["two_sided_interval"]
    assert lo - 1e-9 <= stm["characterization"] <= hi + 1e-9


def test_rerun_reproduces_outputs_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path, sanov_config(max_word_length=6))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_volume_green_heatbound_analyses(tmp_path):
    cfg = write_config(tmp_path, sanov_config(
        max_word_length=8,
        analyses=["project", "orbit", "count", "exponent", "lambda0",
                  "volume", "green", "heatbound"],
        volume_radii_large=[6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
    ))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "volume_fits" in report and "green" in report
    assert (out / "projections.csv").exists()
    assert (out / "volumes.csv").exists()
    assert (out / "green_series.csv").exists()
    assert (out / "heat_bounds.csv").exists()
    rate = report["volume_fits"]["polyhedral_large"]["exponential_rate"]
    assert rate == pytest.approx(2 / SQRT2, abs=0.1)  # 2 * ||rho|| for SL(2)


def test_volume_radii_that_cannot_determine_the_fit_are_a_config_error(tmp_path, capsys):
    """Three distinct radii too close together pass the config check, and
    the volume fit's own rank check refuses them."""
    cfg = write_config(tmp_path, sanov_config(
        max_word_length=4, analyses=["volume"],
        volume_radii_large=[10.0, 10.0 + 1e-9, 10.0 + 2e-9]))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "volume_radii_large" in err
    assert "rank" in err


@pytest.mark.parametrize("key, radii", [("volume_radii_large", [10.0]),
                                        ("volume_radii_large", [10.0, 20.0]),
                                        ("volume_radii_large", [10.0, 10.0, 10.0]),
                                        ("volume_radii_small", [0.1]),
                                        ("volume_radii_small", [0.1, 0.1])])
@pytest.mark.parametrize("analyses", [["project", "orbit", "count", "volume"], ["orbit"]])
def test_undeterminable_volume_radii_are_refused_before_any_work(tmp_path, capsys, key,
                                                                 radii, analyses):
    """Fewer distinct radii than a volume fit has coefficients (two small,
    three large) are refused as the config loads, whether or not volume
    runs: the job exits 1 naming the key and writes nothing to --out."""
    cfg = write_config(tmp_path, sanov_config(analyses=analyses, **{key: radii}))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert list(out.iterdir()) == []


def test_based_count_counts_every_ball_element(tmp_path):
    """<S, T^2> holds S, -S and -I, which fix the origin but not x: each
    count of counting_riemannian.csv at base point x is the number of ball
    elements gamma with d(xK, gamma K) <= R, none left out."""
    gens = [[[[0, 1], [-1, 0]]], [[[1, 2], [0, 1]]]]
    x = [[[2, 1], [1, 1]]]
    cfg = write_config(tmp_path, {
        "group": {"factors": [{"type": "sl", "n": 2}], "arithmetic": "exact-int"},
        "generators": gens, "max_word_length": 8, "radii_step": 0.1,
        "base_points": {"x": x}, "analyses": ["count"],
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0

    def element(blocks):
        return GroupElement(GroupSpec.sl(2), tuple(tuple(map(tuple, b)) for b in blocks))

    ball = enumerate_ball(GeneratorSet.from_elements(list(map(element, gens))), 8)
    dist = np.sort([distance_riemannian(ball.element(i), element(x))
                    for i in range(len(ball))])
    rows = [line.split(",") for line in
            (out / "counting_riemannian.csv").read_text().splitlines()[1:]]
    radii = np.array([float(r) for r, _, _ in rows])
    assert radii.size > 10
    assert np.abs(dist[:, None] - radii).min() > 1e-9  # no distance on a radius
    np.testing.assert_array_equal([int(c) for _, c, _ in rows],
                                  np.searchsorted(dist, radii, side="right"))


def test_default_green_zetas_are_distinct(tmp_path):
    """At crit = delta'' - ||rho|| = 0.08 two default zetas floor at 0.01:
    the job sums and writes that zeta once."""
    ball = enumerate_ball(sanov_generators(), 4)
    rs = build_root_system(ball.spec)
    est = ExponentEstimate(rs.rho_norm + 0.08, (0.0, 1.0), 0.0, complete=True)
    config = SimpleNamespace(green_zetas=None, base_x=None, base_y=None)
    summary = cli._green(config, rs, ball, ExponentTriple(est, est, est), tmp_path)["green"]
    assert [entry["zeta"] for entry in summary] == pytest.approx([0.01, 0.08, 0.18, 0.28])
    rows = (tmp_path / "green_series.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 * len(ball.growth_per_level)


def test_window_fraction_from_config(tmp_path):
    cfg = write_config(tmp_path, sanov_config(max_word_length=10, radii_step=0.1,
                                              window_fraction=0.75))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["parameters"]["window_fraction"] == 0.75
    for kind in ("delta", "delta_second", "delta_prime"):
        assert report["exponents"][kind]["window"] == pytest.approx([3.15, 4.2]), kind


def test_heatbound_rows_below_the_endpoint(tmp_path):
    """A convergent-regime group (delta_second < ||rho||) produces case i
    and case iii rows; at the lattice endpoint no case applies."""
    e = 2.718281828459045
    cfg = write_config(tmp_path, {
        "group": {"factors": [{"type": "sl", "n": 2}], "arithmetic": "float"},
        "generators": [[[[e, 0.0], [0.0, 1.0 / e]]]],
        "max_word_length": 20,
        "analyses": ["exponent", "lambda0", "heatbound"],
        "heat_times": [1.0, 2.0],
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "heat_bounds.csv").read_text().splitlines()
    cases = [row.split(",")[0] for row in lines[1:]]
    assert cases == ["i", "iii", "i", "iii"]
    values = [float(row.split(",")[-1]) for row in lines[1:]]
    assert all(v > 0 for v in values)


def test_malformed_generator_exits_1(tmp_path, capsys):
    bad = sanov_config()
    bad["generators"][1] = [[[2, 0], [0, 2]]]  # det 4
    cfg = write_config(tmp_path, bad)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "generator 1" in err


@pytest.mark.parametrize("factors", [
    [{"type": "sp", "n": 4}], [{"type": "so", "n": 3}], [{"n": 2}],
    [{"type": "sl", "n": True}], [{"type": "sl", "n": 2.0}], [{"type": "sl", "n": 1}],
    [], [3],
], ids=["sp", "so", "no-type", "n-true", "n-float", "n-1", "empty", "not-an-object"])
def test_unsupported_group_exits_2(tmp_path, factors):
    cfg = write_config(tmp_path, {
        "group": {"factors": factors},
        "generators": [],
        "max_word_length": 0,
        "analyses": ["lambda0"],
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_volume_rank_cap_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"factors": [{"type": "sl", "n": 2}] * 4},
        "generators": [],
        "max_word_length": 0,
        "analyses": ["volume"],
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "volume quadrature supports rank <= 3" in capsys.readouterr().err


def test_volume_past_float64_exits_4(tmp_path, capsys):
    """exp(2 ||rho|| r) overflows float64 at each radius: the job fails
    rather than write inf volumes and a NaN rate."""
    out = tmp_path / "o"
    cfg = write_config(tmp_path, sanov_config(
        max_word_length=4, analyses=["volume"], volume_radii_large=[600, 700, 800]))
    assert main(["--config", str(cfg), "--out", str(out)]) == 4
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_resource_cap_exits_3(tmp_path):
    for cap in (50, 50.0):  # JSON may spell an integer as a float
        cfg = write_config(tmp_path, sanov_config(max_elements=cap))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_radii_cap_exits_3(tmp_path, monkeypatch, capsys):
    # a small cap stands in for a radii_step so fine that the radii would not
    # fit in memory; such a config must never run without the cap
    monkeypatch.setattr(exponents, "MAX_RADII", 10)
    cfg = write_config(tmp_path, sanov_config(radii_step=0.1))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "radii" in capsys.readouterr().err


def test_cyclic_ball_with_base_point_exits_0(tmp_path):
    # x^-1 gamma reaches entries near 1e9, where ad - bc in float64 cancels
    cfg = write_config(tmp_path, {
        "group": {"factors": [{"type": "sl", "n": 2}]},
        "generators": [[[[3, 8], [1, 3]]]],
        "max_word_length": 12,
        "base_points": {"x": [[[2, 1], [1, 1]]]},
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("generator, depth", [
    ([[1e8, 0.0], [0.0, 1e-8]], 4),
    ([[1, 10**14], [0, 1]], 12),  # integral, on big ints from the start
    ([[3, 8], [1, 3]], 30),  # integral, on int rows
], ids=["quantized", "integral-generic-walk", "integral-int-rows"])
def test_numerical_overflow_exits_4(tmp_path, capsys, generator, depth):
    # float-mode entries blow past 1e15 during enumeration
    cfg = write_config(tmp_path, {
        "group": {"factors": [{"type": "sl", "n": 2}], "arithmetic": "float"},
        "generators": [[generator]],
        "max_word_length": depth,
        "analyses": ["orbit", "count", "exponent", "lambda0"],
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "entry-overflow in float mode" in capsys.readouterr().err


def test_bad_json_and_unknown_keys_exit_1(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["--config", str(broken), "--out", str(tmp_path / "o")]) == 1
    cfg = write_config(tmp_path, dict(sanov_config(), typo_key=1))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    # too-shallow ball for the requested fits
    cfg = write_config(tmp_path, sanov_config(max_word_length=1))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    # values that are not positive numbers, or not positive integers; empty
    # lists; an unknown arithmetic mode; null for any optional key
    for bad in ({"mixed_s": -1}, {"mixed_s": "abc"}, {"green_zetas": [0.0]},
                {"radii_step": "x"}, {"heat_times": [1.0, -2.0]},
                {"volume_radii_large": ["7"]}, {"window_fraction": "x"},
                {"max_elements": 0}, {"max_elements": 2.5}, {"analyses": [["orbit"]]},
                {"analyses": 5}, {"generators": [], "max_word_length": True},
                {"heat_times": []}, {"volume_radii_small": []}, {"volume_radii_large": []},
                {"window_fraction": 1.5},
                {"group": {"factors": [{"type": "sl", "n": 2}], "arithmetic": "bogus"}},
                # a generating set that GeneratorSet refuses; JSON booleans
                {"generators": [[[[1, 0], [0, 1]]]]},
                {"group": {"factors": [{"type": "sl", "n": 2}], "arithmetic": "float"},
                 "generators": [[[[True, 2], [0, True]]]]},
                *({key: None} for key in cli._OPTIONAL_KEYS)):
        capsys.readouterr()
        cfg = write_config(tmp_path, sanov_config(**bad))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1, bad
        assert capsys.readouterr().err.startswith("config error:"), bad


@pytest.mark.parametrize("argv", [["--config", "job.json", "--no-such-flag"], ["--out", "o"],
                                  ["--config", "job.json", "--threads", "2"],
                                  ["--config", "job.json", "--include-torsion-in-counting"]],
                         ids=["unknown-flag", "missing-config", "removed-threads-flag",
                              "removed-torsion-flag"])
def test_usage_errors_exit_1(argv, capsys):
    """Exit 2 is reserved for an unsupported group.  orbispec runs
    single-threaded, so --threads is no longer an option, and every count
    takes every element, so --include-torsion-in-counting is not either."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_help_lists_every_analysis(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert " ".join(ANALYSES) in capsys.readouterr().out


def test_help_names_every_config_key(capsys):
    """A key added to the config table without help text fails here."""
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for key in ["group", "generators", "max_word_length", "analyses", *cli._OPTIONAL_KEYS]:
        assert key in out, key


def test_base_points_accepted(tmp_path):
    cfg = write_config(tmp_path, sanov_config(
        max_word_length=11,
        radii_step=0.1,
        base_points={"x": [[[1, 2], [0, 1]]], "y": [[[1, 0], [2, 1]]]},
    ))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["exponents"]["delta"]["value"] > 0


@pytest.mark.parametrize("radii_step", [0.1, 0.02])
def test_fit_that_counts_no_orbit_point_exits_1(tmp_path, capsys, radii_step):
    """Gamma(2) at L=1 counts only the identity up to its trust radius: the
    exponent fits fail, so no lambda0 is reported."""
    cfg = write_config(tmp_path, sanov_config(max_word_length=1, radii_step=radii_step))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert "cannot fit exponents" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_short_balls_report_the_mixed_diagnostic(tmp_path, depth):
    """cli.run reports the pressure-zero diagnostic on balls of two to four
    levels past the identity without raising: the library's (1, w) zero
    over the levels the ball has.  A ball of one level fails its exponent
    fits first (test_fit_that_counts_no_orbit_point_exits_1)."""
    cfg = cli.load_config(write_config(tmp_path, sanov_config(max_word_length=depth,
                                                              radii_step=0.02)))
    assert cli.run(cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    ball = enumerate_ball(sanov_generators(), depth)
    expected = pressure_exponent(ball, build_root_system(ball.spec), KIND_MIXED).value
    assert report["exponents"]["mixed_bisection_diagnostic"] == expected
    assert expected > 0.0


def test_clipped_estimates_leave_notes(tmp_path):
    """The golden gamma2-all job fits delta = 1.5241 > 2||rho|| = sqrt(2):
    each clipped estimate leaves one note with its name, raw value and range
    beside its UserWarning."""
    cfg = write_config(tmp_path, sanov_config())
    with pytest.warns(UserWarning, match="clipping"):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    exps = report["exponents"]
    clipped = [name for name in ("delta", "delta_prime", "delta_second")
               if exps[name]["value"] > SQRT2]
    assert "delta" in clipped
    assert exps["delta"]["value"] == pytest.approx(1.5241, abs=1e-4)
    assert list(report["spectrum"]["notes"][:len(clipped)]) == [
        f"{name} estimate {exps[name]['value']:.6g} clipped into [0, {SQRT2:.6g}]"
        for name in clipped]


# Blocks scipy, imports orbispec, runs one step and prints whether
# numpy.polynomial got loaded.
IMPORT_PROBE = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import orbispec
from orbispec import cli
step = sys.argv[1]
if step == "help":
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
elif step == "run":
    assert cli.main(["--config", sys.argv[2], "--out", sys.argv[3]]) == 0
print("numpy.polynomial" in sys.modules)
"""


@pytest.mark.parametrize("step,analyses,loads_polynomial", [
    ("import", None, False),
    ("help", None, False),
    ("run", [a for a in ANALYSES if a != "volume"], False),
    ("run", list(ANALYSES), True),
], ids=["import", "help", "every-analysis-but-volume", "with-volume"])
def test_scipy_never_loaded_numpy_polynomial_only_for_volume(tmp_path, step, analyses,
                                                            loads_polynomial):
    """scipy is a test dependency only, so no step may import it.
    numpy.polynomial costs 2.5-5 ms to import and only the ball-volume
    quadrature uses it, so nothing else may load it.  Each case runs in a
    fresh interpreter, where sys.modules starts empty."""
    argv = [sys.executable, "-c", IMPORT_PROBE, step]
    out = tmp_path / "out"
    if analyses is not None:
        cfg = write_config(tmp_path, sanov_config(
            analyses=analyses, volume_radii_large=[6.0, 7.0, 8.0, 9.0, 10.0]))
        argv += [str(cfg), str(out)]
    src = str(Path(orbispec.__file__).resolve().parents[1])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loads_polynomial)
    if analyses is not None:
        assert (out / "report.json").exists()
        assert (out / "volumes.csv").exists() == ("volume" in analyses)
