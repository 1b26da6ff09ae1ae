"""Golden outputs: small fixed CLI jobs must write the same bytes as
recorded.  Each case pins the sha256 of every file the job writes.
Together the cases run all eight analyses, base points (x, y), a group with
torsion, whose counts take every element, float SL(3), and heat-bound cases
i, ii and iii.  CHANGES.md says when and why each digest was re-recorded."""

import hashlib
import json
from pathlib import Path

import pytest

from orbispec.cli import main

SL2 = {"factors": [{"type": "sl", "n": 2}], "arithmetic": "exact-int"}
GAMMA2 = [[[[1, 2], [0, 1]]], [[[1, 0], [2, 1]]]]
# Sym^2 of the Gamma(2) generators: a free group in SL(3), as in the benchmark
SYM2_GAMMA2 = [[[[1, 2, 4], [0, 1, 4], [0, 0, 1]]], [[[1, 0, 0], [4, 1, 0], [4, 2, 1]]]]

CASES = {
    "gamma2-all": {
        "group": SL2, "generators": GAMMA2, "max_word_length": 8,
        "analyses": ["project", "orbit", "count", "exponent", "lambda0",
                     "volume", "green", "heatbound"],
        "volume_radii_large": [6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
    },
    "gamma3-heat-ii": {
        "group": SL2, "generators": [[[[1, 3], [0, 1]]], [[[1, 0], [3, 1]]]],
        "max_word_length": 8, "mixed_s": 0.5, "green_zetas": [0.2, 0.6],
        "heat_times": [1.0, 3.0],
        "analyses": ["orbit", "count", "exponent", "lambda0", "green", "heatbound"],
    },
    "gamma2-base-xy": {
        "group": SL2, "generators": GAMMA2, "max_word_length": 8, "radii_step": 0.1,
        "base_points": {"x": [[[2, 1], [1, 1]]], "y": [[[1, 0], [2, 1]]]},
        "analyses": ["project", "orbit", "count", "exponent", "lambda0", "green",
                     "heatbound"],
    },
    "torsion": {
        "group": SL2, "generators": [[[[0, 1], [-1, 0]]], [[[1, 2], [0, 1]]]],
        "max_word_length": 7, "analyses": ["orbit", "count", "exponent", "lambda0"],
    },
    "sl3-float": {
        "group": {"factors": [{"type": "sl", "n": 3}], "arithmetic": "float"},
        "generators": SYM2_GAMMA2, "max_word_length": 8,
        "analyses": ["project", "orbit", "count", "exponent", "lambda0", "green",
                     "heatbound"],
    },
}

DIGESTS = {
    "gamma2-all": {
        "counting_mixed.csv":
            "b7126ed813d4bc0643f77afccb1af227ee30216594cc03e402e60ce3d05b648b",
        "counting_polyhedral.csv":
            "d73192639941c4de564ac4a9c5dbb7e2ad7a637bf4ef100218749a528e32d19a",
        "counting_riemannian.csv":
            "d73192639941c4de564ac4a9c5dbb7e2ad7a637bf4ef100218749a528e32d19a",
        "green_series.csv":
            "0f64f6a07db22ecb17bbafd94078a7d50d7a8403f4a73367d28231e5c29776d2",
        "heat_bounds.csv":
            "df85715b2deea18ebf3312a0b3e6a1d2600909799a746ff624cec1127542f45a",
        "orbit_levels.csv":
            "ebeb73a2722c8b7b4d27efb3bda4373dd76eb4cbea205bc5de3b6ccbb2a551c4",
        "partial_sums.csv":
            "bd766566c24af63187d12baa42c685ff1a16d955e91a5994f710dfd2ebf8ee3b",
        "projections.csv":
            "017deb4115d1758ac8620c18e6f3881d7517201a3750efba36b941fc3e89e63c",
        "report.json":
            "f262b6e9f7f8127438d24ccd52b60e0b0dba418ded60dd5ec2cd556841bd99b7",
        "volumes.csv":
            "b731f7cd08e4d5877866f4d11622a292701a9a7dcf3bb1bb2a2f4729b6df78c6",
    },
    "gamma2-base-xy": {
        "counting_mixed.csv":
            "92743110cc2e130f0cbcf225d09919f985776ea431aa6b274edae5039d85c854",
        "counting_polyhedral.csv":
            "d3c01c923ba6963739e385cb4acd44798276ce73a40215c1a8a9199f2f671c22",
        "counting_riemannian.csv":
            "d3c01c923ba6963739e385cb4acd44798276ce73a40215c1a8a9199f2f671c22",
        "green_series.csv":
            "994e6f25d321db25b094553d683f5474cdca515c0ede41e04354caba46bb1756",
        "heat_bounds.csv":
            "bf92862622a36e36f054d516d9910fc8d110ed8f0a07520a0592c5751c60fa2c",
        "orbit_levels.csv":
            "ebeb73a2722c8b7b4d27efb3bda4373dd76eb4cbea205bc5de3b6ccbb2a551c4",
        "partial_sums.csv":
            "52eefcb88068917784211e2e21c346a4a6197466530eb4f60cdb9e6f90a2a106",
        "projections.csv":
            "017deb4115d1758ac8620c18e6f3881d7517201a3750efba36b941fc3e89e63c",
        "report.json":
            "581c73ee1c671893480ee81447c01a0d0aec97d1b99462fa661a2b3f8bfbf29c",
    },
    "gamma3-heat-ii": {
        "counting_mixed.csv":
            "caafab94f580221400fd251b95169fe7c6cbc7d59414adbd338a1cb18b3aabd5",
        "counting_polyhedral.csv":
            "d7663e52ed0d7f8d986bfc960e15e1361ee30b48308ada929395247b9c9768a9",
        "counting_riemannian.csv":
            "d7663e52ed0d7f8d986bfc960e15e1361ee30b48308ada929395247b9c9768a9",
        "green_series.csv":
            "dc011f3fefd632bd401b7987cec03d608fef01c0627942c0cd0ba1f10ab2e2e6",
        "heat_bounds.csv":
            "0784660025f8ef7e2749fb998deb00b212237feb196e322f71aa59bf07f968a8",
        "orbit_levels.csv":
            "ebeb73a2722c8b7b4d27efb3bda4373dd76eb4cbea205bc5de3b6ccbb2a551c4",
        "partial_sums.csv":
            "5d213ad419407edb36fd8068bd0ecf6d13d46e2828f7b17b1e603b60d3b40b8f",
        "report.json":
            "6e7bec4cdd048d0167a474265a42ca1fbee1bd1f23e4f5d40922d971ea4a2c05",
    },
    "sl3-float": {
        "counting_mixed.csv":
            "6b0d905919aae4bb4cc9f90aceaee774526d537f738c0c13d5aa45bdcc2053b9",
        "counting_polyhedral.csv":
            "fa8817d7f52b77f6dbcd1e2cd3f26c2b33dc5c42abac5f41a1c62eabf2770151",
        "counting_riemannian.csv":
            "97654a0b8a5a073ab57e91122e972b5be01d4de6bdf1b5f9503dbe57ff4d5481",
        "green_series.csv":
            "c9df084648c69c19cc4d2394a7109b02b578282ee93d925a1a812f2e0bca3837",
        "heat_bounds.csv":
            "235b1a35b36fa41d19f03a073edd170bb4bc86cf9804fa2c38dbce25d9a89a10",
        "orbit_levels.csv":
            "ebeb73a2722c8b7b4d27efb3bda4373dd76eb4cbea205bc5de3b6ccbb2a551c4",
        "partial_sums.csv":
            "805a25ee6cfb75cc4556dadcc1354ec37ebc37b672cab8677570aa688a63588f",
        "projections.csv":
            "54a6e6a86582fa9cc97e4bd9d98650dce2dec86cca8f5221c20c59000c67dca0",
        "report.json":
            "ab0f76c2a8e769ebbd7ed13f2b4967e90f0cfeee7b6ad6569acd2518b533a0f4",
    },
    "torsion": {
        "counting_mixed.csv":
            "3a916510be5fe617cb9320968a0d30bccb68ced8faa3d120ad315da209f0747a",
        "counting_polyhedral.csv":
            "ef90447548fe68f6cf7fc7b5cf7a9647fc9c763eb6f8f8077221c78acb8c63a4",
        "counting_riemannian.csv":
            "ef90447548fe68f6cf7fc7b5cf7a9647fc9c763eb6f8f8077221c78acb8c63a4",
        "orbit_levels.csv":
            "dc01dfe5ea1f8dee2e3f8bd11956825552d9b44b2a55e9df34b5648838da8a26",
        "partial_sums.csv":
            "d9ba6ef8fb7486f3e23b34cad73658e0b2664ba0e7d70f7694599339893668c5",
        "report.json":
            "37f16fb67e2850f3196a1826882ede416f80db2120101247940bda0a5ec8a4a6",
    },
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(tmp_path, name):
    config = CASES[name]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    parameters = json.loads((out / "report.json").read_text())["parameters"]
    assert not {"seed", "threads", "include_torsion_in_counting"} & set(parameters)
    got = {p.name: sha256(p) for p in sorted(out.iterdir())}
    assert got == DIGESTS[name]
