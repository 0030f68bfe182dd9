"""Golden outputs: SHA-256 digests of deterministic CLI outputs.

`curves --no-timestamp`, `critical` and `simulate` for a fixed (seed, shards)
must stay byte-identical across refactors of the program. A change that moves
one of them on purpose re-pins its digest here and says why in CHANGES.md.
To print the current digests: ``python tests/test_golden.py``.
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mub_eve.cli import main

CURVES = {(3, 2): "0.6", (3, 3): "0.6", (4, 2): "0.7", (8, 2): "0.85"}
# (d, k) -> (d_min, d_max) of 101-step curves up to the top of the D range,
# where the (5, 2) row at D = 4/5 has w_bar = 0.
EDGE_CURVES = {(3, 3): ("0.05", "0.6666666666666666"), (5, 2): ("0", "0.8")}
CRITICAL = [(d, 2) for d in (2, 3, 4, 5, 8, 16)] + [(3, 3)]
SIMULATE = {(3, 2): ("0.1", 4), (3, 3): ("0.15", 2), (8, 2): ("0.2", 3), (16, 2): ("0.1", 1)}
# Small sessions that reach the estimators' edge branches: an empty receiver-error
# regime at D = 0, fewer rounds than cells, and a single round, which leaves one
# basis without rounds and the information standard errors at their n <= 1 branch.
# name -> (d, D, rounds, seed, shards), all with two bases.
SIMULATE_EDGE = {
    "simulate-5-2-no-error": (5, "0", 1000, 42, 1),
    "simulate-4-2-7-rounds": (4, "0.3", 7, 42, 3),
    "simulate-3-2-1-round": (3, "0.1", 1, 0, 1),
}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv; ``{out}`` marks the output file, absent when stdout is the output."""
    cases = {}
    for (d, k), d_max in CURVES.items():
        for fmt in ("csv", "json"):
            cases[f"curves-{d}-{k}-{fmt}"] = [
                "curves", "--dim", str(d), "--bases", str(k), "--d-max", d_max, "--steps", "41",
                "--format", fmt, "--no-timestamp", "--out", "{out}",
            ]
    for (d, k), (d_min, d_max) in EDGE_CURVES.items():
        for fmt in ("csv", "json"):
            cases[f"curves-{d}-{k}-edge-{fmt}"] = [
                "curves", "--dim", str(d), "--bases", str(k), "--d-min", d_min, "--d-max", d_max,
                "--steps", "101", "--format", fmt, "--no-timestamp", "--out", "{out}",
            ]
    for d, k in CRITICAL:
        cases[f"critical-{d}-{k}"] = ["critical", "--dim", str(d), "--bases", str(k)]
    for (d, k), (disturbance, shards) in SIMULATE.items():
        cases[f"simulate-{d}-{k}"] = [
            "simulate", "--dim", str(d), "--bases", str(k), "--disturbance", disturbance,
            "--rounds", "1000000", "--seed", "42", "--shards", str(shards), "--out", "{out}",
        ]
    for name, (d, disturbance, rounds, seed, shards) in SIMULATE_EDGE.items():
        cases[name] = [
            "simulate", "--dim", str(d), "--bases", "2", "--disturbance", disturbance,
            "--rounds", str(rounds), "--seed", str(seed), "--shards", str(shards), "--out", "{out}",
        ]
    return cases


CASES = _cases()

DIGESTS = {
    "curves-3-2-csv": "ebac90a45e86c367690d9be6246a172ac68c823196d229b8b4943d3d5247e899",
    "curves-3-2-json": "228f90339500678a85309db3f4f875ed03c7600b3d3f25e393afc9c97d524ae4",
    "curves-3-3-csv": "26fb219c79ad54ef2b1571c9be47def78059adaae472e863e413bf69689a4534",
    "curves-3-3-json": "d875edab0a2400499d315811c7cf7894f22e9e1768a1cdf704a3f4c653c05df0",
    "curves-4-2-csv": "6efd5c90ae558cdd740d229a7c5eff8b437e09da21322ef7e5ae1678128d1b98",
    "curves-4-2-json": "a5ac5703aefe17ee2655ae751515c3b96f6601a490ba18b0e278cce8ceab8f7e",
    "curves-8-2-csv": "e2d9db91273c0b5ab48ac5769f7d403a13fcab9dbfbd8d5c105c2ff685151cee",
    "curves-8-2-json": "c016842bab81df6bc8f71a8db384b5e128afebaa8e9edf6bca30489e0f1c09c8",
    "curves-3-3-edge-csv": "f935c9281732e7a8b97a6031ad92027ca345cbbf9b2ab0649e2ced7acda5b5c5",
    "curves-3-3-edge-json": "3cdf4c95663b1af1d16b950f6ce186e7e66372f874c1020b5ab1b080afc36c4d",
    "curves-5-2-edge-csv": "7a40dd8423a80519652124c7f9a6d220c7a0112192b35f43d8db2bf225aca004",
    "curves-5-2-edge-json": "2478228eb300263fdf232627fb8e443895637a454dcd88882c7aff0b7e76ee23",
    "critical-2-2": "19072ff7d14db1404586800d9b6f1695e453d2527ce1f687146e2a7e9aa805b6",
    "critical-3-2": "d4944115a8896aee0ae369eb13448adea92fef59ac798f77fd0a635467dbad23",
    "critical-4-2": "c8a35c93750e9615eca8a510db4983a68f6067deeb019b72f52e232fb0b71620",
    "critical-5-2": "2ea7cc07075db16222027acd5a673512d40a348e2570f7c99650f4496b2e7987",
    "critical-8-2": "d90645b1a585a321197834cefe34fa2f78fe37c5c7c691de17a1fe29b08f9838",
    "critical-16-2": "13b01b89766ff1109121bb625fe113b21d5254cfff1dbb26e4e9bce8acf0dfae",
    "critical-3-3": "098eaa0b5f366fe654d47b3c3d42a41baa64a44236ed30c84d0a788e30e36a91",
    "simulate-3-2": "25a0d9e682677cf4d22e3f59c25b66da89c5085015955d0bcd5d580f9e509ff7",
    "simulate-3-3": "24cc594ea1d98d57725bb59254350cc3be36dd21354bdbad82a3d5f15101fbea",
    "simulate-8-2": "a55dec05e13dec4950fc96a692283fcf74bf9757d76791acb9718d68b939900c",
    "simulate-16-2": "7e3d57357fa6dda4d4c5c5176920f1eaf6a192b18b1ddc3620bacbd77891bea4",
    "simulate-5-2-no-error": "df9866af8e60be21847cf35b9163e7450b0c594f377aa3dc53f7840a967ca95e",
    "simulate-4-2-7-rounds": "bbb6de8d6c1a83051933c924aa01f100018aa6ef282161d8a08396eb33349341",
    "simulate-3-2-1-round": "e09587b84c2705968230ab95b34c823b97f9abb0c60f029421eaef283856e5f7",
}


def output_digest(argv: list[str], directory: Path) -> str:
    """SHA-256 of the command's output file, or of its stdout if it writes none."""
    out = directory / "out"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main([str(out) if arg == "{out}" else arg for arg in argv])
    assert code == 0
    data = out.read_bytes() if "{out}" in argv else stdout.getvalue().encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_output_is_byte_identical(name, tmp_path):
    assert output_digest(CASES[name], tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            sys.stdout.write(f'    "{name}": "{output_digest(argv, Path(tmp))}",\n')
