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
    "curves-3-3-csv": "9337eb76bf9730aa01a99a13b394b2a6c48769f15f49924f33c0ac56938f7d13",
    "curves-3-3-json": "403507230e47abb83fa26e7ce106f5cc94e04d0754017bf56c4940384bbba168",
    "curves-4-2-csv": "6efd5c90ae558cdd740d229a7c5eff8b437e09da21322ef7e5ae1678128d1b98",
    "curves-4-2-json": "a5ac5703aefe17ee2655ae751515c3b96f6601a490ba18b0e278cce8ceab8f7e",
    "curves-8-2-csv": "e2d9db91273c0b5ab48ac5769f7d403a13fcab9dbfbd8d5c105c2ff685151cee",
    "curves-8-2-json": "c016842bab81df6bc8f71a8db384b5e128afebaa8e9edf6bca30489e0f1c09c8",
    "curves-3-3-edge-csv": "5d3ec223677f9c14e9f7c9e0c8e7b79b0475889d519e061a5750369342af7a39",
    "curves-3-3-edge-json": "305ff481281f896c51d116daafb7b7334d3235bed9dd22bf2fc3cc22f8b03a4f",
    "curves-5-2-edge-csv": "7a40dd8423a80519652124c7f9a6d220c7a0112192b35f43d8db2bf225aca004",
    "curves-5-2-edge-json": "2478228eb300263fdf232627fb8e443895637a454dcd88882c7aff0b7e76ee23",
    "critical-2-2": "d156ca611d20c24adffdd4627bd17af88906b7ba46d0ddb1f2e0bd56722c9439",
    "critical-3-2": "2c241cecc6d65d7bb0f29c8a8965d3b73a0767194002089a2ce1be55388467d8",
    "critical-4-2": "00e51bee65ebc48b24b8764aa2456ff54131aae907de5df9e348175d947d909b",
    "critical-5-2": "aed5fd1293ef6f61eec4e80ecef4ac1c6599b821fc134d4c192e5310acade260",
    "critical-8-2": "59cdd6d8142b4e3c34dfaa8f2fde2a30883a2aaba9f45a81449ae8240d1624d3",
    "critical-16-2": "a929a872b826333be90f9eb54836b201ebf42e52fc9030d7e717805b7fe510d9",
    "critical-3-3": "49bbaf96278685ed16307f6dc44ce4c49a1741de798109f68b6bfc58d306c622",
    "simulate-3-2": "e22638761227dbca28232a5249a08eb27120afdc83ad966453ce616c35d2886e",
    "simulate-3-3": "9a7966f28282645002a9b47c318f2a87659e7c3470aed43c656e7c7a70e5ec6a",
    "simulate-8-2": "1c3820201c3b67ba18323e297fb41053a127ad0b16761b9f83df748e6fe7815a",
    "simulate-16-2": "657d736671b38728315df358bad82cc806a1eca0f30c0cf8aabd71d0837b19ec",
    "simulate-5-2-no-error": "29b155ae6644ae8bf7c6ce8aab02f6a73d61b4836f3552b601e02cd8c7e971d5",
    "simulate-4-2-7-rounds": "7c9ee1ac623bed8b54b5fc58f00c832809159c389a37b6de0a5e3be21de049af",
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
