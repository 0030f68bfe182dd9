import argparse
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mub_eve.bases as bases_mod
import mub_eve.cli as cli
from mub_eve import AnalysisError
from mub_eve.cli import CSV_HEADER, _json_text, build_parser, fmt, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == CSV_HEADER
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def test_fmt_contract():
    assert fmt(0.0) == "0"
    assert fmt(0.25) == "0.25"
    assert "e" in fmt(3.2e-5)
    for x in (0.2113248654051871, 1.0, 7.5e-5, -0.109596, 123.456):
        assert float(fmt(x)) == pytest.approx(x, rel=1e-11)


def test_curves_csv_structure_and_crossing(tmp_path, capsys):
    out = tmp_path / "qutrit.csv"
    code, stdout, _ = run(
        capsys,
        "curves", "--dim", "3", "--bases", "2", "--d-min", "0", "--d-max", "0.5",
        "--steps", "101", "--out", str(out), "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 101
    d_vals = [r[0] for r in rows]
    assert all(b > a for a, b in zip(d_vals, d_vals[1:]))
    assert not any(math.isnan(v) for row in rows for v in row)
    # bits columns are the dits columns scaled by log2(3)
    for row in rows:
        assert row[4] == pytest.approx(row[2] * math.log2(3), abs=1e-9)
        assert row[5] == pytest.approx(row[3] * math.log2(3), abs=1e-9)
    # unique crossing bracketing the critical disturbance
    gaps = [r[3] - r[2] for r in rows]
    signs = [s for s in (np.sign(g) if abs(g) > 1e-9 else 0 for g in gaps) if s != 0]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1
    k = max(i for i, g in enumerate(gaps) if g < -1e-9)
    assert d_vals[k] < 0.2113248654 < d_vals[k + 2]


def test_curves_deterministic_without_timestamp(tmp_path, capsys):
    args = [
        "curves", "--dim", "3", "--bases", "2", "--d-min", "0", "--d-max", "0.4",
        "--steps", "11", "--format", "csv", "--no-timestamp",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(out1))[0] == 0
    assert run(capsys, *args, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_curves_data_section_stable_with_timestamp(tmp_path, capsys):
    args = [
        "curves", "--dim", "4", "--bases", "2", "--d-min", "0", "--d-max", "0.5",
        "--steps", "21", "--format", "csv",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, *args, "--out", str(out1))
    run(capsys, *args, "--out", str(out2))

    def data_section(path):
        text = path.read_text(encoding="utf-8")
        return text[text.index(CSV_HEADER):]

    assert data_section(out1) == data_section(out2)


def test_curves_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "c.csv"
    run(
        capsys,
        "curves", "--dim", "3", "--bases", "3", "--d-min", "0", "--d-max", "0.5",
        "--steps", "26", "--out", str(out), "--no-timestamp",
    )
    rows = parse_csv(out.read_text(encoding="utf-8"))
    # reformatting the parsed values reproduces the data section byte for byte
    regenerated = [",".join(fmt(v) for v in row) for row in rows]
    original = [
        line for line in out.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ][1:]
    assert regenerated == original


def test_curves_json_schema(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run(
        capsys,
        "curves", "--dim", "4", "--bases", "2", "--d-min", "0", "--d-max", "0.5",
        "--steps", "26", "--out", str(out), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == "mub-eve/1"
    assert doc["columns"] == CSV_HEADER.split(",")
    assert len(doc["rows"]) == 26
    gaps = [r[3] - r[2] for r in doc["rows"]]
    assert gaps[0] < 0 < gaps[-1]


# (dim, bases, d_min, d_max, steps): the golden curves' ranges, and steps that underflow to 0,
# where np.linspace spaces the points as (k / (steps - 1)) * (d_max - d_min) instead.
GRIDS = [
    (3, 2, "0", "0.6", 41), (3, 3, "0", "0.6", 41), (4, 2, "0", "0.7", 41), (8, 2, "0", "0.85", 41),
    (3, 3, "0.05", "0.6666666666666666", 101), (5, 2, "0", "0.8", 101),
    (3, 2, "0", "5e-324", 3), (3, 2, "0", "5e-324", 4),
]


@pytest.mark.parametrize("dim, bases, d_min, d_max, steps", GRIDS)
def test_curves_grid_is_linspace_bit_for_bit(tmp_path, capsys, dim, bases, d_min, d_max, steps):
    out = tmp_path / "c.json"
    code, _, _ = run(
        capsys,
        "curves", "--dim", str(dim), "--bases", str(bases), "--d-min", d_min, "--d-max", d_max,
        "--steps", str(steps), "--format", "json", "--no-timestamp", "--out", str(out),
    )
    assert code == 0
    grid = [row[0] for row in json.loads(out.read_text(encoding="utf-8"))["rows"]]
    expected = np.linspace(float(d_min), float(d_max), steps).tolist()
    assert [x.hex() for x in grid] == [x.hex() for x in expected]


def test_curves_usage_errors(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, err = run(
        capsys,
        "curves", "--dim", "3", "--d-max", "0.7", "--steps", "11", "--out", str(out),
    )
    assert code == 2 and "d_max" in err
    code, _, _ = run(
        capsys,
        "curves", "--dim", "3", "--d-max", "0.5", "--steps", "1", "--out", str(out),
    )
    assert code == 2


def test_curves_unwritable_path(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "curves", "--dim", "3", "--d-max", "0.5", "--steps", "5",
        "--out", str(tmp_path / "missing-dir" / "x.csv"),
    )
    assert code == 1
    assert "cannot write" in err


# One command per kind of output file, each run with "--out" appended.
WRITING_COMMANDS = {
    "curves-csv": ["curves", "--dim", "3", "--bases", "3", "--d-max", "0.6", "--steps", "41", "--no-timestamp"],
    "curves-json": ["curves", "--dim", "3", "--bases", "3", "--d-max", "0.6", "--steps", "41", "--no-timestamp",
                    "--format", "json"],
    "simulate": ["simulate", "--dim", "3", "--disturbance", "0.1", "--rounds", "100000", "--seed", "3"],
}


@pytest.mark.parametrize("name", WRITING_COMMANDS)
def test_output_over_a_longer_file_is_the_fresh_output(tmp_path, capsys, name):
    argv = WRITING_COMMANDS[name]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.write_bytes(np.random.default_rng(0).bytes(200_000))
    assert run(capsys, *argv, "--out", str(fresh))[0] == 0
    assert run(capsys, *argv, "--out", str(reused))[0] == 0
    data = reused.read_bytes()
    assert data == fresh.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data


@pytest.mark.parametrize("name", WRITING_COMMANDS)
def test_output_to_the_null_device(capsys, name):
    code, stdout, err = run(capsys, *WRITING_COMMANDS[name], "--out", os.devnull)
    assert code == 0 and os.devnull in stdout and err == ""


@pytest.mark.parametrize("name", WRITING_COMMANDS)
def test_output_to_a_directory_is_one_error_line(tmp_path, capsys, name):
    code, stdout, err = run(capsys, *WRITING_COMMANDS[name], "--out", str(tmp_path))
    assert code == 1 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {tmp_path}: ")


def test_critical_two_bases(capsys):
    code, out, _ = run(capsys, "critical", "--dim", "5", "--bases", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "mub-eve/1"
    assert doc["D_c_closed_form"] == pytest.approx((1 - 1 / math.sqrt(5)) / 2, abs=1e-12)
    assert abs(doc["D_c_bisection"] - doc["D_c_closed_form"]) <= 1e-6
    assert abs(doc["gap_at_Dc"]) <= 1e-9


def test_critical_three_bases_no_closed_form(capsys):
    code, out, _ = run(capsys, "critical", "--dim", "3", "--bases", "3")
    assert code == 0
    doc = json.loads(out)
    assert "D_c_closed_form" not in doc
    assert abs(doc["D_c_bisection"] - 0.2247) <= 5e-4


def test_verify_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--dim", "3", "--bases", "2", "--disturbance", "0.1", "--w", "auto"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert all(c["passed"] for c in doc["checks"])
    assert doc["w"] == pytest.approx(0.85, abs=1e-12)


def test_verify_large_dimension_passes_every_gate(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "32", "--disturbance", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert all(c["passed"] for c in doc["checks"] if not c["informational"])


def verify_checks(bases_labels):
    """(name, threshold, informational) of every verify check, in report order."""
    return [
        ("isometry_unitarity", 1e-12, False),
        *((f"equal_disturbance_{label}", 1e-12, False) for label in bases_labels),
        *((f"profile_{group}_zero", 1e-12, False) for group in "xyzt"),
        ("profile_s_matches_relation", 1e-12, False),
        ("profile_w_matches_input", 1e-12, False),
        ("ancilla_dimension", 0.0, False),
        ("w_is_stationary_optimum", 1e-6, True),
    ]


def refuse_dense_isometry(monkeypatch, command):
    """Make every route to the dense isometry raise, under each name a layer could bind."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} formed the dense isometry")

    # The module objects: a dotted path resolves through the package attribute, and
    # mub_eve.simulate is the function simulate there.
    for module in ("mub_eve.attack", "mub_eve.cli", "mub_eve.simulate"):
        for name in ("isometry_from_states", "build_isometry", "AttackIsometry"):
            monkeypatch.setattr(importlib.import_module(module), name, refuse, raising=False)


@pytest.mark.parametrize("dim, bases", [(8, 2), (12, 2), (16, 2), (20, 2), (3, 3)])
def test_verify_forms_no_dense_isometry(capsys, monkeypatch, dim, bases):
    # every gate reads the ancilla blocks and their Gram matrices; verify builds no dense isometry
    refuse_dense_isometry(monkeypatch, "verify")
    code, out, _ = run(capsys, "verify", "--dim", str(dim), "--bases", str(bases), "--disturbance", "0.15")
    assert code == 0
    checks = json.loads(out)["checks"]
    labels = ("computational", "alpha", "alpha-star") if bases == 3 else ("computational", "fourier")
    assert [(c["name"], c["threshold"], c["informational"]) for c in checks] == verify_checks(labels)
    assert all(c["residual"] <= 1e-12 for c in checks if not c["informational"])


@pytest.mark.parametrize("dim, bases", [(3, 2), (3, 3), (8, 2), (16, 2)])
def test_simulate_forms_no_dense_isometry(tmp_path, capsys, monkeypatch, dim, bases):
    # the outcome table reads the ancilla blocks through the amplitude kernel; simulate builds no dense isometry
    refuse_dense_isometry(monkeypatch, "simulate")
    out = tmp_path / "session.json"
    code, _, _ = run(
        capsys, "simulate", "--dim", str(dim), "--bases", str(bases), "--disturbance", "0.15",
        "--rounds", "100000", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["verdict"]["passed"] and doc["stats"]["rounds"] == 100000


def test_verify_suboptimal_w_flagged_informational_only(capsys):
    code, out, _ = run(
        capsys, "verify", "--dim", "3", "--bases", "2", "--disturbance", "0.1", "--w", "0.99"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["isometry_unitarity"]["passed"]
    assert by_name["equal_disturbance_fourier"]["passed"]
    assert by_name["w_is_stationary_optimum"]["informational"]
    assert not by_name["w_is_stationary_optimum"]["passed"]


@pytest.mark.parametrize("D, w, residual", [("0.1", "-0.5", 1.35), ("0.1", "1", 0.15), ("0", "-0.5", 1.5 - 1e-9)])
def test_verify_w_beyond_an_edge_is_not_a_stationary_optimum(capsys, D, w, residual):
    # No difference step fits at or beyond an edge of the admissible interval;
    # the residual is then the distance from the optimiser's w.
    code, out, _ = run(capsys, "verify", "--dim", "3", "--disturbance", D, "--w", w)
    assert code == 0
    doc = json.loads(out)
    check = {c["name"]: c for c in doc["checks"]}["w_is_stationary_optimum"]
    assert doc["passed"] and check["informational"] and not check["passed"]
    assert check["residual"] == pytest.approx(residual, abs=1e-12)


def test_verify_domain_failure_reported_not_raised(capsys):
    code, out, _ = run(
        capsys, "verify", "--dim", "3", "--bases", "2", "--disturbance", "0.9", "--w", "auto"
    )
    assert code == 1
    doc = json.loads(out)
    assert not doc["passed"]
    assert "error" in doc


def test_simulate_deterministic_and_passing(tmp_path, capsys):
    args = [
        "simulate", "--dim", "3", "--bases", "2", "--disturbance", "0.1", "--w", "auto",
        "--rounds", "1000000", "--seed", "42", "--shards", "4",
    ]
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    code1, stdout, _ = run(capsys, *args, "--out", str(out1))
    code2, _, _ = run(capsys, *args, "--out", str(out2))
    assert code1 == code2 == 0
    assert "pass" in stdout
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text(encoding="utf-8"))
    assert doc["schema"] == "mub-eve/1"
    assert doc["verdict"]["passed"]
    assert doc["stats"]["rounds"] == 1000000


@pytest.mark.parametrize("dim, bases", [(3, 2), (3, 3), (8, 2), (20, 2)])
def test_verify_output_is_the_same_with_cold_and_warm_bases(capsys, dim, bases):
    argv = ["verify", "--dim", str(dim), "--bases", str(bases), "--disturbance", "0.1"]
    bases_mod._build_protocol_bases.cache_clear()
    cold = run(capsys, *argv)
    warm = run(capsys, *argv)
    assert cold[0] == 0 and cold == warm


@pytest.mark.parametrize("dim, bases", [(3, 2), (3, 3)])
def test_simulate_file_is_the_same_with_cold_and_warm_bases(tmp_path, capsys, dim, bases):
    argv = ["simulate", "--dim", str(dim), "--bases", str(bases), "--disturbance", "0.1",
            "--rounds", "100000", "--seed", "7", "--shards", "2"]
    cold_path, warm_path = tmp_path / "cold.json", tmp_path / "warm.json"
    bases_mod._build_protocol_bases.cache_clear()
    cold = run(capsys, *argv, "--out", str(cold_path))
    warm = run(capsys, *argv, "--out", str(warm_path))
    assert cold[0] == warm[0] == 0
    assert cold_path.read_bytes() == warm_path.read_bytes()


def test_simulate_zero_rounds_usage_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    old = np.random.default_rng(1).bytes(200_000)
    out.write_bytes(old)
    code, _, err = run(
        capsys,
        "simulate", "--dim", "3", "--disturbance", "0.1", "--rounds", "0",
        "--out", str(out),
    )
    assert code == 2
    assert "rounds" in err
    assert out.read_bytes() == old  # a usage error leaves an existing file untouched


def test_simulate_rounds_above_int64_usage_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, stdout, err = run(
        capsys,
        "simulate", "--dim", "3", "--disturbance", "0.1", "--rounds", "100000000000000000000",
        "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("error: rounds must be at most 9223372036854775807")
    assert err.count("\n") == 1


def test_simulate_identity_attack_exact(tmp_path, capsys):
    out = tmp_path / "id.json"
    code, _, _ = run(
        capsys,
        "simulate", "--dim", "4", "--disturbance", "0", "--w", "1", "--rounds", "100000",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["stats"]["bob_error_rate"] == [0.0, 0.0]


@pytest.mark.parametrize("rounds,seed", [(1, 1), (3, 1), (3, 12)])
def test_simulate_without_computational_rounds_exits_one(tmp_path, capsys, rounds, seed):
    # Every round of these sessions lands in the Fourier basis: no sample for the guess rate.
    out = tmp_path / "s.json"
    code, stdout, err = run(
        capsys,
        "simulate", "--dim", "3", "--disturbance", "0.1", "--rounds", str(rounds),
        "--seed", str(seed), "--out", str(out),
    )
    assert code == 1
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "computational-basis" in lines[0]
    assert not out.exists()


# Documents at the edges of what json.dumps(doc, indent=2) writes: the float spellings,
# lists that must not take the all-int or all-float join, empty containers and escapes.
JSON_EDGE_DOCUMENTS = {
    "nan": math.nan,
    "infinities": [math.inf, -math.inf, 1.0],
    "negative-zero": -0.0,
    "tiny-and-large": [1e-300, 1e16, 5e-324, 1.7976931348623157e308],
    "numpy-float64": {"x": np.float64(0.1), "row": [np.float64(1.5), np.float64(math.nan)],
                      "mixed": [0.5, np.float64(2.0)]},
    "int-and-bool": [1, True],
    "float-and-int": [1.0, 2],
    "int-and-float": [2, 1.0],
    "bools-and-none": [True, False, None],
    "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]], {"a": {}}]},
    "tuple": (1, 2),
    "big-int": [2**64, -(2**63)],
    "strings": {"error": "w must be 'auto' or a real number, got 'é'", "control": "\x00\x1f\t\n\"\\",
                "astral": "\U0001f600"},
    "non-ascii-key": {"Dₓ": 1},
    "scalars": ["", 0, 0.0, "NaN"],
}


@pytest.mark.parametrize("name", JSON_EDGE_DOCUMENTS)
def test_json_text_is_json_dumps_indent_2(name):
    value = JSON_EDGE_DOCUMENTS[name]
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_what_json_dumps_refuses():
    for value in (np.int64(1), [np.bool_(True)], {1, 2}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)


def written_json_documents(tmp_path, capsys):
    """(name, text) of every JSON document a sample of commands writes, to a file or to stdout."""
    from test_golden import SIMULATE_EDGE

    commands = {
        f"curves-{d}-{k}": ["curves", "--dim", str(d), "--bases", str(k), "--d-max", "0.45", "--steps", "11",
                            "--format", "json", "--out", "{out}"]
        for d, k in ((3, 2), (3, 3), (8, 2))
    }
    commands |= {f"critical-{d}-{k}": ["critical", "--dim", str(d), "--bases", str(k)] for d, k in ((4, 2), (3, 3))}
    commands |= {f"verify-{d}-{k}": ["verify", "--dim", str(d), "--bases", str(k), "--disturbance", "0.1"]
                 for d, k in ((8, 2), (3, 3))}
    commands["verify-error"] = ["verify", "--dim", "3", "--disturbance", "0.9"]
    commands["simulate-3-3"] = ["simulate", "--dim", "3", "--bases", "3", "--disturbance", "0.15",
                                "--rounds", "10000", "--seed", "1", "--shards", "2", "--out", "{out}"]
    for name, (d, disturbance, rounds, seed, shards) in SIMULATE_EDGE.items():
        commands[name] = ["simulate", "--dim", str(d), "--disturbance", disturbance, "--rounds", str(rounds),
                          "--seed", str(seed), "--shards", str(shards), "--out", "{out}"]
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        _, stdout, _ = run(capsys, *(str(out) if arg == "{out}" else arg for arg in argv))
        yield name, out.read_text(encoding="utf-8") if "{out}" in argv else stdout


def test_every_json_document_is_written_as_json_dumps_indent_2(tmp_path, capsys):
    documents = dict(written_json_documents(tmp_path, capsys))
    assert len(documents) == 12
    for name, text in documents.items():
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name


def test_critical_error_document_is_written_as_json_dumps_indent_2(monkeypatch, capsys):
    def no_crossing(spec):
        raise AnalysisError("information gap is not negative at D=0.0001; no crossing bracket")

    monkeypatch.setattr(cli, "critical_disturbance", no_crossing)
    code, text, _ = run(capsys, "critical", "--dim", "3")
    assert code == 1
    assert json.loads(text)["error"].startswith("information gap")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["curves", "--dim", "3", "--frobnicate"])
    assert excinfo.value.code == 2


def test_invalid_w_string_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--dim", "3", "--disturbance", "0.1", "--w", "best"])
    assert excinfo.value.code == 2


def exit_code(argv):
    """main's exit code, whether it returns it or argparse raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Every real-valued option with the other arguments its command needs; critical takes none.
REAL_OPTIONS = [
    ("curves", "--d-min", ["--dim", "3", "--d-max", "0.5", "--steps", "5"]),
    ("curves", "--d-max", ["--dim", "3", "--steps", "5"]),
    ("verify", "--disturbance", ["--dim", "3"]),
    ("verify", "--w", ["--dim", "3", "--disturbance", "0.1"]),
    ("simulate", "--disturbance", ["--dim", "3", "--rounds", "100"]),
    ("simulate", "--w", ["--dim", "3", "--disturbance", "0.1", "--rounds", "100"]),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option, rest", REAL_OPTIONS, ids=[c + o for c, o, _ in REAL_OPTIONS])
def test_non_finite_number_is_a_usage_error(tmp_path, capsys, command, option, rest, value):
    out = tmp_path / "x.out"
    argv = [command, *rest, f"{option}={value}"] + (["--out", str(out)] if command != "verify" else [])
    assert exit_code(argv) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def parsed_kind(action):
    """The class an option's type makes of the text "2", so the converter's own name does not matter."""
    if action.type is None:
        return None
    value = action.type("2")
    return Path if isinstance(value, Path) else type(value)


PROTOCOL = {"--dim": (None, True, int, None), "--bases": (2, False, int, None)}
ATTACK = {"--disturbance": (None, True, float, None), "--w": ("auto", False, float, None)}
OUT = {"--out": (None, True, Path, None)}
# option -> (default, required, parsed kind, choices), per subcommand
INVENTORY = {
    "curves": {
        **PROTOCOL, **OUT,
        "--d-min": (0.0, False, float, None),
        "--d-max": (None, True, float, None),
        "--steps": (None, True, int, None),
        "--format": ("csv", False, None, ("csv", "json")),
        "--no-timestamp": (False, False, None, None),
    },
    "critical": PROTOCOL,
    "verify": {**PROTOCOL, **ATTACK},
    "simulate": {
        **PROTOCOL, **ATTACK, **OUT,
        "--rounds": (None, True, int, None),
        "--seed": (0, False, int, None),
        "--shards": (1, False, int, None),
    },
}


def test_cli_option_inventory():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        command: {
            action.option_strings[-1]: (action.default, action.required, parsed_kind(action), action.choices)
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for command, parser in sub.choices.items()
    }
    assert found == INVENTORY


def test_console_script_entry_point(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["mub-eve"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["mub-eve", "critical", "--dim", "3"])
    assert entry() == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "critical" and doc["dim"] == 3


PUBLIC_NAMES = [
    "AnalysisError", "AttackParams", "Basis", "ComparisonReport", "CriticalPoint", "DimensionError",
    "DomainError", "EveStateSet", "OptimumReport", "ProtocolError", "ProtocolSpec",
    "ScalarProductProfile", "SessionStats", "SimConfig", "__version__", "admissible_w_interval",
    "build_eve_states", "coeff_pair", "compare_to_analytic", "computational_basis",
    "critical_disturbance", "d_c_closed_form", "disturbance_per_state", "dits_to_bits",
    "empirical_mutual_information", "fourier_basis", "guess_probability",
    "i_ab", "i_ae", "i_ae_optimal", "i_d", "isometry_residual", "lambda_d", "maximize_w",
    "optimal_w", "outcome_distribution", "phi_d", "protocol_bases", "qutrit_three_basis_set",
    "resolve_w", "scalar_product_profile", "simulate", "w_bar",
]


def test_public_name_inventory():
    # A name joins or leaves the package's surface only with an edit here.
    mub_eve = importlib.import_module("mub_eve")
    assert sorted(mub_eve.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(mub_eve, name)] == []


def fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports the package from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)


SIMULATE_RUN = (
    "from mub_eve import cli\n"
    "assert cli.main(['simulate', '--dim', '3', '--disturbance', '0.1', '--rounds', '1000', '--out', {out!r}]) == 0\n"
)


@pytest.mark.parametrize("first", [
    pytest.param("from mub_eve import simulate\n", id="from-package"),
    pytest.param(SIMULATE_RUN, id="simulate-command"),
    pytest.param("from mub_eve.simulate import CELL_FLOOR\n", id="from-submodule"),
    pytest.param("import mub_eve.simulate\n", id="import-submodule"),
])
def test_package_simulate_is_the_function_in_every_import_order(tmp_path, first):
    # Loading the submodule binds it on the package; the package keeps the function there.
    proc = fresh_interpreter(first.format(out=str(tmp_path / "session.json")) + (
        "import importlib, inspect, sys\n"
        "import mub_eve\n"
        "from mub_eve import simulate\n"
        "assert inspect.isfunction(simulate) and mub_eve.simulate is simulate, mub_eve.simulate\n"
        "assert simulate is sys.modules['mub_eve.simulate'].simulate\n"
        "assert importlib.import_module('mub_eve.simulate').CELL_FLOOR == 1e-18\n"
    ))
    assert proc.returncode == 0, proc.stderr


CRITICAL_RUN = "from mub_eve import cli\nassert cli.main(['critical', '--dim', '{}', '--bases', '{}']) == 0\n"


@pytest.mark.parametrize("code", [
    *(pytest.param(CRITICAL_RUN.format(dim, bases), id=f"critical-{dim}-{bases}")
      for dim, bases in [(3, 2), (8, 2), (3, 3)]),
    pytest.param(
        "from mub_eve import cli\n"
        "assert cli.main(['curves', '--dim', '3', '--bases', '3', '--d-max', '0.6', '--steps', '41',"
        " '--no-timestamp', '--out', {out!r}]) == 0\n",
        id="curves"),
    pytest.param(
        "from mub_eve import ProtocolSpec, critical_disturbance, i_ae, optimal_w\n"
        "for spec in (ProtocolSpec(3), ProtocolSpec(3, 3)):\n"
        "    assert 0.0 < i_ae(spec, 0.1, optimal_w(spec, 0.1)) < critical_disturbance(spec).d_c < 0.5\n",
        id="closed-forms"),
])
def test_closed_forms_run_without_numpy(tmp_path, code):
    code = code.format(out=str(tmp_path / "curves.csv"))
    proc = fresh_interpreter(code + "import sys\nassert 'numpy' not in sys.modules, 'numpy was imported'\n")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["curves", "--dim", "3", "--bases", "3", "--d-max", "0.3", "--steps", "5", "--out", "{tmp}/curves.csv"],
    ["verify", "--dim", "8", "--disturbance", "0.1"],
    ["simulate", "--dim", "3", "--disturbance", "0.1", "--rounds", "10000", "--out", "{tmp}/session.json"],
], ids=lambda argv: argv[0])
def test_numpy_commands_run_from_a_cold_interpreter(tmp_path, argv):
    # Each command loads what it needs when it runs: verify and simulate import numpy and the
    # attack and simulate layers.
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = fresh_interpreter(f"import sys\nfrom mub_eve import cli\nsys.exit(cli.main({argv!r}))\n")
    assert proc.returncode == 0, proc.stderr


def test_package_namespace_lists_reads_and_refuses_names():
    mub_eve = importlib.import_module("mub_eve")
    assert set(mub_eve.__all__) <= set(dir(mub_eve))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mub_eve.no_such_name
    # a layer reads as an attribute of the package before any of its names has been read
    proc = fresh_interpreter("import mub_eve\nassert mub_eve.optimize.EDGE_SHRINK == 1e-9\n")
    assert proc.returncode == 0, proc.stderr
