import argparse
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mub_eve.cli import CSV_HEADER, build_parser, fmt, main


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

    for module in ("mub_eve.attack", "mub_eve.cli", "mub_eve.simulate"):
        for name in ("isometry_from_states", "build_isometry", "AttackIsometry"):
            monkeypatch.setattr(f"{module}.{name}", refuse, raising=False)


@pytest.mark.parametrize("dim, bases", [(8, 2), (12, 2), (16, 2), (20, 2), (3, 3)])
def test_verify_forms_no_dense_isometry(capsys, monkeypatch, dim, bases):
    # every gate reads the states and their Gram matrix; verify builds no dense isometry
    refuse_dense_isometry(monkeypatch, "verify")
    code, out, _ = run(capsys, "verify", "--dim", str(dim), "--bases", str(bases), "--disturbance", "0.15")
    assert code == 0
    checks = json.loads(out)["checks"]
    labels = ("computational", "alpha", "alpha-star") if bases == 3 else ("computational", "fourier")
    assert [(c["name"], c["threshold"], c["informational"]) for c in checks] == verify_checks(labels)
    assert all(c["residual"] <= 1e-12 for c in checks if not c["informational"])


@pytest.mark.parametrize("dim, bases", [(3, 2), (3, 3), (8, 2), (16, 2)])
def test_simulate_forms_no_dense_isometry(tmp_path, capsys, monkeypatch, dim, bases):
    # the outcome table reads the weighted ancilla states; simulate builds no dense isometry
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


def test_simulate_zero_rounds_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "simulate", "--dim", "3", "--disturbance", "0.1", "--rounds", "0",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "rounds" in err


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
    "empirical_mutual_information", "fourier_basis", "golden_section_maximize", "guess_probability",
    "i_ab", "i_ae", "i_ae_optimal", "i_d", "isometry_residual", "lambda_d", "maximize_w",
    "optimal_w", "outcome_distribution", "phi_d", "protocol_bases", "qutrit_three_basis_set",
    "resolve_w", "scalar_product_profile", "simulate", "w_bar",
]


def test_public_name_inventory():
    # A name joins or leaves the package's surface only with an edit here.
    mub_eve = importlib.import_module("mub_eve")
    assert sorted(mub_eve.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(mub_eve, name)] == []
