"""Batch command-line front end: curves, critical points, attack verification, Monte Carlo.

Exit codes: 0 success, 1 verification/analysis failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .attack import AttackParams, build_eve_states, disturbance_per_state, isometry_from_states, scalar_product_profile
from .bases import ProtocolSpec, protocol_bases
from .errors import AnalysisError, DimensionError, DomainError, ProtocolError
from .information import InfoPoint, dits_to_bits, i_ab, i_ae
from .optimize import admissible_w_interval, critical_disturbance, d_c_closed_form, maximize_w, stationarity
from .simulate import SimConfig, compare_to_analytic, resolve_w, simulate

SCHEMA = "mub-eve/1"
CSV_HEADER = "D,w_opt,I_AB_dits,I_AE_dits,I_AB_bits,I_AE_bits"
GATE_TOL = 1e-12
STATIONARITY_TOL = 1e-6


def fmt(x: float) -> str:
    """12 significant digits; scientific notation below 1e-4 in magnitude."""
    if x == 0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


@dataclass(frozen=True)
class CurveTable:
    spec: ProtocolSpec
    rows: list[InfoPoint]
    metadata: dict


def _parse_w(text: str) -> float | str:
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"w must be 'auto' or a real number, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mub-eve",
        description="Optimal symmetric eavesdropping analysis for MUB-based qudit QKD.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curves", help="Tabulate I_AB and optimal I_AE over a disturbance grid.")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--bases", type=int, default=2)
    c.add_argument("--d-min", type=float, default=0.0)
    c.add_argument("--d-max", type=float, required=True)
    c.add_argument("--steps", type=int, required=True)
    c.add_argument("--out", type=Path, required=True)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--no-timestamp", action="store_true")

    k = sub.add_parser("critical", help="Locate the critical disturbance by bisection.")
    k.add_argument("--dim", type=int, required=True)
    k.add_argument("--bases", type=int, default=2)
    k.add_argument("--tol", type=float, default=1e-6)

    v = sub.add_parser("verify", help="Check every attack constraint for given parameters.")
    v.add_argument("--dim", type=int, required=True)
    v.add_argument("--bases", type=int, default=2)
    v.add_argument("--disturbance", type=float, required=True)
    v.add_argument("--w", type=_parse_w, default="auto")

    s = sub.add_parser("simulate", help="Run the Monte Carlo oracle and compare to closed forms.")
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--bases", type=int, default=2)
    s.add_argument("--disturbance", type=float, required=True)
    s.add_argument("--w", type=_parse_w, default="auto")
    s.add_argument("--rounds", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--shards", type=int, default=1)
    s.add_argument("--out", type=Path, required=True)

    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _metadata(args, spec: ProtocolSpec) -> dict:
    meta = {
        "version": __version__,
        "dim": spec.dim,
        "bases": spec.bases_count,
        "d_min": args.d_min,
        "d_max": args.d_max,
        "steps": args.steps,
        "w_mode": "auto",
    }
    if not args.no_timestamp:
        meta["generated"] = datetime.now(timezone.utc).isoformat()
    return meta


def cmd_curves(args, spec: ProtocolSpec) -> int:
    if args.steps < 2:
        return _usage_error(f"steps must be >= 2, got {args.steps}")
    try:
        spec.check_disturbance(args.d_min)
        spec.check_disturbance(args.d_max)
        ordered = args.d_min < args.d_max
    except DomainError:
        ordered = False
    if not ordered:
        return _usage_error(
            f"need 0 <= d_min < d_max <= {spec.max_disturbance}; "
            f"got d_min={args.d_min}, d_max={args.d_max}"
        )

    rows = []
    for disturbance in np.linspace(args.d_min, args.d_max, args.steps):
        disturbance = float(disturbance)
        report = maximize_w(spec, disturbance)
        rows.append(InfoPoint(disturbance, report.w_opt, i_ab(spec.dim, disturbance), report.i_ae_opt))
    table = CurveTable(spec=spec, rows=rows, metadata=_metadata(args, spec))

    try:
        if args.format == "csv":
            _write_curves_csv(args.out, table)
        else:
            _write_curves_json(args.out, table)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _curve_row_values(spec: ProtocolSpec, point: InfoPoint) -> list[float]:
    return [
        point.D,
        point.w,
        point.i_ab,
        point.i_ae,
        dits_to_bits(point.i_ab, spec.dim),
        dits_to_bits(point.i_ae, spec.dim),
    ]


def _write_curves_csv(path: Path, table: CurveTable) -> None:
    lines = [f"# {key}={value}" for key, value in table.metadata.items()]
    lines.append(CSV_HEADER)
    for point in table.rows:
        lines.append(",".join(fmt(v) for v in _curve_row_values(table.spec, point)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_curves_json(path: Path, table: CurveTable) -> None:
    doc = {
        "schema": SCHEMA,
        "kind": "curves",
        "metadata": table.metadata,
        "columns": CSV_HEADER.split(","),
        "rows": [_curve_row_values(table.spec, point) for point in table.rows],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")


def cmd_critical(args, spec: ProtocolSpec) -> int:
    try:
        point = critical_disturbance(spec, tol=args.tol)
    except DomainError as exc:
        return _usage_error(str(exc))
    except AnalysisError as exc:
        print(json.dumps({"schema": SCHEMA, "kind": "critical", "error": str(exc)}))
        return 1
    doc = {
        "schema": SCHEMA,
        "kind": "critical",
        "dim": spec.dim,
        "bases": spec.bases_count,
        "D_c_bisection": point.d_c,
        "gap_at_Dc": point.gap_at_dc,
    }
    if spec.bases_count == 2:
        doc["D_c_closed_form"] = d_c_closed_form(spec.dim)
    print(json.dumps(doc, indent=2))
    return 0


def cmd_verify(args, spec: ProtocolSpec) -> int:
    doc = {
        "schema": SCHEMA,
        "kind": "verify",
        "dim": spec.dim,
        "bases": spec.bases_count,
        "disturbance": args.disturbance,
        "checks": [],
        "passed": False,
    }

    def add_check(name: str, residual: float, threshold: float, informational: bool = False) -> bool:
        ok = residual <= threshold
        doc["checks"].append(
            {
                "name": name,
                "residual": residual,
                "threshold": threshold,
                "passed": bool(ok),
                "informational": informational,
            }
        )
        return ok

    try:
        w = resolve_w(spec, args.disturbance, args.w)
        params = AttackParams(spec.dim, spec.bases_count, args.disturbance, w)
    except DomainError as exc:
        doc["error"] = str(exc)
        print(json.dumps(doc, indent=2))
        return 1
    doc["w"] = w

    eve = build_eve_states(params)
    isometry = isometry_from_states(eve, args.disturbance)
    profile = scalar_product_profile(eve)

    gate_ok = add_check("isometry_unitarity", isometry.unitarity_residual(), GATE_TOL)
    for basis in protocol_bases(spec.dim, spec.bases_count):
        deviation = float(np.max(np.abs(disturbance_per_state(isometry, basis) - args.disturbance)))
        gate_ok &= add_check(f"equal_disturbance_{basis.label}", deviation, GATE_TOL)
    for name in ("x", "y", "z", "t"):
        gate_ok &= add_check(f"profile_{name}_zero", abs(getattr(profile, name)), GATE_TOL)
    gate_ok &= add_check(
        "profile_s_matches_relation", abs(profile.s - params.s) + profile.s_max_dev, GATE_TOL
    )
    gate_ok &= add_check("profile_w_matches_input", abs(profile.w - w) + profile.w_max_dev, GATE_TOL)
    gate_ok &= add_check(
        "ancilla_dimension", float(abs(eve.states.shape[2] - spec.dim**2)), 0.0
    )

    lo, hi = admissible_w_interval(spec, args.disturbance)
    _, residual = stationarity(lambda x: i_ae(spec, args.disturbance, x), w, lo, hi)
    add_check("w_is_stationary_optimum", residual, STATIONARITY_TOL, informational=True)

    doc["passed"] = bool(gate_ok)
    print(json.dumps(doc, indent=2))
    return 0 if gate_ok else 1


def cmd_simulate(args, spec: ProtocolSpec) -> int:
    try:
        stats = simulate(SimConfig(spec, args.disturbance, args.w, args.rounds, args.seed, args.shards))
    except DomainError as exc:
        return _usage_error(str(exc))

    verdict = compare_to_analytic(stats, spec, args.disturbance, stats.w)
    doc = {
        "schema": SCHEMA,
        "kind": "simulate",
        "stats": stats.to_dict(),
        "verdict": verdict.to_dict(),
    }
    try:
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"verdict: {'pass' if verdict.passed else 'FAIL'} ({args.out})")
    return 0 if verdict.passed else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = ProtocolSpec(dim=args.dim, bases_count=args.bases)
    except (DimensionError, DomainError, ProtocolError) as exc:
        return _usage_error(str(exc))
    handlers = {
        "curves": cmd_curves,
        "critical": cmd_critical,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
    }
    return handlers[args.command](args, spec)


if __name__ == "__main__":
    sys.exit(main())
