"""Batch command-line front end: curves, critical points, attack verification, Monte Carlo.

Exit codes: 0 success, 1 verification/analysis failure, 2 usage error (NaN and
infinite numbers included).

Only the closed forms are imported with this module, and they run on ``math``
alone, so ``critical`` and ``curves`` start without numpy; ``verify`` and
``simulate`` import numpy when they run, and only ``simulate`` loads the Monte Carlo layer.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from . import __version__
from .bases import ProtocolSpec, protocol_bases
from .errors import AnalysisError, DimensionError, DomainError, ProtocolError
from .information import dits_to_bits, i_ab, i_ae
from .optimize import critical_disturbance, d_c_closed_form, optimal_w, resolve_w, stationarity

SCHEMA = "mub-eve/1"
CSV_HEADER = "D,w_opt,I_AB_dits,I_AE_dits,I_AB_bits,I_AE_bits"
GATE_TOL = 1e-12
STATIONARITY_TOL = 1e-6
_JSON_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt(x: float) -> str:
    """12 significant digits; scientific notation below 1e-4 in magnitude."""
    if x == 0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


def _finite_float(text: str, invalid: str = "invalid float value: {!r}") -> float:
    """argparse type of every real-valued option: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(invalid.format(text)) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite real number, got {text!r}")
    return value


def _parse_w(text: str) -> float | str:
    return "auto" if text == "auto" else _finite_float(text, "w must be 'auto' or a real number, got {!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mub-eve",
        description="Optimal symmetric eavesdropping analysis for MUB-based qudit QKD.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    protocol = argparse.ArgumentParser(add_help=False)
    protocol.add_argument("--dim", type=int, required=True)
    protocol.add_argument("--bases", type=int, default=2)
    attack = argparse.ArgumentParser(add_help=False)
    attack.add_argument("--disturbance", type=_finite_float, required=True)
    attack.add_argument("--w", type=_parse_w, default="auto")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=Path, required=True)

    c = sub.add_parser("curves", parents=[protocol, output],
                       help="Tabulate I_AB and optimal I_AE over a disturbance grid.")
    c.add_argument("--d-min", type=_finite_float, default=0.0)
    c.add_argument("--d-max", type=_finite_float, required=True)
    c.add_argument("--steps", type=int, required=True)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--no-timestamp", action="store_true")
    c.set_defaults(run=cmd_curves)

    k = sub.add_parser("critical", parents=[protocol], help="Locate the critical disturbance with Brent's zero finder.")
    k.set_defaults(run=cmd_critical)

    v = sub.add_parser("verify", parents=[protocol, attack],
                       help="Check every attack constraint for given parameters.")
    v.set_defaults(run=cmd_verify)

    s = sub.add_parser("simulate", parents=[protocol, attack, output],
                       help="Run the Monte Carlo oracle and compare to closed forms.")
    s.add_argument("--rounds", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--shards", type=int, default=1)
    s.set_defaults(run=cmd_simulate)

    return parser


def _float_text(x: float) -> str:
    """A float as json.dumps writes it: its repr, with NaN and the infinities spelled as in JavaScript."""
    text = float.__repr__(x)
    return _JSON_SPECIAL_FLOATS.get(text, text)


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, for the kinds the commands emit: dicts with str keys,
    lists and tuples, str, int, bool, None and float (subclasses such as numpy's float64 too).

    With an indent, json.dumps runs its pure-Python encoder, one generator step per item.
    Here a list whose items are all exactly int, or all exactly float, is one join.
    """
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{_encode_str(key)}: {_json_text(item, inner)}" for key, item in value.items())
        return "{" + inner + sep.join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kind = type(value[0])
        if (kind is int or kind is float) and all(type(item) is kind for item in value):
            items = map(int.__repr__ if kind is int else _float_text, value)
        else:
            items = (_json_text(item, inner) for item in value)
        return "[" + inner + sep.join(items) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write(path: Path, text: str) -> bool:
    """Write text and a final newline as UTF-8 with LF line ends; False, after one error line, if that fails.

    The file is written in place and then cut to length, not truncated to zero first: on ext4
    (mounted with ``discard``), truncating a file to zero frees its blocks, which costs more than
    the write. Only a regular file is cut; a FIFO, ``/dev/null`` or a tty cannot be.
    """
    data = (text + "\n").encode("utf-8")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "wb") as out:
            out.write(data)
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(len(data))
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _disturbance_grid(d_min: float, d_max: float, steps: int) -> list[float]:
    """steps evenly spaced floats from d_min to d_max, bit for bit np.linspace(d_min, d_max, steps).

    Like np.linspace, the points are d_min + k * step, with (k / (steps - 1)) * (d_max - d_min)
    in place of k * step where step underflows to 0, and the last point is d_max itself.
    """
    div = steps - 1
    delta = d_max - d_min
    step = delta / div
    return [d_min + (k * step if step else k / div * delta) for k in range(div)] + [d_max]


def cmd_curves(args, spec: ProtocolSpec) -> int:
    from datetime import datetime, timezone

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
    for disturbance in _disturbance_grid(args.d_min, args.d_max, args.steps):
        w = optimal_w(spec, disturbance)
        info = (i_ab(spec, disturbance), i_ae(spec, disturbance, w))
        rows.append([disturbance, w, *info, *(dits_to_bits(x, spec.dim) for x in info)])

    metadata = {"version": __version__, "dim": spec.dim, "bases": spec.bases_count, "d_min": args.d_min,
                "d_max": args.d_max, "steps": args.steps, "w_mode": "auto"}
    if not args.no_timestamp:
        metadata["generated"] = datetime.now(timezone.utc).isoformat()
    if args.format == "csv":
        lines = [*(f"# {key}={value}" for key, value in metadata.items()), CSV_HEADER]
        text = "\n".join(lines + [",".join(fmt(v) for v in row) for row in rows])
    else:
        doc = {"schema": SCHEMA, "kind": "curves", "metadata": metadata, "columns": CSV_HEADER.split(","),
               "rows": rows}
        text = _json_text(doc)
    if not _write(args.out, text):
        return 1
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_critical(args, spec: ProtocolSpec) -> int:
    try:
        point = critical_disturbance(spec)
    except AnalysisError as exc:
        print(_json_text({"schema": SCHEMA, "kind": "critical", "error": str(exc)}))
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
    print(_json_text(doc))
    return 0


def cmd_verify(args, spec: ProtocolSpec) -> int:
    from .attack import AttackParams, build_eve_states, disturbance_per_state, isometry_residual, scalar_product_profile

    disturbance = args.disturbance
    doc = {
        "schema": SCHEMA,
        "kind": "verify",
        "dim": spec.dim,
        "bases": spec.bases_count,
        "disturbance": disturbance,
        "checks": [],
        "passed": False,
    }
    try:
        w = resolve_w(spec, disturbance, args.w)
        params = AttackParams(spec.dim, spec.bases_count, disturbance, w)
    except DomainError as exc:
        doc["error"] = str(exc)
    else:
        doc["w"] = w
        eve = build_eve_states(params)
        profile = scalar_product_profile(eve)
        # (name, residual, threshold, informational), in report order
        checks = [
            ("isometry_unitarity", isometry_residual(eve, disturbance), GATE_TOL, False),
            *((f"equal_disturbance_{basis.label}",
               float(abs(disturbance_per_state(eve, disturbance, basis) - disturbance).max()), GATE_TOL, False)
              for basis in protocol_bases(spec)),
            *((f"profile_{name}_zero", abs(getattr(profile, name)), GATE_TOL, False) for name in "xyzt"),
            ("profile_s_matches_relation", abs(profile.s - params.s) + profile.s_max_dev, GATE_TOL, False),
            ("profile_w_matches_input", abs(profile.w - w) + profile.w_max_dev, GATE_TOL, False),
            ("ancilla_dimension", float(abs(eve.dim**2 - spec.dim**2)), 0.0, False),  # d blocks x d coordinates
            ("w_is_stationary_optimum", stationarity(spec, disturbance, w)[1], STATIONARITY_TOL, True),
        ]
        doc["checks"] = [
            {"name": name, "residual": residual, "threshold": threshold,
             "passed": bool(residual <= threshold), "informational": informational}
            for name, residual, threshold, informational in checks
        ]
        doc["passed"] = all(check["passed"] for check in doc["checks"] if not check["informational"])
    print(_json_text(doc))
    return 0 if doc["passed"] else 1


def cmd_simulate(args, spec: ProtocolSpec) -> int:
    from .simulate import SimConfig, compare_to_analytic, simulate

    try:
        stats = simulate(SimConfig(spec, args.disturbance, args.w, args.rounds, args.seed, args.shards))
    except DomainError as exc:
        return _usage_error(str(exc))
    try:
        verdict = compare_to_analytic(stats)
        doc = {"schema": SCHEMA, "kind": "simulate", "stats": stats.to_dict(), "verdict": verdict.to_dict()}
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not _write(args.out, _json_text(doc)):
        return 1
    print(f"verdict: {'pass' if verdict.passed else 'FAIL'} ({args.out})")
    return 0 if verdict.passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built at its first call and reused after."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = ProtocolSpec(dim=args.dim, bases_count=args.bases)
    except (DimensionError, DomainError, ProtocolError) as exc:
        return _usage_error(str(exc))
    return args.run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
