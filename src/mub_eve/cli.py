"""Batch command-line front end: curves, critical points, attack verification, Monte Carlo.

Exit codes: 0 success, 1 verification/analysis failure, 2 usage error (NaN and
infinite numbers included). A command's argv goes straight to that command's parser;
the top-level parser takes only -h, --version, unknown commands and unrecognized arguments.

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


_LEAF_TEXT = {float: _float_text, str: _encode_str, int: int.__repr__, bool: {True: "true", False: "false"}.get,
              type(None): lambda _: "null"}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, for the kinds the commands emit: dicts with str keys,
    lists and tuples, str, int, bool, None and float (subclasses such as numpy's float64 too).

    With an indent, json.dumps runs its pure-Python encoder, one generator step per item.
    Here a leaf of an exact type is one lookup in ``_LEAF_TEXT``, before any isinstance test,
    a dict item's leaf is written in place, and a list whose items are all exactly int, or all
    exactly float, is one join.
    """
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        return leaf(value)
    for kind in (float, str, int):  # subclasses, such as numpy's float64
        if isinstance(value, kind):
            return _LEAF_TEXT[kind](value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_encode_str(key) + ": " + (leaf(item) if (leaf := _LEAF_TEXT.get(type(item))) else
                                              _json_text(item, inner)) for key, item in value.items()]
        return "{" + inner + sep.join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int} or kinds == {float}:
            items = map(_LEAF_TEXT[kinds.pop()], value)
        else:
            items = (_json_text(item, inner) for item in value)
        return "[" + inner + sep.join(items) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write(path: Path, text: str) -> bool:
    """Write text and a final newline as UTF-8 with LF line ends; False, after one error line, if that fails.

    The file is written in place and then cut to length if it was longer, not truncated to zero first: on ext4
    (mounted with ``discard``), truncating a file to zero frees its blocks, which costs more than
    the write. Only a regular file is cut; a FIFO, ``/dev/null`` or a tty cannot be.
    """
    data = (text + "\n").encode("utf-8")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "wb") as out:
            out.write(data)
            info = os.fstat(out.fileno())  # st_size > len(data), flushed or not, only if the file was longer
            if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
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
    from .attack import AttackParams, _read_block_grams, build_eve_states

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
        bases = protocol_bases(spec)
        # Every measured gate comes from one pass over the d block Grams. With the reading's bound added, each
        # residual bounds its quantity's distance from the target on every state, or pair, of any set.
        unitarity, disturbances, bound, overlaps, spreads = _read_block_grams(build_eve_states(params), bases)
        # (name, residual, threshold, informational), in report order. The profile_{x,y,z,t}_zero and
        # ancilla_dimension gates are constants of the block format (no cross-block overlap is stored; d blocks
        # of d coordinates), kept only for bench/workloads.py's exact gate-set check (ROADMAP item 16).
        checks = [
            ("isometry_unitarity", unitarity, GATE_TOL, False),
            *((f"equal_disturbance_{basis.label}", residual, GATE_TOL, False)
              for basis, residual in zip(bases, (abs(disturbances - disturbance).max(axis=1) + bound).tolist())),
            *((f"profile_{name}_zero", 0.0, GATE_TOL, False) for name in "xyzt"),
            ("profile_s_matches_relation", float(abs(overlaps[0] - params.s) + spreads[0]), GATE_TOL, False),
            ("profile_w_matches_input", float((abs(overlaps[1:] - w) + spreads[1:]).max()), GATE_TOL, False),
            ("ancilla_dimension", 0.0, 0.0, False),
            ("w_is_stationary_optimum", stationarity(spec, disturbance, w), STATIONARITY_TOL, True),
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
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of `main` and its command parsers by name, built at its first call and reused after."""
    parser = build_parser()
    return parser, next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    else:
        args = parser.parse_args(argv)
    try:
        spec = ProtocolSpec(dim=args.dim, bases_count=args.bases)
    except (DimensionError, DomainError, ProtocolError) as exc:
        return _usage_error(str(exc))
    return args.run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
