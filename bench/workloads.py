"""Workload job lists and output checks of the mub-eve benchmark.

A job is a fixed list of operations; each operation is one call to
``mub_eve.cli.main(argv)``. The job is built once from the workload seed and
is the same on every iteration of a run.

The checks never import ``mub_eve``. They recompute what they compare from
the paper's formulas, coded here on their own, or test properties the method
must have (monotone curves, one crossing, equal disturbance, counts that add
up). ``Checker.check`` returns the names of the checks an output fails;
``corruptions`` lists, per operation, deliberately corrupted outputs and the
check each one must trip, for the self-test every run makes.

numpy is imported inside the functions that use it, so that importing this
module does not import numpy before the benchmark times its set-up.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("analytic", "verify-scaling", "monte-carlo")

CURVE_STEPS = 101
VERIFY_DIMS = (8, 12, 16, 20)
# (dim, bases, disturbance, rounds, shards) of the monte-carlo sessions.
SESSIONS = (
    (3, 2, 0.12, 10_000_000, 4),
    (3, 3, 0.15, 2_000_000, 2),
    (8, 2, 0.20, 4_000_000, 3),
    (16, 2, 0.10, 1_000_000, 1),
)
# Session seeds are 0..N_SEEDS-1: `python3 bench/vet_seeds.py` ran every
# session above with each of them and rejected none (program verdict and the
# checks below). A run takes its sessions' seeds from this range by its
# workload seed, so every job of a run draws the same sessions.
N_SEEDS = 512

GATE_TOL = 1e-12
Z_CHECK = 4.5
# The program keeps w one part in 1e9 inside the radical boundary w = 1,
# which the D = 0 row of a two-basis curve reaches.
EDGE_SHRINK = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str  # "curves" | "critical" | "verify" | "simulate"
    dim: int
    bases: int
    argv: tuple[str, ...]
    out: Path | None = None
    disturbance: float = 0.0
    d_max: float = 0.0
    rounds: int = 0


@dataclass(frozen=True)
class Output:
    stdout: str
    data: bytes  # the file the operation wrote, or b"" if it writes none


def make_job(workload: str, seed: int, out_dir: Path) -> list[Op]:
    """The operations of one job of the workload, made from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    if workload == "analytic":
        d_max = round(rng.uniform(0.45, 0.55), 4)
        for dim, bases in ((3, 2), (3, 3), (4, 2)):
            out = out_dir / f"analytic-curves-{dim}-{bases}.csv"
            argv = ("curves", "--dim", str(dim), "--bases", str(bases), "--d-max", str(d_max),
                    "--steps", str(CURVE_STEPS), "--out", str(out), "--no-timestamp")
            ops.append(Op("curves", dim, bases, argv, out=out, d_max=d_max))
        for dim in sorted(rng.sample(range(2, 17), 4)):
            ops.append(Op("critical", dim, 2, ("critical", "--dim", str(dim), "--bases", "2")))
        ops.append(Op("critical", 3, 3, ("critical", "--dim", "3", "--bases", "3")))
    elif workload == "verify-scaling":
        for dim, bases in [(d, 2) for d in VERIFY_DIMS] + [(3, 3)]:
            disturbance = round(rng.uniform(0.05, 0.25), 4)
            argv = ("verify", "--dim", str(dim), "--bases", str(bases),
                    "--disturbance", str(disturbance))
            ops.append(Op("verify", dim, bases, argv, disturbance=disturbance))
    elif workload == "monte-carlo":
        for k, (dim, bases, disturbance, rounds, shards) in enumerate(SESSIONS):
            sim_seed = (seed * len(SESSIONS) + k) % N_SEEDS
            ops.append(session_op(dim, bases, disturbance, rounds, shards, sim_seed,
                                  out_dir / f"monte-carlo-{k}.json"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def session_op(dim, bases, disturbance, rounds, shards, sim_seed, out: Path) -> Op:
    argv = ("simulate", "--dim", str(dim), "--bases", str(bases), "--disturbance",
            str(disturbance), "--rounds", str(rounds), "--seed", str(sim_seed),
            "--shards", str(shards), "--out", str(out))
    return Op("simulate", dim, bases, argv, out=out, disturbance=disturbance, rounds=rounds)


# -- the paper's formulas, coded apart from the program ------------------------


def info_dits(x: float, d: int) -> float:
    """1 + x log_d x + (1-x) log_d((1-x)/(d-1)): information of the d-ary symmetric channel."""
    acc = 1.0
    if x > 0.0:
        acc += x * math.log(x, d)
    if x < 1.0:
        acc += (1.0 - x) * math.log((1.0 - x) / (d - 1), d)
    return acc


def w_bar(d: int, disturbance: float) -> float:
    return d / (d - 1) * ((d - 1) / d - disturbance)


def d_c_two(d: int) -> float:
    return (1.0 - 1.0 / math.sqrt(d)) / 2.0


def lam(d: int, w):
    """lambda_d(w): Eve's guess probability on errored rounds, the square of the
    major amplitude of d unit vectors with common overlap w."""
    import numpy as np

    return (np.sqrt(1.0 + (d - 1) * w) + (d - 1) * np.sqrt(1.0 - w)) ** 2 / d**2


def mu_nu(disturbance: float, w):
    """(mu, nu) of the three-basis qutrit protocol; the intact-round overlap is
    s = (w D + 2 - 3 D) / (2 (1 - D))."""
    import numpy as np

    s = (w * disturbance + 2.0 - 3.0 * disturbance) / (2.0 * (1.0 - disturbance))
    mu = (np.sqrt(np.maximum(1.0 + 2.0 * s, 0.0)) + 2.0 * np.sqrt(np.maximum(1.0 - s, 0.0))) ** 2 / 9.0
    return mu, lam(3, np.minimum(w, 1.0))


def _info_dits_array(x, d: int):
    import numpy as np

    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(x > 0.0, x * np.log(x), 0.0)
        b = np.where(x < 1.0, (1.0 - x) * np.log((1.0 - x) / (d - 1)), 0.0)
    return 1.0 + (a + b) / math.log(d)


def i_ae_three(disturbance: float, w):
    mu, nu = mu_nu(disturbance, w)
    return (1.0 - disturbance) * _info_dits_array(mu, 3) + disturbance * _info_dits_array(nu, 3)


def three_basis_optimum(disturbance: float) -> tuple[float, float]:
    """(w, I_AE) maximising the three-basis I_AE over the admissible w, by a
    401-point grid zoomed five times onto the best cell."""
    import numpy as np

    lo = max(-0.5, 4.0 - 3.0 / disturbance) if disturbance > 0.0 else -0.5
    hi = 1.0
    for _ in range(5):
        grid = np.linspace(lo, hi, 401)
        values = i_ae_three(disturbance, grid)
        k = int(np.argmax(values))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 400)]
    return float(grid[k]), float(values[k])


def three_basis_critical() -> float:
    """D where the fine-grid maximum of the three-basis I_AE reaches I_AB."""
    lo, hi = 0.1, 0.4
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if three_basis_optimum(mid)[1] < info_dits(1.0 - mid, 3):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def guess_probability(bases: int, d: int, disturbance: float, w: float) -> float:
    if bases == 2:  # at w_bar phi = lambda, so G = lambda(w_bar)
        return float(lam(d, w))
    mu, nu = mu_nu(disturbance, w)
    return float((1.0 - disturbance) * mu + disturbance * nu)


# -- checks --------------------------------------------------------------------


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * abs(b), abs_tol)


def parse_curves(text: str) -> list[list[float]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "D,w_opt,I_AB_dits,I_AE_dits,I_AB_bits,I_AE_bits":
        raise ValueError("missing curves header")
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def format_curves(rows: list[list[float]]) -> str:
    body = "\n".join(",".join(repr(v) for v in row) for row in rows)
    return "D,w_opt,I_AB_dits,I_AE_dits,I_AB_bits,I_AE_bits\n" + body + "\n"


class Checker:
    """Checks operation outputs; keeps the reference values it has computed
    and the first output of every session for the determinism check."""

    def __init__(self):
        self._three_opt: dict[float, tuple[float, float]] = {}
        self._d_c_three: float | None = None
        self._first_output: dict[tuple[str, ...], Output] = {}

    def three_opt(self, disturbance: float) -> tuple[float, float]:
        if disturbance not in self._three_opt:
            self._three_opt[disturbance] = three_basis_optimum(disturbance)
        return self._three_opt[disturbance]

    def d_c_three(self) -> float:
        if self._d_c_three is None:
            self._d_c_three = three_basis_critical()
        return self._d_c_three

    def check(self, op: Op, out: Output) -> list[str]:
        """Names of the checks the output fails; empty when it passes."""
        try:
            return getattr(self, f"_check_{op.kind}")(op, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{op.kind}.parse: {exc!r}"]

    def _check_curves(self, op: Op, out: Output) -> list[str]:
        fails = []
        rows = parse_curves(out.data.decode("utf-8"))
        d = op.dim
        step = op.d_max / (CURVE_STEPS - 1)
        if len(rows) != CURVE_STEPS or any(
            not _close(row[0], k * step, 1e-11, 1e-15) for k, row in enumerate(rows)
        ):
            return ["curves.rows"]
        log2d = math.log2(d)
        if not all(_close(r[2], info_dits(1.0 - r[0], d), 1e-10, 1e-13) for r in rows):
            fails.append("curves.i_ab")
        if not all(_close(r[4], r[2] * log2d, 1e-10, 1e-13) and _close(r[5], r[3] * log2d, 1e-10, 1e-13)
                   for r in rows):
            fails.append("curves.bits")
        if op.bases == 2:
            w_ok = all(_close(r[1], w_bar(d, r[0]), 1e-10) for r in rows[1:])
            w_ok = w_ok and 1.0 - 1.5 * EDGE_SHRINK <= rows[0][1] <= 1.0
            i_ae_ref = [info_dits(float(lam(d, w_bar(d, r[0]))), d) for r in rows]
        else:
            refs = [self.three_opt(r[0]) for r in rows]
            # I_AE(0, w) = 0 for every w, so the D = 0 row singles out no w.
            w_ok = all(abs(r[1] - ref[0]) <= 1e-6 for r, ref in zip(rows[1:], refs[1:]))
            i_ae_ref = [ref[1] for ref in refs]
        if not w_ok:
            fails.append("curves.w_opt")
        if not all(_close(r[3], ref, 1e-9, 1e-12) for r, ref in zip(rows, i_ae_ref)):
            fails.append("curves.i_ae")
        if abs(rows[0][3]) > 1e-12:
            fails.append("curves.zero_at_origin")
        if not all(b[3] > a[3] for a, b in zip(rows, rows[1:])):
            fails.append("curves.increasing")
        gap = [r[3] - r[2] for r in rows]
        changes = [k for k in range(len(gap) - 1) if (gap[k] < 0.0) != (gap[k + 1] < 0.0)]
        d_c = d_c_two(d) if op.bases == 2 else self.d_c_three()
        if len(changes) != 1:
            fails.append("curves.crossing")
        else:
            k = changes[0]
            crossing = rows[k][0] + step * gap[k] / (gap[k] - gap[k + 1])
            if abs(crossing - d_c) > step:
                fails.append("curves.crossing")
        return fails

    def _check_critical(self, op: Op, out: Output) -> list[str]:
        doc = json.loads(out.stdout)
        fails = []
        if (doc.get("kind"), doc.get("dim"), doc.get("bases")) != ("critical", op.dim, op.bases):
            fails.append("critical.doc")
        d_c = doc["D_c_bisection"]
        if op.bases == 2:
            if abs(d_c - d_c_two(op.dim)) > 1e-9 or abs(doc["D_c_closed_form"] - d_c_two(op.dim)) > 1e-15:
                fails.append("critical.closed_form")
        else:
            if not d_c > d_c_two(3):
                fails.append("critical.ordering")
            if abs(d_c - self.d_c_three()) > 1e-7:
                fails.append("critical.fine_grid")
        return fails

    def _check_verify(self, op: Op, out: Output) -> list[str]:
        doc = json.loads(out.stdout)
        fails = []
        if doc.get("passed") is not True:
            fails.append("verify.passed")
        labels = ("computational", "fourier") if op.bases == 2 else ("computational", "alpha", "alpha-star")
        expected = {"isometry_unitarity", "ancilla_dimension", "profile_s_matches_relation",
                    "profile_w_matches_input"}
        expected |= {f"equal_disturbance_{label}" for label in labels}
        expected |= {f"profile_{g}_zero" for g in "xyzt"}
        gates = [c for c in doc["checks"] if not c["informational"]]
        if {c["name"] for c in gates} != expected or len(gates) != len(expected) or not all(
            c["passed"] is True and c["residual"] <= GATE_TOL for c in gates
        ):
            fails.append("verify.gates")
        if not self._w_ok(op, doc["w"]):
            fails.append("verify.w")
        return fails

    def _w_ok(self, op: Op, w: float) -> bool:
        if op.bases == 2:
            return abs(w - w_bar(op.dim, op.disturbance)) <= 1e-12
        return abs(w - self.three_opt(op.disturbance)[0]) <= 1e-6

    def _check_simulate(self, op: Op, out: Output) -> list[str]:
        doc = json.loads(out.data.decode("utf-8"))
        stats = doc["stats"]
        fails = []
        if doc["verdict"]["passed"] is not True or not out.stdout.startswith("verdict: pass"):
            fails.append("simulate.verdict")
        per_basis = stats["rounds_per_basis"]
        joint = stats["eve_joint_histogram"]
        split = [[a + b for a, b in zip(ra, rb)] for ra, rb in
                 zip(stats["eve_joint_given_bob_correct"], stats["eve_joint_given_bob_error"])]
        if (stats["rounds"] != op.rounds or sum(per_basis) != op.rounds
                or sum(map(sum, joint)) != per_basis[0] or split != joint
                or len(per_basis) != op.bases):
            fails.append("simulate.counts")
        D = op.disturbance
        if not all(abs(rate - D) <= Z_CHECK * math.sqrt(D * (1.0 - D) / n)
                   for rate, n in zip(stats["bob_error_rate"], per_basis)):
            fails.append("simulate.error_rates")
        w = stats["w"]
        if not self._w_ok(op, w):
            fails.append("simulate.w")
        g = guess_probability(op.bases, op.dim, D, w)
        if abs(stats["p_eve_correct"] - g) > Z_CHECK * math.sqrt(g * (1.0 - g) / per_basis[0]):
            fails.append("simulate.eve_guess")
        first = self._first_output.setdefault(op.argv, out)
        if (first.stdout, first.data) != (out.stdout, out.data):
            fails.append("simulate.deterministic")
        return fails


# -- corrupted outputs for the self-test ---------------------------------------


def _edit_json(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, indent=2)


def _edit_rows(out: Output, edit) -> Output:
    rows = parse_curves(out.data.decode("utf-8"))
    rows = edit([list(r) for r in rows])
    return replace(out, data=format_curves(rows).encode("utf-8"))


def _set(row_idx: int, col: int, fn):
    def edit(rows):
        rows[row_idx][col] = fn(rows[row_idx][col], rows)
        return rows

    return edit


def corruptions(op: Op, out: Output) -> list[tuple[str, Output]]:
    """(check that must fail, corrupted copy of a good output) pairs for the op."""
    cases: list[tuple[str, Output]] = []
    if op.kind == "curves":
        mid = CURVE_STEPS // 2
        edits = [
            ("curves.rows", lambda rows: rows[:-1]),
            ("curves.i_ab", _set(mid, 2, lambda v, _: v * (1 + 1e-7))),
            ("curves.bits", _set(mid, 5, lambda v, _: v * (1 + 1e-7))),
            ("curves.w_opt", _set(mid, 1, lambda v, _: v + 1e-5)),
            ("curves.i_ae", _set(mid, 3, lambda v, _: v * (1 + 1e-7))),
            ("curves.zero_at_origin", _set(0, 3, lambda v, _: 1e-9)),
            ("curves.increasing", _set(30, 3, lambda v, rows: rows[29][3])),
            ("curves.crossing", lambda rows: [r[:3] + [1.3 * r[3]] + r[4:] for r in rows]),
        ]
        cases = [(name, _edit_rows(out, edit)) for name, edit in edits]
    elif op.kind == "critical":
        if op.bases == 2:
            edits = [("critical.closed_form", lambda doc: doc.update(D_c_bisection=doc["D_c_bisection"] + 1e-8))]
        else:
            edits = [
                ("critical.ordering", lambda doc: doc.update(D_c_bisection=d_c_two(3) - 1e-3)),
                ("critical.fine_grid", lambda doc: doc.update(D_c_bisection=doc["D_c_bisection"] + 1e-6)),
            ]
        edits.append(("critical.doc", lambda doc: doc.update(dim=doc["dim"] + 1)))
        cases = [(name, replace(out, stdout=_edit_json(out.stdout, e))) for name, e in edits]
    elif op.kind == "verify":
        edits = [
            ("verify.passed", lambda doc: doc.update(passed=False)),
            ("verify.gates", lambda doc: doc["checks"].pop(0)),
            ("verify.gates", lambda doc: doc["checks"][0].update(residual=1e-11)),
            ("verify.w", lambda doc: doc.update(w=doc["w"] + 1e-5)),
        ]
        cases = [(name, replace(out, stdout=_edit_json(out.stdout, e))) for name, e in edits]
    elif op.kind == "simulate":
        def bump(key, delta):
            return lambda doc: doc["stats"].update({key: doc["stats"][key] + delta})

        edits = [
            ("simulate.verdict", lambda doc: doc["verdict"].update(passed=False)),
            ("simulate.counts", lambda doc: doc["stats"]["rounds_per_basis"].__setitem__(0, doc["stats"]["rounds_per_basis"][0] + 1)),
            ("simulate.error_rates", lambda doc: doc["stats"]["bob_error_rate"].__setitem__(-1, doc["stats"]["bob_error_rate"][-1] + 0.01)),
            ("simulate.eve_guess", bump("p_eve_correct", 0.01)),
            ("simulate.w", bump("w", 1e-5)),
        ]
        cases = [(name, replace(out, data=_edit_json(out.data.decode("utf-8"), e).encode("utf-8")))
                 for name, e in edits]
        cases.append(("simulate.deterministic", replace(out, data=out.data + b" ")))
    return cases
