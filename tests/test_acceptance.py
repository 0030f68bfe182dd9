"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 6 witnesses that w_bar maximises the eavesdropper's guess
probability: stationarity, the derivative ratio, and concavity of the guess
probability over the interior w-grid. The eavesdropper information I_AE is
not concave near the w = 1 radical boundary; criterion 6 reports where, and
tests/test_optimize.py pins that structure.
"""

import json
import math
import time

import numpy as np
import pytest

from mub_eve import (
    AttackParams,
    ProtocolSpec,
    SimConfig,
    build_eve_states,
    compare_to_analytic,
    critical_disturbance,
    d_c_closed_form,
    disturbance_per_state,
    guess_probability,
    i_ab,
    i_ae,
    lambda_d,
    maximize_w,
    phi_d,
    protocol_bases,
    scalar_product_profile,
    simulate,
    w_bar,
)
from mub_eve.cli import CSV_HEADER, main
from oracles import build_isometry, dense_profile, guess_probability_constructive, optimality_witnesses


def report(number: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} — {detail} [{elapsed:.2f} s]")


def test_criterion_1_critical_disturbance_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for d in range(2, 11):
        point = critical_disturbance(ProtocolSpec(d, 2))
        worst = max(worst, abs(point.d_c - d_c_closed_form(d)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(1, ok, f"zero-finder D_c = (1-1/sqrt(d))/2 within 1e-6 for d=2..10 (worst {worst:.1e})", elapsed)
    assert worst <= 1e-6
    assert abs(critical_disturbance(ProtocolSpec(3, 2)).d_c - 0.211325) <= 1e-6
    assert abs(critical_disturbance(ProtocolSpec(4, 2)).d_c - 0.25) <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_three_basis_crossing():
    start = time.perf_counter()
    point = critical_disturbance(ProtocolSpec(3, 3))
    elapsed = time.perf_counter() - start
    ok = abs(point.d_c - 0.2247) <= 5e-4 and elapsed < 10.0
    report(2, ok, f"three-basis crossing at D_c = {point.d_c:.6f} (target 0.2247 +- 5e-4)", elapsed)
    assert abs(point.d_c - 0.2247) <= 5e-4
    assert elapsed < 10.0


def test_criterion_3_robustness_ordering():
    start = time.perf_counter()
    two = critical_disturbance(ProtocolSpec(3, 2)).d_c
    three = critical_disturbance(ProtocolSpec(3, 3)).d_c
    by_dim = [critical_disturbance(ProtocolSpec(d, 2)).d_c for d in range(2, 11)]
    increasing = all(b > a for a, b in zip(by_dim, by_dim[1:]))
    elapsed = time.perf_counter() - start
    ok = three > two and increasing and elapsed < 5.0
    report(3, ok, f"D_c(3 bases) = {three:.4f} > D_c(2 bases) = {two:.4f}; D_c(d) strictly increasing d=2..10", elapsed)
    assert three > two
    assert increasing
    assert elapsed < 5.0


def test_criterion_4_attack_validity_suite():
    start = time.perf_counter()
    d_grid = [round(0.05 * k, 2) for k in range(1, 10)]  # 0.05 .. 0.45
    worst_unitarity = worst_disturbance = worst_profile = worst_overlap = 0.0
    cases = 0
    for d in range(2, 7):
        for disturbance in d_grid:
            if disturbance > (d - 1) / d:
                continue
            protocols = [(d, 2)] + ([(3, 3)] if d == 3 else [])
            for dim, bases_count in protocols:
                params = AttackParams(dim, bases_count, disturbance, w_bar(dim, disturbance))
                eve = build_eve_states(params)
                isometry = build_isometry(params)
                worst_unitarity = max(worst_unitarity, isometry.unitarity_residual())
                for basis in protocol_bases(ProtocolSpec(dim, bases_count)):
                    dev = np.max(np.abs(disturbance_per_state(eve, basis) - disturbance))
                    worst_disturbance = max(worst_disturbance, float(dev))
                dense = dense_profile(eve)  # x, y, z and t, measured on the dense states
                worst_profile = max(
                    worst_profile,
                    abs(dense.x), abs(dense.y), abs(dense.z), abs(dense.t),
                )
                profile = scalar_product_profile(eve)
                worst_overlap = max(
                    worst_overlap,
                    abs(profile.s - params.s) + profile.s_max_dev,
                    abs(profile.w - params.w) + profile.w_max_dev,
                )
                cases += 1
    elapsed = time.perf_counter() - start
    ok = max(worst_unitarity, worst_disturbance, worst_profile, worst_overlap) <= 1e-12
    report(
        4,
        ok and elapsed < 10.0,
        f"{cases} attacks valid: unitarity<={worst_unitarity:.1e}, equal disturbance<={worst_disturbance:.1e}, "
        f"vanishing products<={worst_profile:.1e}, overlaps<={worst_overlap:.1e} (all vs 1e-12)",
        elapsed,
    )
    assert worst_unitarity <= 1e-12
    assert worst_disturbance <= 1e-12
    assert worst_profile <= 1e-12
    assert worst_overlap <= 1e-12
    assert elapsed < 10.0


def test_criterion_5_formula_cross_checks():
    start = time.perf_counter()
    worst = 0.0

    def phi3(D, w):
        return (3 + 2 * D * (w - 1)) / (9 * (1 - D)) + 2 * math.sqrt(
            2 * D * (3 - 2 * D * (2 + w)) * (1 + 2 * w)
        ) / (9 * (1 - D))

    def lam3(w):
        return (5 - 2 * w + 4 * math.sqrt(1 + w - 2 * w**2)) / 9

    def phi4(D, w):
        return (4 - 2 * D * (1 - 3 * w)) / (16 * (1 - D)) + 2 * math.sqrt(
            3 * D * (1 + 3 * w) * (4 - D * (5 + 3 * w))
        ) / (16 * (1 - D))

    def lam4(w):
        return (5 - 3 * w + 3 * math.sqrt(1 + 2 * w - 3 * w**2)) / 8

    def mu3(D, w):
        return (3 - D * (w + 2)) / (9 * (1 - D)) + 2 * math.sqrt(
            2 * D * (3 + D * (w - 4)) * (1 - w)
        ) / (9 * (1 - D))

    # grids stay 1e-4 away from radicand zeros, where sqrt conditioning caps
    # achievable double-precision agreement well above the 1e-12 bar
    for D in np.linspace(0.02, 0.6, 12):
        for w in np.linspace(-0.45, min(1.0 - 1e-4, (3 / D - 4) / 2 - 1e-4), 12):
            D, w = float(D), float(w)
            spec = ProtocolSpec(3, 2)
            intact, error = guess_probability_constructive(spec, D, w)
            worst = max(worst, abs(phi_d(D, w, 3) - intact), abs(phi_d(D, w, 3) - phi3(D, w)))
            worst = max(worst, abs(lambda_d(w, 3) - error), abs(lambda_d(w, 3) - lam3(w)))
            spec3 = ProtocolSpec(3, 3)
            mu = phi_d(D, -w / 2, 3)  # the three-basis mu is phi_3 at the overlap -w/2
            intact3, error3 = guess_probability_constructive(spec3, D, w)
            worst = max(worst, abs(mu - intact3), abs(mu - mu3(D, w)))
            guess3 = guess_probability(spec3, D, w)
            worst = max(worst, abs(guess3 - ((1 - D) * intact3 + D * error3)))
            worst = max(worst, abs(guess3 - ((1 - D) * mu3(D, w) + D * lam3(w))))
    for D in np.linspace(0.02, 0.7, 12):
        for w in np.linspace(-0.3, min(1.0 - 1e-4, (4 / D - 5) / 3 - 1e-4), 12):
            D, w = float(D), float(w)
            intact, error = guess_probability_constructive(ProtocolSpec(4, 2), D, w)
            worst = max(worst, abs(phi_d(D, w, 4) - intact), abs(phi_d(D, w, 4) - phi4(D, w)))
            worst = max(worst, abs(lambda_d(w, 4) - error), abs(lambda_d(w, 4) - lam4(w)))
    for d in range(2, 7):
        for D in np.linspace(0.01, (d - 1) / d - 0.01, 10):
            wb = w_bar(d, float(D))
            worst = max(worst, abs(phi_d(float(D), wb, d) - lambda_d(wb, d)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report(5, ok, f"closed forms, reference displays and constructive route agree (worst {worst:.1e} vs 1e-12)", elapsed)
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_6_optimality_witnesses():
    start = time.perf_counter()
    d_grid = [round(0.05 * k, 2) for k in range(1, 13)]  # 0.05 .. 0.60
    stationarity_ok = True
    ratio_ok = True
    concavity_failures = []
    info_convex_at = []
    for disturbance in d_grid:
        witnesses = optimality_witnesses(disturbance)
        stationarity = maximize_w(ProtocolSpec(3, 2), disturbance).stationarity_residual
        stationarity_ok &= stationarity <= 1e-6
        ratio_ok &= witnesses.derivative_ratio <= 1e-4
        if witnesses.guess_concavity >= 0.0:
            concavity_failures.append((disturbance, witnesses.guess_concavity))
        if witnesses.concavity > 0.0:
            info_convex_at.append(disturbance)
    elapsed = time.perf_counter() - start
    ok = stationarity_ok and ratio_ok and not concavity_failures
    detail = (
        f"stationarity<=1e-6: {stationarity_ok}; derivative ratio<=1e-4: {ratio_ok}; "
        f"guess-probability concavity<0 fails at D={[d for d, _ in concavity_failures]}; "
        f"I_AE second difference >0 at D={info_convex_at} (shape diagnostic)"
    )
    report(6, ok and elapsed < 5.0, detail, elapsed)
    assert stationarity_ok
    assert ratio_ok
    assert not concavity_failures, (
        "max second difference of the guess probability is not negative at "
        f"D={concavity_failures}; w_bar is then not shown to be its global maximiser"
    )
    assert elapsed < 5.0


def test_criterion_7_monte_carlo_oracle_equivalence():
    start = time.perf_counter()
    configs = [(3, 0.05), (3, 0.1), (3, 0.2113), (4, 0.1), (4, 0.25)]
    rounds = 10**7
    worst_z = 0.0
    worst_mi = 0.0
    for dim, disturbance in configs:
        spec = ProtocolSpec(dim, 2)
        w = w_bar(dim, disturbance)
        config = SimConfig(
            spec=spec, disturbance=disturbance, w=w, rounds=rounds, seed=20260809, shards=4
        )
        stats = simulate(config)
        verdict = compare_to_analytic(stats)
        assert verdict.passed, f"(d={dim}, D={disturbance}): {verdict.to_dict()}"
        worst_z = max(worst_z, max(abs(c.z) for c in verdict.checks))
        worst_mi = max(
            worst_mi,
            abs(stats.i_ae_hat - i_ae(spec, disturbance, w)),
            abs(stats.i_ab_hat - i_ab(spec, disturbance)),
        )
        assert worst_mi <= 5e-3
        repeat = simulate(config)
        assert np.array_equal(stats.counts, repeat.counts)
    elapsed = time.perf_counter() - start
    ok = worst_z <= 4.0 and worst_mi <= 5e-3 and elapsed < 120.0
    report(
        7,
        ok,
        f"5 configs x 1e7 rounds: |z|<= {worst_z:.2f} (limit 4), MI within {worst_mi:.1e} (limit 5e-3), deterministic",
        elapsed,
    )
    assert worst_z <= 4.0
    assert elapsed < 120.0


def test_criterion_8_curve_tables_reproduce_structure(tmp_path, capsys):
    start = time.perf_counter()
    targets = {(3, 2): 0.2113248654, (3, 3): 0.22472447, (4, 2): 0.25}
    for (dim, bases), d_c in targets.items():
        out = tmp_path / f"curve_{dim}_{bases}.csv"
        code = main(
            [
                "curves", "--dim", str(dim), "--bases", str(bases),
                "--d-min", "0", "--d-max", "0.5", "--steps", "101",
                "--out", str(out), "--no-timestamp",
            ]
        )
        assert code == 0
        lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        assert lines[0] == CSV_HEADER  # exactly the six published-curve columns
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        i_ab_col = [r[2] for r in rows]
        i_ae_col = [r[3] for r in rows]
        assert all(b < a for a, b in zip(i_ab_col, i_ab_col[1:])), "I_AB must decrease"
        assert all(b >= a - 1e-12 for a, b in zip(i_ae_col, i_ae_col[1:])), "I_AE must increase"
        gaps = [ae - ab for ab, ae in zip(i_ab_col, i_ae_col)]
        signs = [s for s in (np.sign(g) if abs(g) > 1e-9 else 0 for g in gaps) if s != 0]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1, f"expected a unique crossing, got {flips}"
        below = max(i for i, g in enumerate(gaps) if g < -1e-9)
        d_vals = [r[0] for r in rows]
        assert d_vals[below] <= d_c <= d_vals[min(below + 2, len(rows) - 1)]
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    report(8, True, "curve tables for (3,2), (3,3), (4,2): I_AB falls, I_AE rises, unique crossing at the criterion values", elapsed)
