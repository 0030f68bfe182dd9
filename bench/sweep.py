"""Reference d-sweep: how the attack stages and `verify` scale with the dimension d.

    python3 bench/sweep.py

Prints a Markdown table over d in {2, 3, 5, 8, 16, 32} at D = 0.1, w = w_bar:
scalar_product_profile time, outcome_distribution time and tracemalloc peak,
and `verify` end to end as one in-process cli.main call. Times are the
minimum of a few repeats after a warm-up that outlasts the slow start of
BLAS. The table carries no bounds; it is the reference for d-scaling claims.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import tracemalloc

import run

DIMS = (2, 3, 5, 8, 16, 32)
DISTURBANCE = 0.1


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def peak_alloc(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    start = time.perf_counter()
    import mub_eve
    from mub_eve import cli

    import_s = time.perf_counter() - start

    def verify(d):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["verify", "--dim", str(d), "--disturbance", str(DISTURBANCE)]) != 0:
                raise RuntimeError(f"verify failed at d={d}")

    warm_until = time.perf_counter() + run.WARMUP_S
    while time.perf_counter() < warm_until:
        verify(8)

    print(f"import mub_eve: {import_s * 1e3:.0f} ms")
    print("| d | scalar_product_profile | outcome_distribution | outcome_distribution peak | verify end to end |")
    print("|---|---|---|---|---|")
    for d in DIMS:
        repeats = 2 if d >= 32 else 5
        spec = mub_eve.ProtocolSpec(d, 2)
        w = mub_eve.w_bar(d, DISTURBANCE)
        eve = mub_eve.build_eve_states(mub_eve.AttackParams(d, 2, DISTURBANCE, w))
        profile = best_of(lambda: mub_eve.scalar_product_profile(eve), repeats)
        table = lambda: mub_eve.outcome_distribution(spec, DISTURBANCE, w)  # noqa: E731
        outcome = best_of(table, repeats)
        peak = peak_alloc(table)
        end_to_end = best_of(lambda: verify(d), repeats)
        print(f"| {d} | {profile * 1e3:.2f} ms | {outcome * 1e3:.2f} ms | {peak / 1e6:.2f} MB "
              f"| {end_to_end * 1e3:.1f} ms |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
