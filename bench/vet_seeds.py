"""Check candidate session seeds on every monte-carlo session.

    python3 bench/vet_seeds.py

Runs each session of workloads.SESSIONS with each seed in
0..workloads.N_SEEDS-1 and prints the seeds for which every session passes
the program's own verdict and the benchmark's checks, then the rejected ones.
A statistical check at 4 or 4.5 sigma fails by chance now and then; the
monte-carlo workload draws its session seeds from that range, so as long as
this rejects none, a run never meets such a chance failure.
"""

from __future__ import annotations

import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    from mub_eve import cli

    good, bad = [], []
    for seed in range(workloads.N_SEEDS):
        job = [workloads.session_op(*session, seed, run.OUT_DIR / f"vet-{k}.json")
               for k, session in enumerate(workloads.SESSIONS)]
        session_run = run.Run(job)
        session_run.check(run.run_job(cli, job)[1], counted=True)
        (bad if session_run.failed or session_run.check_failures else good).append(seed)
    print("passing:", good)
    print("rejected:", bad)
    return 0


if __name__ == "__main__":
    sys.exit(main())
