"""One-off measurement of ``run_experiment(jobs=N)`` against ``jobs=1``.

Not a benchmark workload: it runs ``rank1_cv`` and ``dense_cv`` once
each with ``jobs=1`` and once with ``jobs=nproc`` (trials run on a thread
pool), BLAS pinned to one thread, and prints the wall times. Usage, from
the repository root:

    python3 perfbench/jobs_probe.py --trials 2 --seed 1

The result is recorded in ``perfbench/NOTES.md``.
"""

import argparse
import os
import sys
import time

import run  # pins BLAS to one thread before numpy loads
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    from mklridge.experiment import ExperimentConfig, run_experiment

    nproc = os.cpu_count()
    print(f"nproc {nproc}, trials {args.trials}, seed {args.seed}")
    for name in ("rank1_cv", "dense_cv"):
        config = dict(workloads.make_config(name, args.seed), trials=args.trials)
        times = {}
        for jobs in (1, nproc):
            t0 = time.perf_counter()
            run_experiment(ExperimentConfig.from_dict(config), jobs=jobs)
            times[jobs] = time.perf_counter() - t0
        print(f"{name}: jobs=1 {times[1]:.2f} s, jobs={nproc} {times[nproc]:.2f} s, "
              f"jobs=1 / jobs={nproc} = {times[1] / times[nproc]:.2f}")


if __name__ == "__main__":
    main()
