"""Reference figures quoted in bench/README.md.

    python3 bench/reference.py

Prints the minimum and median of k repeats for solve_care on random dense
instances (the dense workload's random family) at n = 4..24, the two default
sweeps, and find_uniform_gain on diffusion rings at n = 1024 and 4096, then
the per-second median latency of find_uniform_gain at n = 1024 over 20 s,
which shows the host's slow and fast phases. BLAS is pinned to one thread, as
in run.py.
"""

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times)


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from declqr import find_uniform_gain, identity_spec, models, solve_care
    from declqr.sweep import SweepConfig, run_sweep
    from workloads import random_dense

    rng = np.random.default_rng(0)
    print(f"nproc {os.cpu_count()}, numpy {np.__version__}, BLAS threads 1")
    for n in (4, 8, 12, 16, 20, 24):
        A, B, Q, R = random_dense(rng, n)
        best, med = timed(lambda: solve_care(A, B, Q, R), 5 if n < 20 else 3)
        iters = solve_care(A, B, Q, R).iterations
        print(f"solve_care n={n}: min {1e3 * best:.1f} ms, median {1e3 * med:.1f} ms, "
              f"{iters} iterations")
    for name, cfg in (("qr", SweepConfig.default_qr()), ("qa", SweepConfig.default_qa())):
        best, med = timed(lambda: run_sweep(cfg), 3)
        print(f"default {name} sweep: min {best:.3f} s, median {med:.3f} s")
    for n in (1024, 4096):
        q, r, _ = models.diffusion_decentralizing_cost(n)
        a, b = models.diffusion_operator(n), identity_spec(n)
        best, med = timed(lambda: find_uniform_gain(a, b, q, r), 5)
        print(f"find_uniform_gain n={n}: min {1e3 * best:.1f} ms, median {1e3 * med:.1f} ms")

    n = 1024
    q, r, _ = models.diffusion_decentralizing_cost(n)
    a, b = models.diffusion_operator(n), identity_spec(n)
    per_second = {}
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < 20.0:
        t0 = time.perf_counter()
        find_uniform_gain(a, b, q, r)
        per_second.setdefault(int(t0 - t_start), []).append(time.perf_counter() - t0)
    medians = [1e3 * statistics.median(v) for v in per_second.values()]
    print("find_uniform_gain n=1024, per-second median ms: "
          + " ".join(f"{m:.0f}" for m in medians))
    print(f"  range {min(medians):.0f}-{max(medians):.0f} ms")


if __name__ == "__main__":
    main()
