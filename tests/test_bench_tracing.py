"""The benchmark's span tracer must find every function it traces.

bench/tracing.py wraps declqr functions by (module, attribute) name, so a
source change that drops or renames one of them breaks `bench/run.py
--trace 1`. This test catches that in the tier-1 suite.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import declqr.cli  # noqa: F401  (the tracer wraps names in every declqr module)
from declqr import LqrProblem, decentral, solve_care
from helpers import random_stabilizable_dense

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    originals = {
        (mod, attr): getattr(sys.modules[f"declqr.{mod}"], attr) for mod, attr in tracing.TRACED
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = decentral.oracle_check(
            LqrProblem(A=[[1.0, 1.0], [-1.0, 1.0]], B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        )
    finally:
        tracer.remove()
    assert report.oracle_decentralized
    names = {span[0] for span in tracer.spans}
    assert {"decentral.oracle_check", "lqr.solve_lqr", "matcore.solve_care"} <= names
    assert len(tracer.care_iterations) == 1
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[f"declqr.{mod}"], attr) is original



def test_riccati_solve_books_its_lyapunov_hurwitz_and_weight_checks(monkeypatch):
    # The benchmark's per-layer metrics count these calls inside solve_care.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        solve_care([[1.0, 1.0], [-1.0, 1.0]], np.eye(2), np.eye(2), np.eye(2))
        names = [span[0] for span in tracer.spans]
        # The 31st draw of this sampler with B scaled by 1e6 takes Kleinman
        # steps, so its Lyapunov solves are booked.
        rng = np.random.default_rng(31)
        for _ in range(31):
            A, B, Q, R = random_stabilizable_dense(rng)
        solve_care(A, 1e6 * B, Q, R)
    finally:
        tracer.remove()
    # A healthy solve accepts its read-off, with no Kleinman step, and
    # certifies its closed loop by a Lyapunov inequality, with no is_hurwitz
    # call.
    assert names.count("matcore.solve_lyapunov") == 0
    assert names.count("matcore.is_hurwitz") == 0
    assert names.count("matcore.require_spd") == 2
    assert tracer.lyapunov_operator_bytes > 0
