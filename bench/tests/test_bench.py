"""Tests of the benchmark itself: its checks, its arithmetic, its tracer and
one short run per workload on a seed the benchmark was not tuned on.

    python3 -m pytest bench/tests -q
"""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import stats
import tracing
from declqr import cli, lqr, matcore, sysfile

ROOT = Path(__file__).resolve().parents[2]


def _cli(argv):
    buf = io.StringIO()
    assert cli.cli_main(argv, out=buf) == 0
    return buf.getvalue()


def _replace_matrix_entry(text, name, row, col, factor):
    """Scale entry (row, col) of the printed matrix `name`."""
    lines = text.splitlines()
    start = lines.index(f"{name}:") + 1 + row
    cells = lines[start].split()
    cells[col] = repr(float(cells[col]) * factor)
    lines[start] = "  " + " ".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture
def diagonal_system(tmp_path):
    """B = R = I, Q = D^2 - A'D - DA: the optimum is P = K = D."""
    A = np.array([[0.5, 1.0, 0.0], [-0.3, 0.2, 0.4], [0.1, -0.6, -0.4]])
    D = np.diag([5.0, 6.0, 7.0])
    Q = D @ D - (A.T @ D + D @ A)
    mats = (A, np.eye(3), (Q + Q.T) / 2.0, np.eye(3))
    path = tmp_path / "sys.json"
    sysfile.save_system(sysfile.dense_document(*mats), str(path))
    return mats, str(path)


def test_solve_check_rejects_perturbed_p(diagonal_system):
    mats, path = diagonal_system
    text = _cli(["solve", "--system", path])
    assert checks.check_solve(text, *mats) is None
    planted = _replace_matrix_entry(text, "P", 1, 1, 1.0 + 1e-5)
    assert "residual" in checks.check_solve(planted, *mats)


def test_oracle_check_rejects_flipped_verdict(diagonal_system):
    mats, path = diagonal_system
    text = _cli(["check", "oracle", "--system", path])
    assert checks.check_oracle(text, *mats, True) is None
    planted = text.replace("oracle decentralized: true", "oracle decentralized: false")
    assert "verdict" in checks.check_oracle(planted, *mats, True)


def test_reduce_check_rejects_flipped_verdict(tmp_path):
    n = 2
    blocks = (
        -np.diag([1.0, 2.0]), -np.diag([0.5, 0.7]), np.diag([1.0, 1.5]),
        np.eye(n), np.diag([2.0, 1.0]), np.eye(n),
    )
    from declqr.secondorder import SecondOrderSystem

    path = tmp_path / "so.json"
    sysfile.save_system(sysfile.second_order_document(SecondOrderSystem(*blocks)), str(path))
    text = _cli(["reduce", "--system", str(path)])
    assert checks.check_reduce(text, *blocks, True) is None
    planted = text.replace("oracle decentralized: true", "oracle decentralized: false")
    assert "verdict" in checks.check_reduce(planted, *blocks, True)


def _sweep_outputs(tmp_path, kind, axis):
    config = {"kind": kind, "axis1": axis, "axis2": axis, "curve_samples": 4}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    csv_path = tmp_path / "out.csv"
    _cli(["sweep", "--config", str(cfg), "--output", str(csv_path)])
    grid = np.geomspace(axis["min"], axis["max"], axis["steps"])
    points = [(float(x1), float(x2)) for x1 in grid for x2 in grid]
    return points, csv_path.read_bytes(), (tmp_path / "out.json").read_bytes()


@pytest.mark.parametrize("kind", ["qr", "qa"])
def test_sweep_check_rejects_wrong_h2(tmp_path, kind):
    axis = {"min": 0.5, "max": 2.0, "steps": 3, "spacing": "log"}
    points, csv_bytes, sidecar = _sweep_outputs(tmp_path, kind, axis)
    assert checks.check_sweep(kind, points, csv_bytes, sidecar) is None
    header, first, rest = csv_bytes.decode().split("\n", 2)
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-4))
    planted = "\n".join([header, ",".join(cells), rest]).encode()
    assert "h2" in checks.check_sweep(kind, points, planted, sidecar)


def test_sweep_check_rejects_flipped_flag(tmp_path):
    axis = {"min": 0.5, "max": 2.0, "steps": 3, "spacing": "log"}
    points, csv_bytes, sidecar = _sweep_outputs(tmp_path, "qr", axis)
    text = csv_bytes.decode().splitlines()
    centre = 1 + 4  # grid point (1, 1), the only decentralized one
    cells = text[centre].split(",")
    assert cells[3] == "1"
    cells[3] = "0"
    text[centre] = ",".join(cells)
    planted = ("\n".join(text) + "\n").encode()
    assert "flag" in checks.check_sweep("qr", points, planted, sidecar)


def test_paper_conditions_match_the_locus():
    A = np.array([[1.0, 1.0], [-1.0, 1.0]])
    assert checks.paper_2x2_decentralized(A, 1.0, 1.0, 1.0, 1.0)
    assert not checks.paper_2x2_decentralized(A, 1.2, 1.0, 1.0, 1.0)
    same_sign_coupling = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert not checks.paper_2x2_decentralized(same_sign_coupling, 1.0, 1.0, 1.0, 1.0)
    opposite_self_terms = np.array([[1.0, 1.0], [-1.0, -1.0]])
    assert not checks.paper_2x2_decentralized(opposite_self_terms, 1.0, 1.0, 1.0, 1.0)


def test_ring_check_rejects_wrong_c():
    n = 8
    row = np.zeros(n)
    row[0], row[1], row[-1] = -2.0, 1.0, 1.0
    eye = np.eye(n)[0]
    q_row = -2.0 * row
    q_row[0] += 1.0
    exact = checks.exact_uniform_gain(checks.exact_frequency_gains(row, eye, q_row, eye))
    assert exact == pytest.approx(1.0, abs=1e-12)
    assert checks.check_ring(1.0, exact) is None
    assert "exact c" in checks.check_ring(1.0 + 1e-6, exact)
    assert "None" in checks.check_ring(None, exact)
    assert "no uniform gain" in checks.check_ring(1.0, None)


def test_exact_gains_cover_nonsymmetric_a():
    """The five-site example: K = 4 I although a(k) is complex."""
    n = 5
    row = np.array([0.3, 1.0, 0.0, 0.0, -0.2])
    ah = np.fft.ifft(row) * n
    q_row = np.real(np.fft.fft(16.0 - 8.0 * ah.real)) / n
    eye = np.eye(n)[0]
    gains = checks.exact_frequency_gains(row, eye, q_row, eye)
    assert checks.exact_uniform_gain(gains) == pytest.approx(4.0, abs=1e-12)
    P, K = checks.care_reference(
        *(np.array([np.roll(v, i) for i in range(n)]) for v in (row, eye, q_row, eye))
    )
    assert np.allclose(K, 4.0 * np.eye(n), atol=1e-9)


def test_percentile_interpolates_between_ranks():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 100) == 5.0
    assert stats.percentile(xs, 90) == pytest.approx(4.6)
    assert stats.percentile(list(range(1, 101)), 90) == pytest.approx(90.1)
    assert stats.percentile(xs, 90) == pytest.approx(float(np.percentile(xs, 90)))
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 3.5, 6.0, 0),  # overlaps a: the union counts once
        ("d", 9.0, 12.0, 0),  # runs past its parent: clipped at 10
    ]
    assert stats.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])
    assert stats.covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 3.5) == 2.5


def test_layer_metrics_average_per_op():
    spans = [
        (tracing.OP_SPAN, 0.0, 0.010, -1),
        ("matcore.solve_lyapunov", 0.001, 0.004, 0),
        (tracing.OP_SPAN, 0.010, 0.030, -1),
        ("matcore.solve_lyapunov", 0.011, 0.012, 2),
        ("matcore.solve_lyapunov", 0.012, 0.016, 2),
    ]
    out = tracing.layer_metrics(spans, [3, 5], 16 * 10 ** 6)
    assert out["matcore.solve_lyapunov.calls"] == 1.5
    assert out["matcore.solve_lyapunov.self_ms"] == pytest.approx(4.0)
    assert out["matcore.solve_lyapunov.operator_mb"] == 8.0
    assert out["matcore.solve_care.iterations"] == 4.0
    assert out["spectral.circulant_eigenvalues.calls"] == 0.0


def test_tracer_wraps_every_reference_and_restores_them():
    original = matcore.solve_care
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lqr.solve_care is not original
        prob = lqr.LqrProblem(A=[[1.0, 1.0], [-1.0, 1.0]], B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        lqr.solve_lqr(prob)
    finally:
        tracer.remove()
    assert lqr.solve_care is original and matcore.solve_care is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "lqr.LqrProblem"
    solve = names.index("lqr.solve_lqr")
    care = names.index("matcore.solve_care")
    assert tracer.spans[care][3] == solve
    assert tracer.care_iterations and tracer.lyapunov_operator_bytes > 0


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# Fraction of each workload's ops that fail by the known non-symmetric-ring
# fault: one op in eight of every ring round.
EXPECTED_FAILED_SHARE = {"sweep": 0.0, "dense": 0.0, "ring": 1 / 8}


@pytest.mark.parametrize("workload", ["sweep", "dense", "ring"])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_on_unseen_seed_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "90210",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == result["attempted"] * EXPECTED_FAILED_SHARE[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
