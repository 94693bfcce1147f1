"""Acceptance suite: every criterion runs at its stated tolerance and prints
one [PASS]/[FAIL] line. Run with `pytest tests/test_acceptance.py -v -s`."""

import io
import time

import numpy as np
import pytest

from declqr import (
    CirculantSpec,
    SecondOrderSystem,
    SweepAxis,
    SweepConfig,
    UnstabilizableError,
    chamber_system,
    circulant_lqr_problem,
    circulant_materialize,
    diffusion_decentralizing_cost,
    diffusion_operator,
    find_uniform_gain,
    identity_spec,
    is_hurwitz,
    oracle_check,
    pattern_decentralized,
    predator_prey_jacobian,
    reduce_and_solve,
    run_sweep,
    single_station_neighborhoods,
    solve_care,
    solve_lqr,
    synthesize_diagonal_cost,
)
from declqr.cli import cli_main
from declqr.models import ChamberParams, PredatorPreyParams, perf_example_system
from declqr.sysfile import circulant_document, save_system
from helpers import (
    pd_symmetric_circulant_spec,
    random_stabilizable_dense,
    uniform_gain_instance,
)

SQRT2 = np.sqrt(2.0)


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


def test_criterion_01_worked_two_by_two_instance():
    A = np.array([[1.0, 2.0], [-3.0, 4.0]])
    B, Q, R = np.eye(2), np.diag([3.0, 8.0]), np.diag([1.0, 1.0 / 6.0])
    solve_care(A, B, Q, R)  # warm-up outside the timed run
    t0 = time.perf_counter()
    res = solve_care(A, B, Q, R)
    elapsed = time.perf_counter() - t0
    p_err = np.max(np.abs(res.P - np.diag([3.0, 2.0])))
    k_err = np.max(np.abs(res.K - np.diag([3.0, 12.0])))
    ok = p_err < 1e-8 and k_err < 1e-8 and res.residual <= 1e-10 and elapsed < 0.005
    assert report(
        1,
        ok,
        f"P err {p_err:.1e}, K err {k_err:.1e}, residual {res.residual:.1e}, "
        f"runtime {1e3 * elapsed:.2f} ms",
    )


def test_criterion_02_unit_ratio_plant():
    sol = solve_lqr(perf_example_system(q0=1.0, gamma2=1.0))
    k_err = np.max(np.abs(sol.K - (1.0 + SQRT2) * np.eye(2)))
    h2_err = abs(sol.h2_squared - 2.0 * (1.0 + SQRT2))
    ok = k_err < 1e-8 and h2_err < 1e-8
    assert report(2, ok, f"K err {k_err:.1e}, h2^2 err {h2_err:.1e}")


def test_criterion_03_ring_diffusion_identity_gain():
    worst_k = worst_c = 0.0
    for n in (4, 8, 16):
        for delta in (0.5, 1.0):
            d2 = diffusion_operator(n, delta)
            q, r, _ = diffusion_decentralizing_cost(n, delta)
            rep = oracle_check(circulant_lqr_problem(d2, identity_spec(n), q, r))
            worst_k = max(worst_k, float(np.linalg.norm(rep.K - np.eye(n))))
            c = find_uniform_gain(d2, identity_spec(n), q, r)
            worst_c = max(worst_c, abs(c - 1.0) if c is not None else np.inf)
    ok = worst_k <= 1e-6 and worst_c <= 1e-9
    assert report(3, ok, f"max |K - I| {worst_k:.1e}, max |c - 1| {worst_c:.1e}")


def test_criterion_04_randomized_sign_condition_soundness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    failures = 0
    worst = 0.0
    for _ in range(200):
        s = rng.choice([-1.0, 1.0])
        a1 = s * rng.uniform(0.1, 3.0)
        a_m1 = -s * rng.uniform(0.1, 3.0)
        t = rng.choice([-1.0, 1.0])
        a0 = t * rng.uniform(0.1, 3.0)
        a2 = t * rng.uniform(0.1, 3.0)
        sys2 = synthesize_diagonal_cost(
            a0, a1, a_m1, a2, q2=rng.uniform(0.1, 10.0), gamma2=rng.uniform(0.1, 10.0)
        )
        rep = oracle_check(sys2.lqr_problem())
        worst = max(worst, rep.offdiag_mass)
        if not rep.oracle_decentralized or rep.offdiag_mass > 1e-6:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 0.5
    assert report(
        4, ok, f"200 draws, {failures} failures, worst mass {worst:.1e}, {elapsed:.2f} s"
    )


def test_criterion_05_uniform_gain_bidirectional_consistency():
    rng = np.random.default_rng(103)
    present = absent = 0
    failures = 0
    for trial in range(200):
        n = int(rng.integers(2, 13))
        if trial % 2 == 0:
            a, b, q, r, c_true = uniform_gain_instance(rng, n)
        else:
            while True:
                a = CirculantSpec(rng.uniform(-1.5, 1.5, n))
                b = pd_symmetric_circulant_spec(rng, n)
                q = pd_symmetric_circulant_spec(rng, n)
                r = pd_symmetric_circulant_spec(rng, n)
                rep_probe = oracle_check(circulant_lqr_problem(a, b, q, r))
                if not 1e-6 < rep_probe.offdiag_mass <= 1e-4:
                    break  # outside the dead band
        c = find_uniform_gain(a, b, q, r)
        rep = oracle_check(circulant_lqr_problem(a, b, q, r))
        if c is not None:
            present += 1
            gap = np.linalg.norm(rep.K - c * np.eye(n))
            if gap > 1e-6 * max(1.0, abs(c) * np.sqrt(n)):
                failures += 1
        else:
            absent += 1
            if rep.offdiag_mass <= 1e-4:
                failures += 1
    ok = failures == 0 and present >= 50 and absent >= 50
    assert report(
        5, ok, f"{present} present / {absent} absent over 200 quadruples, {failures} failures"
    )


def test_criterion_06_balanced_two_by_two_circulant():
    from declqr import circulant_pair_conditions

    a = CirculantSpec([-2.0, -1.0])
    b = CirculantSpec([2.0, 1.0])
    q = CirculantSpec([1.0, 0.0])
    r = CirculantSpec([1.0, 0.0])
    holds, c = circulant_pair_conditions(a, b, q, r)
    rep = oracle_check(circulant_lqr_problem(a, b, q, r))
    gap = np.linalg.norm(rep.K - (SQRT2 - 1.0) * np.eye(2))
    ok = holds and c is not None and abs(c - (SQRT2 - 1.0)) < 1e-9 and gap <= 1e-6
    assert report(6, ok, f"holds={holds}, c={c}, |K - (sqrt2-1) I| = {gap:.1e}")


def test_criterion_07_second_order_ring_diffusion():
    D2 = circulant_materialize(diffusion_operator(4))
    eye = np.eye(4)
    sol = reduce_and_solve(
        SecondOrderSystem(A1=D2, A2=D2, B0=eye, Q0=eye - 2 * D2, Q2=2 * eye - 4 * D2, R0=eye)
    )
    pos_err = np.linalg.norm(sol.gain_pos - eye)
    vel_err = np.linalg.norm(sol.gain_vel - 2 * eye)
    p0_err = np.max(np.abs(sol.full_P[:4, :4] - (2 * eye - 3 * D2)))
    ok = (
        pos_err <= 1e-6
        and vel_err <= 1e-6
        and sol.agreement_residual <= 1e-7
        and p0_err <= 1e-6
    )
    assert report(
        7,
        ok,
        f"gain errs {pos_err:.1e}/{vel_err:.1e}, agreement {sol.agreement_residual:.1e}, "
        f"P0 err {p0_err:.1e}",
    )


def test_criterion_08_predator_prey_weight_ratio_identity():
    rng = np.random.default_rng(107)
    checked = failures = 0
    while checked < 500:
        p = PredatorPreyParams(*rng.uniform(0.1, 5.0, 6))
        if p.r1 <= p.b * p.k2:
            continue
        J = predator_prey_jacobian(p)
        sys2 = synthesize_diagonal_cost(J[0, 0], J[0, 1], J[1, 0], J[1, 1])
        target = p.e * p.k2 * p.r1 / (p.k1 * p.r2)
        if abs(sys2.q0 / sys2.q2 - target) > 1e-10 * target:
            failures += 1
        checked += 1
    ok = failures == 0
    assert report(8, ok, f"500 draws with dominant prey growth, {failures} failures")


def test_criterion_09_sweep_properties():
    t0 = time.perf_counter()
    qr = run_sweep(SweepConfig.from_dict({"kind": "qr"}))
    grid = slice(qr.points)
    center = np.argmin(np.abs(qr.axis1[grid] - 1.0) + np.abs(qr.axis2[grid] - 1.0))
    h2s = qr.h2[grid][np.array(qr.status[grid]) == "ok"]
    interior = min(h2s) < qr.h2[center] < max(h2s)
    qa = run_sweep(SweepConfig.from_dict({"kind": "qa"}))
    curve = qa.points + np.flatnonzero(np.array(qa.status[qa.points:]) == "ok")
    curve_ok = len(curve) >= 20 and all(qa.decentralized[curve])
    curve_h2 = qa.h2[curve]
    variation = (max(curve_h2) - min(curve_h2)) / min(curve_h2)
    elapsed = time.perf_counter() - t0
    center_ok = bool(qr.decentralized[center])
    ok = center_ok and interior and curve_ok and variation > 0.10 and elapsed < 0.1
    assert report(
        9,
        ok,
        f"center decentralized={center_ok}, interior={interior}, "
        f"{len(curve)} curve samples all decentralized={curve_ok}, "
        f"variation {100 * variation:.0f}%, {elapsed:.1f} s",
    )


def test_criterion_10_riccati_solver_robustness():
    rng = np.random.default_rng(109)
    solved = 0
    failures = 0
    worst_rel = 0.0
    while solved < 500:
        A, B, Q, R = random_stabilizable_dense(rng)
        try:
            res = solve_care(A, B, Q, R)
        except UnstabilizableError:
            continue  # not an admissible instance under the operational certificate
        solved += 1
        rel = res.residual / max(1.0, np.linalg.norm(Q))
        worst_rel = max(worst_rel, rel)
        pd_ok = True
        try:
            np.linalg.cholesky((res.P + res.P.T) / 2)
        except np.linalg.LinAlgError:
            pd_ok = False
        if rel > 1e-8 or not pd_ok or not is_hurwitz(A - B @ res.K):
            failures += 1
    ok = failures == 0
    assert report(10, ok, f"500 instances, {failures} failures, worst residual ratio {worst_rel:.1e}")


def test_criterion_11_chamber_adjudication_report(tmp_path):
    params = ChamberParams(alpha0=3.0, alpha1=1.0, beta0=3.0, beta1=1.0)
    chamber = chamber_system(params)
    path = tmp_path / "chamber.json"
    save_system(
        circulant_document(
            chamber.a, chamber.b, identity_spec(2), identity_spec(2),
            model={"name": "chamber", "alpha0": 3.0, "alpha1": 1.0, "beta0": 3.0, "beta1": 1.0},
        ),
        path,
    )
    out = io.StringIO()
    status = cli_main(["check", "oracle", "--system", str(path)], out=out)
    text = out.getvalue()

    prediction = find_uniform_gain(chamber.a, chamber.b, identity_spec(2), identity_spec(2))
    rep = oracle_check(circulant_lqr_problem(chamber.a, chamber.b, identity_spec(2), identity_spec(2)))
    consistent = (prediction is not None) == rep.oracle_decentralized

    ok = (
        status == 0
        and chamber.magnitude_condition
        and not chamber.entry_condition
        and "magnitude balance (alpha vs beta ratios): true" in text
        and "entry balance (signed entries, a0 = -alpha0): false" in text
        and "oracle decentralized:" in text
        and "consistency (oracle matches prediction): true" in text
        and consistent
    )
    assert report(
        11,
        ok,
        "report emitted; magnitude condition true, entry condition false, "
        f"oracle decentralized={rep.oracle_decentralized}, machinery consistent={consistent}",
    )


def test_criterion_12_ten_thousand_point_sweep():
    # Linear axes with step 0.02 put (1, 1), the plant's one decentralized
    # point, on the grid at index 45.
    cfg = SweepConfig(
        kind="qr",
        axis1=SweepAxis("q0_over_q2", 0.1, 2.08, 100, spacing="linear"),
        axis2=SweepAxis("gamma0_over_gamma2", 0.1, 2.08, 100, spacing="linear"),
    )
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    center = np.argmin(np.abs(result.axis1 - 1.0) + np.abs(result.axis2 - 1.0))
    center_ok = bool(result.decentralized[center])
    solved = result.status.count("ok")
    ok = result.points == 10_000 and solved == 10_000 and center_ok and elapsed < 0.5
    assert report(
        12,
        ok,
        f"{solved}/{result.points} points solved, point nearest (1, 1) "
        f"decentralized={center_ok}, {elapsed:.2f} s",
    )


def test_criterion_13_large_ring_uniform_gain():
    n = 4096
    d2 = diffusion_operator(n)
    q, r, _ = diffusion_decentralizing_cost(n)
    t0 = time.perf_counter()
    c = find_uniform_gain(d2, identity_spec(n), q, r)
    elapsed = time.perf_counter() - t0
    err = abs(c - 1.0) if c is not None else np.inf
    ok = err <= 1e-9 and elapsed < 0.5
    assert report(13, ok, f"n = {n} diffusion ring, |c - 1| {err:.1e}, {elapsed:.2f} s")
