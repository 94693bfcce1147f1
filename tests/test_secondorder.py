import numpy as np
import pytest

from declqr import (
    CirculantSpec,
    NonconvergentError,
    SecondOrderSystem,
    SolverError,
    UnstabilizableError,
    check_second_order_decentral,
    circulant_eigenvalues,
    circulant_materialize,
    diagonal_riccati_roots,
    find_uniform_gain,
    identity_spec,
    oracle_check,
    pattern_decentralized,
    position_velocity_neighborhoods,
    reduce_and_solve,
    solve_care,
)
from declqr import matcore, secondorder
from declqr.decentral import DiagonalCost2x2
from declqr.lqr import LqrProblem, solve_lqr
from declqr.models import diffusion_operator
from helpers import (
    eigenvalues_to_row,
    is_circulant,
    pd_symmetric_circulant_spec,
    symmetric_circulant_row,
    uniform_gain_instance,
)


def diffusion_second_order(n=4):
    D2 = circulant_materialize(diffusion_operator(n))
    eye = np.eye(n)
    return SecondOrderSystem(
        A1=D2, A2=D2, B0=eye, Q0=eye - 2 * D2, Q2=2 * eye - 4 * D2, R0=eye
    ), D2


class TestAugment:
    def test_scalar_assembly(self):
        sys2 = SecondOrderSystem(
            A1=[[-1.0]], A2=[[-1.0]], B0=[[1.0]], Q0=[[1.0]], Q2=[[1.0]], R0=[[1.0]]
        )
        prob = LqrProblem(*secondorder._augmented(sys2))
        assert np.array_equal(prob.A, [[0.0, 1.0], [-1.0, -1.0]])
        assert np.array_equal(prob.B, [[0.0], [1.0]])
        assert np.array_equal(prob.Q, np.eye(2))

    def test_diffusion_shapes(self):
        sys2, _ = diffusion_second_order(4)
        prob = LqrProblem(*secondorder._augmented(sys2))
        assert prob.A.shape == (8, 8)
        assert prob.B.shape == (8, 4)
        assert prob.Q.shape == (8, 8)
        assert prob.R.shape == (4, 4)

    def test_block_companion_structure(self):
        sys2 = SecondOrderSystem(
            A1=-np.eye(2), A2=-np.eye(2), B0=np.eye(2), Q0=np.eye(2), Q2=np.eye(2), R0=np.eye(2)
        )
        prob = LqrProblem(*secondorder._augmented(sys2))
        assert np.array_equal(prob.A[:2, 2:], np.eye(2))
        assert np.array_equal(prob.A[2:, :2], -np.eye(2))
        assert np.array_equal(prob.A[:2, :2], np.zeros((2, 2)))

    def test_indefinite_weight_rejected(self):
        from declqr import InputError

        with pytest.raises(InputError):
            SecondOrderSystem(
                A1=np.eye(2), A2=np.eye(2), B0=np.eye(2),
                Q0=np.diag([1.0, -1.0]), Q2=np.eye(2), R0=np.eye(2),
            )

    @pytest.mark.parametrize("name", ["Q0", "Q2", "R0"])
    def test_wrongly_sized_weight_rejected(self, name):
        from declqr import InputError

        blocks = {key: np.eye(2) for key in ("A1", "A2", "B0", "Q0", "Q2", "R0")}
        blocks[name] = np.eye(3)
        with pytest.raises(InputError, match=f"{name} must have 2 rows, got 3"):
            SecondOrderSystem(**blocks)


class TestDiffusionReduction:
    def test_stage_solutions_and_gains(self):
        sys2, D2 = diffusion_second_order(4)
        sol = reduce_and_solve(sys2)
        eye = np.eye(4)
        assert np.allclose(sol.P1, eye, atol=1e-8)
        assert np.allclose(sol.Qbar, 4 * eye - 4 * D2, atol=1e-8)
        assert np.allclose(sol.P2, 2 * eye, atol=1e-8)
        assert np.allclose(sol.gain_pos, eye, atol=1e-6)
        assert np.allclose(sol.gain_vel, 2 * eye, atol=1e-6)

    def test_full_solve_agrees(self):
        sys2, D2 = diffusion_second_order(4)
        sol = reduce_and_solve(sys2)
        assert sol.agreement_residual <= 1e-7
        P0 = sol.full_P[:4, :4]
        assert np.allclose(P0, 2 * np.eye(4) - 3 * D2, atol=1e-6)
        # Schur complement of the velocity block stays positive definite.
        schur = P0 - sol.full_P[:4, 4:] @ np.linalg.solve(sol.full_P[4:, 4:], sol.full_P[4:, :4])
        np.linalg.cholesky((schur + schur.T) / 2)

    def test_decentral_verdict(self):
        sys2, _ = diffusion_second_order(4)
        report, _ = check_second_order_decentral(reduce_and_solve(sys2))
        assert report.oracle_decentralized
        assert report.offdiag_mass <= 1e-8

    def test_identity_velocity_weight_breaks_it(self):
        sys2, D2 = diffusion_second_order(4)
        broken = SecondOrderSystem(
            A1=sys2.A1, A2=sys2.A2, B0=sys2.B0, Q0=sys2.Q0, Q2=np.eye(4), R0=sys2.R0
        )
        sol = reduce_and_solve(broken)
        report, verdicts = check_second_order_decentral(sol)
        assert not report.oracle_decentralized
        # The stacked judgment gives each gain the Python bool and float of
        # its own pattern test.
        mask = position_velocity_neighborhoods(4)
        reduced = verdicts[0]
        for got, gain in (((report.oracle_decentralized, report.offdiag_mass), sol.full_gain),
                          ((reduced.holds, reduced.witness["offdiag_mass"]),
                           np.hstack([sol.gain_pos, sol.gain_vel]))):
            assert got == pattern_decentralized(gain, mask)
            assert [type(v) for v in got] == [bool, float]

    def test_scalar_always_decentralized(self):
        sys2 = SecondOrderSystem(
            A1=[[-1.0]], A2=[[-1.0]], B0=[[1.0]], Q0=[[1.0]], Q2=[[1.0]], R0=[[1.0]]
        )
        report, _ = check_second_order_decentral(reduce_and_solve(sys2))
        assert report.oracle_decentralized


class TestTwoByTwoDiagonalStages:
    """Both stage problems satisfy the 2x2 diagonal-cost conditions, so the
    reduced gain blocks are diagonal; the full augmented solve is recorded and
    disagrees here, because its corner block is asymmetric."""

    @staticmethod
    def _system():
        A = np.array([[1.0, 2.0], [-3.0, 4.0]])
        Q0 = np.diag([3.0, 8.0])
        R0 = np.diag([1.0, 1.0 / 6.0])
        # Stage 1 gives P1 = diag(3, 2); pick Q2 so Qbar = Q2 + 2 P1 keeps the
        # stage-2 weight ratio at 3/8.
        Q2 = np.diag([3.0, 20.0])
        return SecondOrderSystem(A1=A, A2=A, B0=np.eye(2), Q0=Q0, Q2=Q2, R0=R0)

    def test_reduced_blocks_are_diagonal(self):
        sol = reduce_and_solve(self._system())
        assert np.allclose(sol.P1, np.diag([3.0, 2.0]), atol=1e-8)
        assert np.allclose(sol.Qbar, np.diag([9.0, 24.0]), atol=1e-8)
        stage2 = DiagonalCost2x2(
            a0=1.0, a1=2.0, a_minus1=-3.0, a2=4.0,
            q0=9.0, q2=24.0, gamma0=1.0, gamma2=6.0,
        )
        p0, p2 = diagonal_riccati_roots(stage2)
        assert np.allclose(sol.P2, np.diag([p0, p2]), atol=1e-8)
        assert np.allclose(sol.gain_pos, np.diag([3.0, 12.0]), atol=1e-6)
        assert np.allclose(sol.gain_vel, np.diag([p0, 6.0 * p2]), atol=1e-6)

    def test_each_stage_oracle_decentralizes(self):
        sys2 = self._system()
        stage1 = LqrProblem(A=sys2.A1, B=np.eye(2), Q=sys2.Q0, R=sys2.R0)
        assert oracle_check(stage1).oracle_decentralized
        sol = reduce_and_solve(sys2)
        stage2 = LqrProblem(A=sys2.A2, B=np.eye(2), Q=sol.Qbar, R=sys2.R0)
        assert oracle_check(stage2).oracle_decentralized

    def test_full_solve_disagrees_and_is_recorded(self):
        # The stage-wise construction does not carry over to the coupled
        # augmented problem for general (non-circulant) blocks: the true
        # corner block is asymmetric and the full gain is not block-diagonal.
        sol = reduce_and_solve(self._system())
        assert sol.corner_asymmetry > 0.1
        assert sol.agreement_residual > 1e-4
        report, verdicts = check_second_order_decentral(sol)
        assert not report.oracle_decentralized
        assert [(v.name, v.holds) for v in verdicts] == [
            ("reduced_gain_blocks_diagonal", True),
            ("reduction_matches_full_solve", False),
        ]


class TestSymmetricCirculantFamily:
    def test_reduction_matches_full_solve(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            sys2 = SecondOrderSystem(
                A1=circulant_materialize(CirculantSpec(symmetric_circulant_row(rng, n))),
                A2=circulant_materialize(CirculantSpec(symmetric_circulant_row(rng, n))),
                B0=circulant_materialize(pd_symmetric_circulant_spec(rng, n)),
                Q0=circulant_materialize(pd_symmetric_circulant_spec(rng, n)),
                Q2=circulant_materialize(pd_symmetric_circulant_spec(rng, n)),
                R0=circulant_materialize(pd_symmetric_circulant_spec(rng, n)),
            )
            sol = reduce_and_solve(sys2)
            scale = max(1.0, np.linalg.norm(sol.gain_pos), np.linalg.norm(sol.gain_vel))
            assert sol.agreement_residual <= 1e-7 * scale
            assert np.linalg.norm(sol.P1 - sol.P1.T) <= 1e-9 * max(1.0, np.linalg.norm(sol.P1))
            np.linalg.cholesky((sol.Qbar + sol.Qbar.T) / 2)

    def test_two_stage_uniform_gains_predict_full_blocks(self):
        rng = np.random.default_rng(67)
        for n in (3, 4, 6):
            sys2, c1, c2, specs = self._two_stage_instance(rng, n)
            sol = reduce_and_solve(sys2)
            eye = np.eye(n)
            assert np.linalg.norm(sol.full_gain[:, :n] - c1 * eye) <= 1e-6 * max(1.0, abs(c1))
            assert np.linalg.norm(sol.full_gain[:, n:] - c2 * eye) <= 1e-6 * max(1.0, abs(c2))
            # The stage-2 prediction evaluated on the computed Qbar.
            assert is_circulant(sol.Qbar, tol=1e-8)
            a2_spec, b0_spec, r0_spec = specs
            qbar_spec = CirculantSpec(sol.Qbar[0])
            c2_found = find_uniform_gain(a2_spec, b0_spec, qbar_spec, r0_spec)
            assert c2_found == pytest.approx(c2, rel=1e-6)
            report, _ = check_second_order_decentral(sol)
            assert report.oracle_decentralized

    @staticmethod
    def _two_stage_instance(rng, n):
        a1, b0, q0, r0, c1 = uniform_gain_instance(rng, n)
        a2 = CirculantSpec(symmetric_circulant_row(rng, n))
        a2h = np.real(circulant_eigenvalues(a2))
        bh = np.real(circulant_eigenvalues(b0))
        rh = np.real(circulant_eigenvalues(r0))
        p1h = c1 * rh / bh
        c2 = float(max(np.max(2 * a2h / bh), np.max(a2h / bh), 0.0) + 0.5)
        while True:
            qbar_h = rh * (c2 * c2 - 2.0 * c2 * a2h / bh)
            q2h = qbar_h - 2.0 * p1h
            if np.all(q2h > 1e-6):
                break
            c2 += 0.5
        q2 = CirculantSpec(eigenvalues_to_row(q2h))
        sys2 = SecondOrderSystem(
            A1=circulant_materialize(a1),
            A2=circulant_materialize(a2),
            B0=circulant_materialize(b0),
            Q0=circulant_materialize(q0),
            Q2=circulant_materialize(q2),
            R0=circulant_materialize(r0),
        )
        return sys2, c1, c2, (a2, b0, r0)


class TestGeneralInstances:
    def test_asymmetry_is_recorded_not_assumed(self):
        rng = np.random.default_rng(71)
        seen_asymmetric = False
        for _ in range(10):
            n = int(rng.integers(2, 5))
            M1 = rng.uniform(-1, 1, (n, n))
            M2 = rng.uniform(-1, 1, (n, n))
            sys2 = SecondOrderSystem(
                A1=rng.uniform(-1, 1, (n, n)),
                A2=rng.uniform(-1, 1, (n, n)),
                B0=np.eye(n),
                Q0=M1.T @ M1 + np.eye(n),
                Q2=M2.T @ M2 + np.eye(n),
                R0=np.eye(n),
            )
            sol = reduce_and_solve(sys2)
            assert np.isfinite(sol.agreement_residual)
            assert sol.corner_asymmetry >= 0.0
            seen_asymmetric = seen_asymmetric or sol.corner_asymmetry > 1e-6
        assert seen_asymmetric

    def test_stage_labels_on_failure(self):
        with pytest.raises(UnstabilizableError, match="^stage-P1: unstabilizable"):
            reduce_and_solve(
                SecondOrderSystem(
                    A1=np.eye(2), A2=-np.eye(2), B0=np.diag([1.0, 0.0]),
                    Q0=np.eye(2), Q2=np.eye(2), R0=np.eye(2),
                )
            )
        with pytest.raises(SolverError, match="stage-P2"):
            reduce_and_solve(
                SecondOrderSystem(
                    A1=-np.eye(2), A2=np.eye(2), B0=np.diag([1.0, 0.0]),
                    Q0=np.eye(2), Q2=np.eye(2), R0=np.eye(2),
                )
            )

    def test_stage_errors_keep_their_class_and_residual(self, monkeypatch):
        def nonconvergent(*blocks):
            raise NonconvergentError("nonconvergent: residual 1e-03", residual=1e-3)

        monkeypatch.setattr(secondorder, "_solve_care_validated", nonconvergent)
        eye = np.eye(2)
        with pytest.raises(NonconvergentError, match="^stage-P1: nonconvergent") as excinfo:
            reduce_and_solve(SecondOrderSystem(A1=-eye, A2=-eye, B0=eye, Q0=eye, Q2=eye, R0=eye))
        assert excinfo.value.residual == 1e-3


class TestValidatesOnce:
    """SecondOrderSystem validates the blocks; the three Riccati solves of
    reduce_and_solve take them without a second validation."""

    @staticmethod
    def general_system(seed=5, n=3):
        rng = np.random.default_rng(seed)
        M0, M2, M3 = (rng.uniform(-1, 1, (n, n)) for _ in range(3))
        return SecondOrderSystem(
            A1=rng.uniform(-1, 1, (n, n)), A2=rng.uniform(-1, 1, (n, n)),
            B0=np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n)),
            Q0=M0.T @ M0 + np.eye(n), Q2=M2.T @ M2 + np.eye(n), R0=M3.T @ M3 + np.eye(n),
        )

    def test_no_stack_validation(self, monkeypatch):
        # solve_care_stack and LqrProblem both reach _validate_stack through
        # matcore's module attribute.
        calls = []
        original = matcore._validate_stack

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(matcore, "_validate_stack", counting)
        reduce_and_solve(self.general_system())
        assert calls == []

    def test_same_answers_as_the_validating_solves(self):
        sys2 = self.general_system()
        sol = reduce_and_solve(sys2)
        care1 = solve_care(sys2.A1, sys2.B0, sys2.Q0, sys2.R0)
        care2 = solve_care(sys2.A2, sys2.B0, sol.Qbar, sys2.R0)
        full = solve_lqr(LqrProblem(*secondorder._augmented(sys2)))
        for got, want in ((sol.P1, care1.P), (sol.gain_pos, care1.K), (sol.P2, care2.P),
                          (sol.gain_vel, care2.K), (sol.full_P, full.P), (sol.full_gain, full.K)):
            assert np.array_equal(got, want)

    def test_weights_are_not_judged_again_as_a_block_diagonal(self):
        # Each weight passes the 1e-10 relative symmetry test on its own, with
        # ||W - W'||_F = 8.5e-11 at ||W||_F < 1; blockdiag(W, W) would not
        # (1.2e-10), so a second validation of the augmented Q refused it.
        W = np.array([[0.1, 3e-11], [-3e-11, 0.1]])
        eye = np.eye(2)
        sol = reduce_and_solve(SecondOrderSystem(A1=-eye, A2=-eye, B0=eye, Q0=W, Q2=W, R0=eye))
        assert sol.agreement_residual <= 1e-12
