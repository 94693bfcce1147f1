import re

import numpy as np
import pytest

from declqr import (
    MAX_RING_SIZE,
    ChamberParams,
    CirculantSpec,
    DiagonalCost2x2,
    InputError,
    LqrProblem,
    chamber_system,
    circulant_eigenvalues,
    circulant_lqr_problem,
    circulant_materialize,
    diagonal_cost_conditions,
    diffusion_decentralizing_cost,
    diffusion_operator,
    find_uniform_gain,
    identity_spec,
    oracle_check,
    perf_example_system,
    predator_prey_jacobian,
    solve_lqr,
    synthesize_diagonal_cost,
)
from declqr.models import PredatorPreyParams
from helpers import forward_difference_operator

SQRT2 = np.sqrt(2.0)


def sample_params(**overrides):
    base = dict(r1=2.0, r2=1.0, k1=1.0, k2=1.0, b=1.0, e=1.0)
    base.update(overrides)
    return PredatorPreyParams(**base)


class TestPredatorPrey:
    def test_reference_jacobian(self):
        J = predator_prey_jacobian(sample_params())
        expected = np.array([[-2.0 / 3.0, -1.0 / 3.0], [4.0 / 3.0, -4.0 / 3.0]])
        assert np.allclose(J, expected, atol=1e-15)

    def test_reference_sign_pattern(self):
        J = predator_prey_jacobian(sample_params())
        assert J[0, 1] * J[1, 0] < 0
        assert J[0, 0] * J[1, 1] > 0

    def test_reference_weight_ratio(self):
        J = predator_prey_jacobian(sample_params())
        sys2 = synthesize_diagonal_cost(J[0, 0], J[0, 1], J[1, 0], J[1, 1])
        assert sys2.q0 / sys2.q2 == pytest.approx(2.0, rel=1e-12)

    def test_weight_ratio_identity(self):
        # q0/q2 == e k2 r1 / (k1 r2) whenever the prey growth dominates
        # predation pressure (r1 > b k2).
        rng = np.random.default_rng(73)
        count = 0
        while count < 60:
            p = PredatorPreyParams(*rng.uniform(0.1, 5.0, 6))
            if p.r1 <= p.b * p.k2:
                continue
            J = predator_prey_jacobian(p)
            sys2 = synthesize_diagonal_cost(J[0, 0], J[0, 1], J[1, 0], J[1, 1])
            target = p.e * p.k2 * p.r1 / (p.k1 * p.r2)
            assert abs(sys2.q0 / sys2.q2 - target) <= 1e-10 * target
            count += 1

    def test_sign_regimes(self):
        rng = np.random.default_rng(79)
        dominant = subordinate = 0
        for _ in range(500):
            p = PredatorPreyParams(*rng.uniform(0.1, 5.0, 6))
            J = predator_prey_jacobian(p)
            if p.r1 > p.b * p.k2:
                dominant += 1
                assert J[0, 1] < 0 < J[1, 0]
                assert J[0, 0] < 0 and J[1, 1] < 0
            elif p.r1 < p.b * p.k2:
                subordinate += 1
                # Both off-diagonal terms flip to the same (positive) sign.
                assert J[0, 1] > 0 and J[1, 0] > 0
                assert J[0, 0] > 0 and J[1, 1] < 0
        assert dominant > 50 and subordinate > 50

    def test_positivity_enforced(self):
        with pytest.raises(InputError):
            sample_params(r1=-1.0)
        with pytest.raises(InputError):
            sample_params(e=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [dict(b=1e200, e=1.0), dict.fromkeys(("r1", "r2", "k1", "k2", "b", "e"), 1e-300),
         dict(r1=1e300, r2=1e300)],
        ids=["b-squared-overflows", "sigma-underflows", "entries-overflow"],
    )
    def test_jacobian_beyond_the_float_range_is_refused(self, overrides):
        with pytest.raises(InputError, match="^the predprey Jacobian leaves the float range$"):
            predator_prey_jacobian(sample_params(**overrides))


@pytest.mark.parametrize(
    "value", ["1.5", True, None, [1.0]], ids=["string", "boolean", "null", "list"]
)
@pytest.mark.parametrize(
    "build",
    [
        lambda v: sample_params(r1=v),
        lambda v: ChamberParams(alpha0=v, alpha1=1.0, beta0=3.0, beta1=1.0),
        lambda v: DiagonalCost2x2(
            a0=v, a1=1.0, a_minus1=-1.0, a2=1.0, q0=1.0, q2=1.0, gamma0=1.0, gamma2=1.0
        ),
    ],
    ids=["predprey", "chamber", "diagonal-cost"],
)
def test_parameter_must_be_a_number(build, value):
    with pytest.raises(InputError, match="must be a number"):
        build(value)


class TestDiffusion:
    def test_first_row(self):
        spec = diffusion_operator(4, 1.0)
        assert np.array_equal(spec.first_row, [-2.0, 1.0, 0.0, 1.0])

    def test_eigenvalue_formula(self):
        for n in (3, 4, 8, 12):
            for delta in (0.5, 1.0, 2.0):
                vals = circulant_eigenvalues(diffusion_operator(n, delta))
                k = np.arange(n)
                expected = (2.0 * np.cos(2.0 * np.pi * k / n) - 2.0) / delta**2
                assert np.max(np.abs(vals - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_midpoint_eigenvalue(self):
        vals = circulant_eigenvalues(diffusion_operator(8, 1.0))
        assert vals[4].real == pytest.approx(-4.0, abs=1e-13)

    def test_two_sites_rejected(self):
        with pytest.raises(InputError, match="wrap-around"):
            diffusion_operator(2, 1.0)

    @pytest.mark.parametrize("n", [4.7, "5", True, None], ids=["fraction", "string", "boolean", "null"])
    @pytest.mark.parametrize("build", [diffusion_operator, identity_spec])
    def test_site_count_must_be_an_integer(self, build, n):
        with pytest.raises(InputError, match="n must be"):
            build(n)

    # Only sizes above the limit: each is refused before anything is allocated.
    @pytest.mark.parametrize(
        "n, message",
        [(MAX_RING_SIZE + 1, "n must be at most 10000000, got 10000001"),
         (10**20, "n must be at most 10000000, got 100000000000000000000"),
         (2**62, "n must be at most 10000000, got 4611686018427387904"),
         (10**400, "n exceeds the float range")],
        ids=["limit-plus-one", "1e20", "2^62", "beyond-float"],
    )
    @pytest.mark.parametrize("build", [diffusion_operator, identity_spec])
    def test_site_count_above_the_limit_is_refused(self, build, n, message):
        with pytest.raises(InputError) as info:
            build(n)
        assert str(info.value) == message

    # 2/delta^2 is not a finite nonzero float beyond either end; 4/delta^2,
    # which the decentralizing cost forms, overflows already at 1.2e-154.
    @pytest.mark.parametrize("delta", [1e200, 1.4e154, 1e-155, 1.2e-154, 1e-200])
    @pytest.mark.parametrize("build", [diffusion_operator, diffusion_decentralizing_cost])
    def test_spacing_beyond_the_float_range_is_refused(self, build, delta):
        with pytest.raises(InputError, match=re.escape(f"delta = {delta!r} puts 2/delta")):
            build(3, delta)

    @pytest.mark.parametrize("delta", [0.5, 0.7, 1.3, 2.0, 1e154, 1.5e-154])
    def test_accepted_spacing_keeps_the_row_bitwise(self, delta):
        row = np.array([-2.0, 1.0, 0.0, 1.0])
        assert diffusion_operator(4, delta).first_row.tobytes() == (row / delta ** 2).tobytes()
        q, _, _ = diffusion_decentralizing_cost(4, delta)
        assert np.all(np.isfinite(q.first_row))

    def test_integral_float_site_count_accepted(self):
        assert diffusion_operator(5.0).n == 5

    def test_forward_difference_factorization(self):
        # -D2 == D' D entrywise for the forward-difference circulant D.
        for n, delta in ((4, 1.0), (6, 0.5), (5, 1.0)):
            D = circulant_materialize(forward_difference_operator(n, delta))
            D2 = circulant_materialize(diffusion_operator(n, delta))
            assert np.array_equal(-D2, D.T @ D)


class TestDiffusionDecentralizingCost:
    def test_reference_cost_row(self):
        q, r, c = diffusion_decentralizing_cost(4, 1.0)
        assert np.allclose(q.first_row, [5.0, -2.0, 0.0, -2.0], atol=0)
        assert np.array_equal(r.first_row, [1.0, 0.0, 0.0, 0.0])
        assert c == 1.0

    def test_oracle_gain_is_identity(self):
        q, r, _ = diffusion_decentralizing_cost(4, 1.0)
        report = oracle_check(circulant_lqr_problem(diffusion_operator(4), identity_spec(4), q, r))
        assert report.oracle_decentralized
        assert np.linalg.norm(report.K - np.eye(4)) <= 1e-6

    def test_uniform_gain_for_any_spacing(self):
        for n, delta in ((3, 1.0), (16, 0.5), (9, 2.0)):
            d2 = diffusion_operator(n, delta)
            q, r, _ = diffusion_decentralizing_cost(n, delta)
            assert find_uniform_gain(d2, identity_spec(n), q, r) == pytest.approx(1.0, abs=1e-12)

    def test_state_cost_is_positive_definite(self):
        for n in range(3, 13):
            q, _, _ = diffusion_decentralizing_cost(n, 1.0)
            vals = np.real(circulant_eigenvalues(q))
            assert np.all(vals > 0)

    def test_derivative_penalty_identity(self):
        rng = np.random.default_rng(83)
        n, delta = 6, 0.5
        q, _, _ = diffusion_decentralizing_cost(n, delta)
        Q = circulant_materialize(q)
        D = circulant_materialize(forward_difference_operator(n, delta))
        for _ in range(100):
            x = rng.uniform(-3, 3, n)
            lhs = x @ Q @ x
            rhs = x @ x + 2.0 * (D @ x) @ (D @ x)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_no_decoupled_cost_decentralizes(self):
        # Sampled evidence over random diagonal weights, not a proof.
        rng = np.random.default_rng(89)
        for n in range(3, 9):
            A = circulant_materialize(diffusion_operator(n))
            for _ in range(100):
                prob = LqrProblem(
                    A=A,
                    B=np.eye(n),
                    Q=np.diag(rng.uniform(0.1, 10.0, n)),
                    R=np.diag(rng.uniform(0.1, 10.0, n)),
                )
                report = oracle_check(prob)
                assert not report.oracle_decentralized
                assert report.offdiag_mass > 1e-4


class TestChamber:
    def test_reference_conditions(self):
        chamber = chamber_system(ChamberParams(alpha0=3.0, alpha1=1.0, beta0=3.0, beta1=1.0))
        assert [v.holds for v in chamber.conditions] == [True, False]
        assert np.array_equal(chamber.a.first_row, [-3.0, 1.0])
        assert np.array_equal(chamber.b.first_row, [3.0, 1.0])

    def test_oracle_adjudicates_reference_instance(self):
        chamber = chamber_system(ChamberParams(alpha0=3.0, alpha1=1.0, beta0=3.0, beta1=1.0))
        prob = circulant_lqr_problem(chamber.a, chamber.b, identity_spec(2), identity_spec(2))
        report = oracle_check(prob)
        assert not report.oracle_decentralized
        prediction = find_uniform_gain(chamber.a, chamber.b, identity_spec(2), identity_spec(2))
        assert prediction is None

    def test_equal_transfer_rates_degenerate(self):
        with pytest.raises(InputError, match="degenerate"):
            chamber_system(ChamberParams(alpha0=2.0, alpha1=2.0, beta0=3.0, beta1=1.0))

    def test_overflowing_entry_ratio_is_not_balanced(self):
        # a0 - a1 = -alpha0 - alpha1 overflows; halved, the entry ratio is 5.
        chamber = chamber_system(ChamberParams(alpha0=1.5e308, alpha1=1e308, beta0=3.0, beta1=1.0))
        assert not chamber.conditions[1].holds
        assert chamber.conditions[1].witness == {"ratio": 5.0, "target": 0.5}

    def test_diagonal_limit_is_decentralized(self):
        # alpha1, beta1 -> 0: the circulant pair becomes diagonal and the
        # trivial decoupled case applies.
        a = CirculantSpec([-2.0, 0.0])
        b = CirculantSpec([1.5, 0.0])
        report = oracle_check(circulant_lqr_problem(a, b, identity_spec(2), identity_spec(2)))
        assert report.oracle_decentralized

    def test_entry_condition_unsatisfiable_for_positive_parameters(self):
        # With a0 = -alpha0 the entry ratio (a0 - a1)/(a0 + a1) lies outside
        # (-1, 1) for positive coefficients while the beta ratio lies inside,
        # so the two candidate conditions can never agree on this model; the
        # oracle is the ground truth either way.
        rng = np.random.default_rng(97)
        for _ in range(50):
            alpha0, alpha1, beta0, beta1 = rng.uniform(0.1, 5.0, 4)
            if abs(alpha0 - alpha1) < 1e-6:
                continue
            chamber = chamber_system(
                ChamberParams(alpha0=alpha0, alpha1=alpha1, beta0=beta0, beta1=beta1)
            )
            assert not chamber.conditions[1].holds


class TestPerfExample:
    def test_decentralizing_point(self):
        prob = perf_example_system(q0=1.0, gamma2=1.0)
        report = oracle_check(prob)
        assert report.oracle_decentralized
        assert np.allclose(report.K, (1.0 + SQRT2) * np.eye(2), atol=1e-9)

    def test_cost_at_decentralizing_point(self):
        sol = solve_lqr(perf_example_system())
        assert sol.h2_squared == pytest.approx(2.0 * (1.0 + SQRT2), abs=1e-10)

    def test_detuned_weight_is_not_decentralized(self):
        report = oracle_check(perf_example_system(q0=4.0, gamma2=1.0))
        assert not report.oracle_decentralized

    def test_conditions_on_detuned_weight(self):
        holds, verdicts = diagonal_cost_conditions(
            DiagonalCost2x2(
                a0=1.0, a1=1.0, a_minus1=-1.0, a2=1.0,
                q0=4.0, q2=1.0, gamma0=1.0, gamma2=1.0,
            )
        )
        assert not holds
        assert verdicts[2].name == "state_weight_ratio" and not verdicts[2].holds

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(InputError):
            perf_example_system(q0=0.0)
        with pytest.raises(InputError):
            perf_example_system(gamma2=-1.0)
