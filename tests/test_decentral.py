import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from declqr import (
    CirculantSpec,
    DiagonalCost2x2,
    InputError,
    LqrProblem,
    UnstabilizableError,
    Verdict,
    circulant_lqr_problem,
    circulant_pair_conditions,
    diagonal_cost_conditions,
    diagonal_riccati_roots,
    find_uniform_gain,
    identity_spec,
    oracle_check,
    pattern_decentralized,
    position_velocity_neighborhoods,
    single_station_neighborhoods,
    solve_care,
    synthesize_diagonal_cost,
    uniform_gain_candidates,
)
from declqr import decentral
from declqr.matcore import _fro
from declqr.models import diffusion_decentralizing_cost, diffusion_operator
from helpers import (
    eigenvalues_to_row,
    nonsymmetric_uniform_gain_instance,
    pd_symmetric_circulant_spec,
    uniform_gain_instance,
)

SQRT2 = np.sqrt(2.0)


def worked_system():
    return DiagonalCost2x2(
        a0=1.0, a1=2.0, a_minus1=-3.0, a2=4.0, q0=3.0, q2=8.0, gamma0=1.0, gamma2=6.0
    )


class TestPatternDecentralized:
    def test_diagonal_gain(self):
        ok, mass = pattern_decentralized(np.diag([3.0, 12.0]), single_station_neighborhoods(2))
        assert ok
        assert mass == 0.0

    def test_off_pattern_entry(self):
        K = np.array([[1.0, 0.5], [0.0, 1.0]])
        ok, mass = pattern_decentralized(K, single_station_neighborhoods(2))
        assert not ok
        assert mass == pytest.approx(0.5 / np.linalg.norm(K))

    def test_position_velocity_blocks(self):
        K = np.hstack([np.eye(3), 2.0 * np.eye(3)])
        ok, mass = pattern_decentralized(K, position_velocity_neighborhoods(3))
        assert ok
        assert mass == 0.0

    def test_zero_gain(self):
        ok, mass = pattern_decentralized(np.zeros((2, 2)), single_station_neighborhoods(2))
        assert ok
        assert mass == 0.0

    def test_stack_is_judged_gain_by_gain(self):
        # The mass of each gain in a stack is bitwise the mass np.linalg.norm
        # gives it alone, so a sweep's figures match one-by-one checks.
        rng = np.random.default_rng(4)
        K = rng.standard_normal((40, 3, 3)) * rng.uniform(1e-3, 1e3, (40, 1, 1))
        K[::3] *= np.eye(3)
        ok, mass = pattern_decentralized(K, single_station_neighborhoods(3))
        for i, gain in enumerate(K):
            off = gain[~np.eye(3, dtype=bool)]
            assert mass[i] == np.linalg.norm(off) / np.linalg.norm(gain)
            assert (ok[i], mass[i]) == pattern_decentralized(gain, single_station_neighborhoods(3))
        assert ok[::3].all() and not ok[1::3].any()

    def test_norm_overflow_is_no_conformance(self):
        # ||K||_F squared overflows: against an infinite scale any K would pass.
        K = np.array([[1e200, 1e200], [0.0, 1e200]])
        ok, mass = pattern_decentralized(K, single_station_neighborhoods(2))
        assert not ok
        assert mass == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-15)
        ok, mass = pattern_decentralized(np.array([K, np.eye(2)]), single_station_neighborhoods(2))
        assert list(ok) == [False, True] and mass[1] == 0.0

    def test_out_of_range_neighborhood(self):
        # A mask that lets input 1 read state 5, or has a row for a third
        # input, is not of the (2, 2) gain's shape.
        reaches_state_5 = np.zeros((2, 6), dtype=bool)
        reaches_state_5[0, 0] = reaches_state_5[1, 5] = True
        for mask in (reaches_state_5, np.ones((3, 2), dtype=bool)):
            with pytest.raises(InputError, match=r"boolean numpy array of K's shape \(2, 2\)"):
                pattern_decentralized(np.eye(2), mask)
        with pytest.raises(InputError, match=r"shape \(2, 3\)"):
            pattern_decentralized(np.ones((4, 2, 3)), np.ones((3, 2), dtype=bool))

    @pytest.mark.parametrize("mask", [np.eye(2, dtype=int), np.eye(2), [[True, False], [False, True]],
                                      [{0}, {1}]],
                             ids=["integers", "floats", "nested-list", "index-sets"])
    def test_pattern_that_is_not_a_boolean_array(self, mask):
        with pytest.raises(InputError, match="boolean numpy array"):
            pattern_decentralized(np.eye(2), mask)

    def test_one_dimensional_gain(self):
        with pytest.raises(InputError, match=r"^K must be 2-D or a stack of 2-D gains, got ndim=1$"):
            pattern_decentralized(np.ones(2), np.eye(2, dtype=bool))

    def test_empty_neighborhood(self):
        mask = np.eye(3, dtype=bool)
        mask[1, 1] = False
        with pytest.raises(InputError, match="^neighborhood 1 is empty$"):
            pattern_decentralized(np.eye(3), mask)


def set_pattern_reference(K, neighborhoods):
    """The pattern test over a list of index sets N_i, turned into the
    off-pattern mask one row at a time: the reference for the mask form."""
    K = np.asarray(K, dtype=float)
    m, n = K.shape[-2:]
    nbhd = [frozenset(int(j) for j in nb) for nb in neighborhoods]
    assert len(nbhd) == m and all(nb and all(0 <= j < n for j in nb) for nb in nbhd)
    off_mask = np.ones((m, n), dtype=bool)
    for i, nb in enumerate(nbhd):
        off_mask[i, sorted(nb)] = False
    gains = K.reshape(-1, m * n)
    off = gains[:, off_mask.ravel()]
    k_norm = _fro(gains[:, None, :])
    conforms = np.abs(off).max(axis=1, initial=0.0) <= decentral.ORACLE_TOL * np.maximum(1.0, k_norm)
    mass = np.divide(_fro(off[:, None, :]), k_norm, out=np.zeros_like(k_norm),
                     where=k_norm > 0)
    if K.ndim == 2:
        return bool(conforms[0]), float(mass[0])
    return conforms, mass


@st.composite
def gains_and_masks(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shape = (m, n) if draw(st.booleans()) else (draw(st.integers(1, 4)), m, n)
    K = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-1e300, 1e300), st.floats(-1e-6, 1e-6)),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
    ))).reshape(shape)
    rows = st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
    mask = np.array(draw(st.lists(rows, min_size=m, max_size=m)), dtype=bool)
    return K, mask


@settings(max_examples=200, derandomize=True, deadline=None)
@given(gains_and_masks())
def test_mask_pattern_test_matches_the_index_set_reference(case):
    K, mask = case
    neighborhoods = [set(np.flatnonzero(row).tolist()) for row in mask]
    got = pattern_decentralized(K, mask)
    want = set_pattern_reference(K, neighborhoods)
    if K.ndim == 2:
        assert type(got[0]) is bool and type(got[1]) is float
        assert got[0] == want[0] and np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    else:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestOracleCheck:
    def test_fully_diagonal_data(self):
        rng = np.random.default_rng(31)
        for n in (1, 3, 5):
            prob = LqrProblem(
                A=np.diag(rng.uniform(-2, 2, n)),
                B=np.diag(rng.uniform(0.5, 2, n)),
                Q=np.diag(rng.uniform(0.5, 3, n)),
                R=np.diag(rng.uniform(0.5, 3, n)),
            )
            report = oracle_check(prob)
            assert report.oracle_decentralized
            assert report.offdiag_mass <= 1e-12

    def test_coupled_but_decentralized(self):
        prob = LqrProblem(A=[[1.0, 1.0], [-1.0, 1.0]], B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        report = oracle_check(prob)
        assert report.oracle_decentralized
        assert np.allclose(report.K, (1.0 + SQRT2) * np.eye(2), atol=1e-9)

    def test_same_sign_coupling_is_not(self):
        prob = LqrProblem(A=[[1.0, 1.0], [1.0, 1.0]], B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        report = oracle_check(prob)
        assert not report.oracle_decentralized
        assert report.offdiag_mass > 1e-3

    def test_rectangular_is_refused(self):
        prob = LqrProblem(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.5]], Q=np.eye(2), R=[[1.0]])
        with pytest.raises(InputError, match="need one input per state"):
            oracle_check(prob)


class TestDiagonalCostConditions:
    def test_worked_system_holds(self):
        holds, verdicts = diagonal_cost_conditions(worked_system())
        assert holds is True
        assert [(v.name, v.holds) for v in verdicts] == [
            ("opposite_offdiag_signs", True),
            ("same_diag_signs", True),
            ("state_weight_ratio", True),
            ("input_weight_ratio", True),
        ]

    @pytest.mark.parametrize(
        "sys2, held, ratios",
        [
            # q0/q2 = 3/8 against -a0 a_minus1/(a1 a2) = 3/8; gamma0/gamma2 =
            # 1/6 against (a1/a_minus1)^2 q0/q2 = (4/9)(3/8) = 1/6.
            (worked_system(), [True] * 4, [(3 / 8, 3 / 8), (1 / 6, 1 / 6)]),
            # The perf plant with q0 = 4: both ratios miss their targets.
            (DiagonalCost2x2(1.0, 1.0, -1.0, 1.0, 4.0, 1.0, 1.0, 1.0),
             [True, True, False, False], [(4.0, 1.0), (1.0, 4.0)]),
        ],
        ids=["worked", "detuned"],
    )
    def test_holds_then_four_verdicts_in_print_order(self, sys2, held, ratios):
        holds, verdicts = diagonal_cost_conditions(sys2)
        assert type(holds) is bool and holds == all(held)
        assert all(type(v) is Verdict and type(v.holds) is bool for v in verdicts)
        assert [v.name for v in verdicts] == [
            "opposite_offdiag_signs", "same_diag_signs", "state_weight_ratio", "input_weight_ratio"
        ]
        assert [v.holds for v in verdicts] == held
        assert [v.witness for v in verdicts[:2]] == [{}, {}]
        for v, (ratio, target) in zip(verdicts[2:], ratios):
            assert list(v.witness) == ["ratio", "target"]
            assert v.witness == {"ratio": pytest.approx(ratio, rel=1e-15),
                                 "target": pytest.approx(target, rel=1e-15)}

    def test_unit_ratios_hold(self):
        sys2 = DiagonalCost2x2(
            a0=1.0, a1=1.0, a_minus1=-1.0, a2=1.0, q0=1.0, q2=1.0, gamma0=1.0, gamma2=1.0
        )
        holds, _ = diagonal_cost_conditions(sys2)
        assert holds

    def test_same_sign_coupling_fails(self):
        sys2 = DiagonalCost2x2(
            a0=1.0, a1=1.0, a_minus1=1.0, a2=1.0, q0=1.0, q2=1.0, gamma0=1.0, gamma2=1.0
        )
        holds, verdicts = diagonal_cost_conditions(sys2)
        assert not holds
        assert verdicts[0].name == "opposite_offdiag_signs" and not verdicts[0].holds

    def test_conditions_are_sufficient_not_necessary(self):
        # The self terms differ in sign and both ratios miss their targets,
        # yet P = I solves the Riccati equation, so the gain is diag(4, 1).
        sys2 = DiagonalCost2x2(
            a0=1.0, a1=1.0, a_minus1=-1.0, a2=-2.0, q0=2.0, q2=5.0, gamma0=4.0, gamma2=1.0
        )
        holds, verdicts = diagonal_cost_conditions(sys2)
        assert not holds
        assert [(v.name, v.holds) for v in verdicts] == [
            ("opposite_offdiag_signs", True),
            ("same_diag_signs", False),
            ("state_weight_ratio", False),
            ("input_weight_ratio", False),
        ]
        report = oracle_check(sys2.lqr_problem())
        assert report.oracle_decentralized
        assert np.allclose(report.K, np.diag([4.0, 1.0]), atol=1e-10)

    def test_degenerate_coupling_rejected(self):
        sys2 = DiagonalCost2x2(
            a0=1.0, a1=0.0, a_minus1=-1.0, a2=1.0, q0=1.0, q2=1.0, gamma0=1.0, gamma2=1.0
        )
        with pytest.raises(InputError, match="degenerate coupling"):
            diagonal_cost_conditions(sys2)

    @pytest.mark.parametrize(
        "sys2, message",
        [
            (DiagonalCost2x2(1, 1, -1, 1, 1e300, 1e-300, 1, 1), "state_weight_ratio: its ratio"),
            (DiagonalCost2x2(1, 1, -1, 1, 1, 1, 1e300, 1e-300), "input_weight_ratio: its ratio"),
            (DiagonalCost2x2(1, 1e-200, -1, 1e-200, 1, 1, 1, 1), "state_weight_ratio: its target"),
            (DiagonalCost2x2(1, 1e160, -1, 1, 1, 1, 1, 1), "input_weight_ratio: its target"),
        ],
        ids=["state-ratio-overflows", "input-ratio-overflows", "a1-a2-underflows",
             "square-overflows"],
    )
    def test_non_finite_ratio_or_target_is_refused(self, sys2, message):
        with pytest.raises(InputError, match=f"^condition {message} is not finite$"):
            diagonal_cost_conditions(sys2)

    def test_invariant_under_cost_scaling(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            signs = rng.choice([-1.0, 1.0])
            a1 = signs * rng.uniform(0.1, 3)
            a_m1 = -signs * rng.uniform(0.1, 3)
            s2 = rng.choice([-1.0, 1.0])
            a0, a2 = s2 * rng.uniform(0.1, 3), s2 * rng.uniform(0.1, 3)
            q0, q2 = rng.uniform(0.1, 10, 2)
            g0, g2 = rng.uniform(0.1, 10, 2)
            base = DiagonalCost2x2(a0, a1, a_m1, a2, q0, q2, g0, g2)
            holds0, _ = diagonal_cost_conditions(base)
            for lam in (0.1, 7.0):
                # Scale (q0, q2, 1/g0, 1/g2) by lam: weights scale, ratios do not.
                scaled = DiagonalCost2x2(
                    a0, a1, a_m1, a2, lam * q0, lam * q2, g0 / lam, g2 / lam
                )
                holds, _ = diagonal_cost_conditions(scaled)
                assert holds == holds0


@pytest.mark.parametrize("u, v", [(np.inf, 1.0), (1.0, -np.inf), (np.inf, np.inf), (np.nan, 1.0)])
def test_approx_equal_is_false_unless_both_values_are_finite(u, v):
    # |inf - v| = inf <= tol * inf would otherwise hold.
    assert not decentral.approx_equal(u, v, 1e-10)
    assert not decentral.approx_equal(v, u, 1e-10)


def test_overflowing_balance_ratio_is_not_balanced():
    # (a0 - a1)/(a0 + a1) overflows to inf for a = [-1.5e308, 1e308].
    a, b = CirculantSpec([-1.5e308, 1e308]), CirculantSpec([3.0, 1.0])
    with np.errstate(over="ignore"):
        holds, c = circulant_pair_conditions(a, b, identity_spec(2), identity_spec(2))
    assert (holds, c) == (False, None)


class TestDiagonalCostFamily:
    def test_stack_broadcasts_scalars_and_arrays(self):
        A, B, Q, R = decentral.diagonal_cost_stack(1.0, 2.0, -3.0, 4.0, 3.0, 8.0, 0.11, 0.19)
        assert np.array_equal(A, [[1.0, 2.0], [-3.0, 4.0]])
        assert np.array_equal(B, np.eye(2))
        assert np.array_equal(Q, np.diag([3.0, 8.0]))
        assert np.array_equal(R, np.diag([0.11, 0.19]))  # R's entries as given
        a2, q0 = np.array([0.5, 2.0, 7.0]), np.array([1.0, 3.0, 0.25])
        stacks = decentral.diagonal_cost_stack(1.0, 1.0, -1.0, a2, q0, 1.0, 1.0, q0)
        assert [X.shape for X in stacks] == [(3, 2, 2)] * 4
        for i in range(3):
            one = decentral.diagonal_cost_stack(1.0, 1.0, -1.0, a2[i], q0[i], 1.0, 1.0, q0[i])
            assert all(np.array_equal(X[i], Y) for X, Y in zip(stacks, one))

    def test_from_problem_reads_the_family_back(self):
        prob = worked_system().lqr_problem()
        sys2 = DiagonalCost2x2.from_problem(prob)
        assert (sys2.a0, sys2.a1, sys2.a_minus1, sys2.a2, sys2.q0, sys2.q2) == (
            1.0, 2.0, -3.0, 4.0, 3.0, 8.0
        )
        assert (sys2.gamma0, sys2.gamma2) == (1.0, pytest.approx(6.0, rel=1e-15))
        assert diagonal_cost_conditions(sys2)[0]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"A": -np.eye(3), "B": np.eye(3), "Q": np.eye(3), "R": np.eye(3)},
             "needs a 2x2 dense system"),
            ({"B": [[1.0], [0.0]], "R": [[1.0]]}, "needs a 2x2 dense system"),
            ({"B": 2.0 * np.eye(2)}, "needs B = I"),
            # ||B|| squared overflows: against an infinite scale, B would pass for I.
            ({"B": np.diag([1e200, 1.0])}, "needs B = I"),
            ({"Q": [[3.0, 0.5], [0.5, 8.0]]}, "needs a diagonal Q"),
            ({"R": [[1.0, 0.5], [0.5, 1.0]]}, "needs a diagonal R"),
            ({"R": np.diag([0.0, 1.0])}, "R must be positive definite"),
            ({"R": np.diag([-1.0, 1.0])}, "R must be positive definite"),
            ({"Q": np.diag([3.0, 0.0])}, "Q must be positive definite"),
        ],
        ids=["3x3", "one-input", "b-scaled", "b-huge", "coupled-q", "coupled-r",
             "zero-r", "negative-r", "zero-q"],
    )
    def test_from_problem_refuses(self, change, message):
        data = {"A": [[1.0, 2.0], [-3.0, 4.0]], "B": np.eye(2),
                "Q": np.diag([3.0, 8.0]), "R": np.eye(2), **change}
        with pytest.raises(InputError, match=message):
            DiagonalCost2x2.from_problem(LqrProblem(**data))


class TestSynthesizeDiagonalCost:
    def test_worked_dynamics(self):
        sys2 = synthesize_diagonal_cost(1.0, 2.0, -3.0, 4.0, q2=8.0, gamma2=6.0)
        assert sys2.q0 == pytest.approx(3.0, abs=1e-14)
        assert sys2.gamma0 == pytest.approx(1.0, abs=1e-14)
        report = oracle_check(sys2.lqr_problem())
        assert report.oracle_decentralized
        assert np.allclose(report.K, np.diag([3.0, 12.0]), atol=1e-8)

    def test_negative_self_terms(self):
        sys2 = synthesize_diagonal_cost(-1.0, 1.0, -1.0, -1.0, q2=1.0, gamma2=1.0)
        assert sys2.q0 == pytest.approx(1.0)
        assert sys2.gamma0 == pytest.approx(1.0)
        assert oracle_check(sys2.lqr_problem()).oracle_decentralized

    @pytest.mark.parametrize("position", range(4))
    def test_plant_entries_must_be_numbers(self, position):
        entries = [1.0, 1.0, -1.0, 1.0]
        entries[position] = "1"
        with pytest.raises(InputError, match="must be a number"):
            synthesize_diagonal_cost(*entries)

    def test_sign_preconditions_enforced(self):
        with pytest.raises(InputError, match="positivity of cost impossible"):
            synthesize_diagonal_cost(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(InputError, match="positivity of cost impossible"):
            synthesize_diagonal_cost(1.0, 1.0, -1.0, -1.0)

    def test_random_draws_decentralize(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            s = rng.choice([-1.0, 1.0])
            a1 = s * rng.uniform(0.1, 3)
            a_m1 = -s * rng.uniform(0.1, 3)
            t = rng.choice([-1.0, 1.0])
            a0, a2 = t * rng.uniform(0.1, 3), t * rng.uniform(0.1, 3)
            sys2 = synthesize_diagonal_cost(
                a0, a1, a_m1, a2, q2=rng.uniform(0.1, 10), gamma2=rng.uniform(0.1, 10)
            )
            holds, _ = diagonal_cost_conditions(sys2)
            assert holds
            report = oracle_check(sys2.lqr_problem())
            assert report.oracle_decentralized
            assert report.offdiag_mass <= 1e-6
            p0, p2 = diagonal_riccati_roots(sys2)
            care = solve_care(
                [[sys2.a0, sys2.a1], [sys2.a_minus1, sys2.a2]],
                np.eye(2),
                np.diag([sys2.q0, sys2.q2]),
                np.diag([1.0 / sys2.gamma0, 1.0 / sys2.gamma2]),
            )
            assert np.allclose(care.P, np.diag([p0, p2]), atol=1e-8)


class TestDiagonalRiccatiRoots:
    def test_worked_system(self):
        p0, p2 = diagonal_riccati_roots(worked_system())
        assert p0 == pytest.approx(3.0, abs=1e-12)
        assert p2 == pytest.approx(2.0, abs=1e-12)

    def test_unit_system(self):
        sys2 = DiagonalCost2x2(
            a0=1.0, a1=1.0, a_minus1=-1.0, a2=1.0, q0=1.0, q2=1.0, gamma0=1.0, gamma2=1.0
        )
        p0, p2 = diagonal_riccati_roots(sys2)
        assert p0 == pytest.approx(1.0 + SQRT2, abs=1e-12)
        assert p2 == pytest.approx(1.0 + SQRT2, abs=1e-12)

    def test_stable_self_terms(self):
        sys2 = synthesize_diagonal_cost(-1.0, 1.0, -1.0, -1.0)
        p0, p2 = diagonal_riccati_roots(sys2)
        assert p2 == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        assert p0 == pytest.approx(p2, abs=1e-12)

    def test_requires_conditions(self):
        sys2 = DiagonalCost2x2(
            a0=1.0, a1=1.0, a_minus1=-1.0, a2=1.0, q0=4.0, q2=1.0, gamma0=1.0, gamma2=1.0
        )
        with pytest.raises(InputError, match="conditions do not hold"):
            diagonal_riccati_roots(sys2)

    def test_strongly_stable_sites_do_not_cancel(self):
        # a2/gamma2 + sqrt((a2/gamma2)^2 + q2/gamma2) rounds to 0 at a2 = -1e8;
        # the root is 1/(1e8 + sqrt(1e16 + 1)) = 5e-9.
        sys2 = DiagonalCost2x2(-1e8, 1.0, -1.0, -1e8, 1.0, 1.0, 1.0, 1.0)
        assert diagonal_cost_conditions(sys2)[0]
        p0, p2 = diagonal_riccati_roots(sys2)
        assert p0 == pytest.approx(5e-9, rel=1e-15) and p2 == pytest.approx(5e-9, rel=1e-15)
        report = oracle_check(sys2.lqr_problem())
        assert report.oracle_decentralized
        assert np.diag(report.K) == pytest.approx([p0, p2], rel=1e-12)

    @pytest.mark.parametrize("a, root", [(-1e200, 5e-201), (1e200, 2e200)])
    def test_sites_beyond_the_square_range(self, a, root):
        # a^2 overflows above about 1.3e154; the root is 1/(2|a|) for a < 0
        # and 2a for a > 0, to within 1/a^2.
        sys2 = DiagonalCost2x2(a, 1.0, -1.0, a, 1.0, 1.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p0, p2 = diagonal_riccati_roots(sys2)
        assert p0 == pytest.approx(root, rel=1e-15) and p2 == pytest.approx(root, rel=1e-15)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    a=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=6),
    g=st.floats(1e-100, 1e100),
    q=st.floats(1e-100, 1e100),
)
def test_riccati_roots_below_the_square_range_are_the_direct_formula(a, g, q):
    # Bitwise t/g or q/t with t = |a| + sqrt(a^2 + g q), also beside a site
    # whose a^2 overflows.
    a = np.array(a)
    t = np.abs(a) + np.sqrt(a * a + g * q)
    direct = np.where(a > 0, t / g, q / t)
    assert np.array_equal(decentral._riccati_root(a, g, q), direct)
    with_huge = decentral._riccati_root(np.append(a, -1e200), g, q)
    assert np.array_equal(with_huge[:-1], direct)


class TestFindUniformGain:
    def test_ring_diffusion_with_derivative_penalty(self):
        d2 = diffusion_operator(4)
        q, r, _ = diffusion_decentralizing_cost(4)
        assert find_uniform_gain(d2, identity_spec(4), q, r) == pytest.approx(1.0, abs=1e-12)

    def test_identical_scalar_problems(self):
        n = 5
        a = CirculantSpec(-np.eye(n)[0])
        c = find_uniform_gain(a, identity_spec(n), identity_spec(n), identity_spec(n))
        assert c == pytest.approx(SQRT2 - 1.0, abs=1e-12)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.floats(-8.0, 8.0), st.sampled_from([-1.0, 1.0]), st.floats(-4.0, 4.0),
        st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
    )
    def test_scalar_root_has_no_cancellation(self, log_a, sign, log_b, log_q, log_r):
        # Identical sites: every frequency solves 2 a p - (b^2/r) p^2 + q = 0,
        # and the gain is K = b p / r. The equation's residual must sit at
        # rounding level relative to its terms, whatever the sign of a.
        a, b, q, r = sign * 10.0 ** log_a, 10.0 ** log_b, 10.0 ** log_q, 10.0 ** log_r
        specs = (CirculantSpec([x, 0.0, 0.0]) for x in (a, b, q, r))
        gains = uniform_gain_candidates(*specs)
        assert np.all(gains.imag == 0.0) and np.all(gains.real == gains.real[0])
        p = gains.real[0] * r / b
        g = b * b / r
        assert p > 0
        terms = (2.0 * a * p, -g * p * p, q)
        assert abs(sum(terms)) <= 1e-14 * sum(map(abs, terms))

    def test_identity_cost_on_diffusion_has_no_uniform_gain(self):
        d2 = diffusion_operator(4)
        eye = identity_spec(4)
        assert find_uniform_gain(d2, eye, eye, eye) is None

    def test_frequency_singular_input(self):
        eye = identity_spec(2)
        with pytest.raises(InputError, match="frequency-singular"):
            find_uniform_gain(eye, CirculantSpec([0.5, 0.5]), eye, eye)
        with pytest.raises(InputError, match="frequency-singular"):
            find_uniform_gain(eye, eye, eye, CirculantSpec([1.0, 1.0]))

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            find_uniform_gain(identity_spec(3), identity_spec(2), identity_spec(3), identity_spec(3))

    def test_non_symmetric_a_with_uniform_gain(self):
        a, b, q, r = nonsymmetric_uniform_gain_instance()
        assert find_uniform_gain(a, b, q, r) == pytest.approx(4.0, abs=1e-9)
        report = oracle_check(circulant_lqr_problem(a, b, q, r))
        assert report.oracle_decentralized
        assert np.allclose(report.K, 4.0 * np.eye(5), atol=1e-9)

    def test_one_stacked_transform_per_query(self, monkeypatch):
        calls = []
        original = decentral.circulant_eigenvalues

        def counting(*specs):
            calls.append(len(specs))
            return original(*specs)

        monkeypatch.setattr(decentral, "circulant_eigenvalues", counting)
        a, b, q, r = nonsymmetric_uniform_gain_instance(1024)
        assert find_uniform_gain(a, b, q, r) == pytest.approx(4.0, abs=1e-9)
        assert calls == [4]

    def test_non_symmetric_b_without_uniform_gain(self):
        a, _, q, r = nonsymmetric_uniform_gain_instance()
        b = CirculantSpec([1.0, 0.4, 0.0, 0.0, 0.0])
        assert find_uniform_gain(a, b, q, r) is None
        report = oracle_check(circulant_lqr_problem(a, b, q, r))
        assert not report.oracle_decentralized

    def test_non_symmetric_q_rejected(self):
        eye = identity_spec(4)
        with pytest.raises(InputError, match="'q' must be symmetric"):
            find_uniform_gain(eye, eye, CirculantSpec([2.0, 0.5, 0.0, 0.1]), eye)

    def test_huge_non_symmetric_q_rejected(self):
        # The squared norms overflow, and inf <= 1e-10 * inf would hold.
        a, b, r = CirculantSpec([-2.0, 1.0, 1.0]), identity_spec(3), identity_spec(3)
        with pytest.raises(InputError, match="'q' must be symmetric"):
            find_uniform_gain(a, b, CirculantSpec([1e200, 1e200, 0.0]), r)

    def test_indefinite_q_rejected(self):
        eye = identity_spec(4)
        # Symmetric, with eigenvalues 2.6, 1, -0.6, 1.
        with pytest.raises(InputError, match="'q' must be positive definite"):
            find_uniform_gain(eye, eye, CirculantSpec([1.0, 0.8, 0.0, 0.8]), eye)

    def test_presence_matches_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a, b, q, r, c = uniform_gain_instance(rng, n)
            found = find_uniform_gain(a, b, q, r)
            assert found is not None
            assert found == pytest.approx(c, rel=1e-9)
            report = oracle_check(circulant_lqr_problem(a, b, q, r))
            assert np.linalg.norm(report.K - c * np.eye(n)) <= 1e-6 * max(1.0, abs(c) * np.sqrt(n))

    def test_absence_matches_oracle(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 9))
            a = CirculantSpec(rng.uniform(-1.5, 1.5, n))
            b = pd_symmetric_circulant_spec(rng, n)
            q = pd_symmetric_circulant_spec(rng, n)
            r = pd_symmetric_circulant_spec(rng, n)
            if find_uniform_gain(a, b, q, r) is not None:
                continue
            report = oracle_check(circulant_lqr_problem(a, b, q, r))
            if 1e-6 < report.offdiag_mass <= 1e-4:
                continue  # dead band: regenerate
            assert report.offdiag_mass > 1e-4
            assert not report.oracle_decentralized
            checked += 1


class TestCirculantPairConditions:
    def test_balanced_quadruple(self):
        holds, c = circulant_pair_conditions(
            CirculantSpec([-2.0, -1.0]),
            CirculantSpec([2.0, 1.0]),
            CirculantSpec([1.0, 0.0]),
            CirculantSpec([1.0, 0.0]),
        )
        assert holds
        assert c == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        report = oracle_check(
            circulant_lqr_problem(
                CirculantSpec([-2.0, -1.0]),
                CirculantSpec([2.0, 1.0]),
                CirculantSpec([1.0, 0.0]),
                CirculantSpec([1.0, 0.0]),
            )
        )
        assert report.oracle_decentralized
        assert np.allclose(report.K, (SQRT2 - 1.0) * np.eye(2), atol=1e-6)

    def test_all_diagonal_matrices(self):
        holds, c = circulant_pair_conditions(
            CirculantSpec([-1.5, 0.0]),
            CirculantSpec([2.0, 0.0]),
            CirculantSpec([1.0, 0.0]),
            CirculantSpec([3.0, 0.0]),
        )
        assert holds
        assert c is not None

    def test_unbalanced_quadruple(self):
        a = CirculantSpec([-3.0, 1.0])
        b = CirculantSpec([3.0, 1.0])
        q = CirculantSpec([1.0, 0.0])
        r = CirculantSpec([1.0, 0.0])
        holds, c = circulant_pair_conditions(a, b, q, r)
        assert not holds
        assert c is None
        report = oracle_check(circulant_lqr_problem(a, b, q, r))
        assert not report.oracle_decentralized

    def test_degenerate_denominator(self):
        with pytest.raises(InputError, match="degenerate"):
            circulant_pair_conditions(
                CirculantSpec([1.0, -1.0]),
                CirculantSpec([2.0, 1.0]),
                CirculantSpec([1.0, 0.0]),
                CirculantSpec([1.0, 0.0]),
            )

    def test_equal_entries_give_a_zero_ratio(self):
        # A = [[1, 1], [1, 1]] has (a0 - a1)/(a0 + a1) = 0, which differs from
        # B's 1/3: the balance fails, as the oracle confirms.
        a = CirculantSpec([1.0, 1.0])
        b = CirculantSpec([2.0, 1.0])
        q = r = CirculantSpec([1.0, 0.0])
        assert circulant_pair_conditions(a, b, q, r) == (False, None)
        assert not oracle_check(circulant_lqr_problem(a, b, q, r)).oracle_decentralized

    def test_sign_indefinite_b_can_leave_no_shared_stabilizing_gain(self):
        # Both balance ratios hold, yet the stabilizing branches pick
        # different roots at the two frequencies because the eigenvalues of B
        # change sign; the oracle confirms there is no uniform gain.
        a = CirculantSpec([1.0, 3.0])
        b = CirculantSpec([1.0, 3.0])
        q = CirculantSpec([1.0, 0.0])
        r = CirculantSpec([1.0, 0.0])
        holds, c = circulant_pair_conditions(a, b, q, r)
        assert holds
        assert c is None
        report = oracle_check(circulant_lqr_problem(a, b, q, r))
        assert not report.oracle_decentralized


# ---------------------------------------------------------------------------
# Property: the per-frequency gains are the dense oracle's gain symbol
# ---------------------------------------------------------------------------

FAMILIES = ("nonsymmetric-a", "nonsymmetric-b", "mixed-sign-b", "uniform-gain")


@st.composite
def circulant_quadruples(draw):
    """(family, a, b, q, r) with n in 2..9 and B nonsingular at every
    frequency. Q and R are symmetric positive definite in every family."""
    n = draw(st.integers(2, 9))
    family = draw(st.sampled_from(FAMILIES))

    def values(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    def even(symbol):
        half = np.arange(1, n // 2 + 1)
        symbol[n - half] = symbol[half]
        return symbol

    def from_symbol(symbol):
        return CirculantSpec(eigenvalues_to_row(symbol))

    a_row = values(-2.0, 2.0)
    q = from_symbol(even(values(0.2, 3.0)))
    r = from_symbol(even(values(0.2, 3.0)))
    if family == "nonsymmetric-b":
        # A dominant first entry keeps every |b(k)| >= 0.5.
        b_row = values(-1.0, 1.0)
        b_row[0] = np.copysign(0.5 + np.sum(np.abs(b_row[1:])), b_row[0])
        b = CirculantSpec(b_row)
    elif family == "mixed-sign-b":
        bh = even(values(0.5, 2.5) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
        b = from_symbol(bh)
    else:
        bh = even(values(0.5, 2.5))
        b = from_symbol(bh)
    if family == "uniform-gain":
        # q(k) = r(k) (c^2 - 2 c Re a(k)/b(k)) makes K = c I exactly.
        ah = np.fft.ifft(a_row) * n
        rh = np.real(np.fft.ifft(r.first_row) * n)
        c = max(float(np.max(2.0 * ah.real / bh)), 0.0) + draw(st.floats(0.5, 2.0))
        q = from_symbol(rh * (c * c - 2.0 * c * ah.real / bh))
    return family, CirculantSpec(a_row), b, q, r


@settings(max_examples=200, derandomize=True, deadline=None)
@given(circulant_quadruples())
def test_per_frequency_gains_match_dense_oracle(quadruple):
    family, a, b, q, r = quadruple
    try:
        report = oracle_check(circulant_lqr_problem(a, b, q, r))
    except UnstabilizableError:
        assume(False)
    assume(not 1e-6 < report.offdiag_mass <= 1e-4)
    n = a.n
    symbol = np.fft.ifft(report.K[0]) * n
    gains = uniform_gain_candidates(a, b, q, r)
    assert np.max(np.abs(gains - symbol)) <= 1e-8 * max(1.0, np.max(np.abs(symbol)))
    assert (find_uniform_gain(a, b, q, r) is not None) == report.oracle_decentralized
    if family == "uniform-gain":
        assert report.oracle_decentralized
