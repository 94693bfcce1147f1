import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import declqr
from declqr import CirculantSpec, SecondOrderSystem, decentral, identity_spec, lqr, matcore
from declqr.cli import _build_parser, cli_main
from declqr.sweep import SweepResult
from declqr.sysfile import (
    circulant_document,
    dense_document,
    load_system,
    save_system,
    second_order_document,
)
from helpers import nonsymmetric_uniform_gain_instance


def run_cli(args):
    out = io.StringIO()
    status = cli_main(args, out=out)
    return status, out.getvalue()


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    save_system(
        dense_document(
            [[1.0, 2.0], [-3.0, 4.0]], np.eye(2), np.diag([3.0, 8.0]), np.diag([1.0, 1.0 / 6.0])
        ),
        path,
    )
    return str(path)


class TestSolve:
    def test_worked_system(self, worked_file):
        status, text = run_cli(["solve", "--system", worked_file])
        assert status == 0
        assert "h2: 2.2360679" in text
        assert "residual:" in text
        assert "P:" in text and "K:" in text

    def test_missing_file_is_input_error(self):
        status, _ = run_cli(["solve", "--system", "/nonexistent.json"])
        assert status == 1

    def test_asymmetry_beyond_the_float_range_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        Q = [[1e308, 1e308], [-1e308, 1e308]]
        save_system(dense_document([[1.0, 1.0], [-1.0, 1.0]], np.eye(2), Q, np.eye(2)), path)
        status, text = run_cli(["solve", "--system", str(path)])
        assert (status, text) == (1, "")
        assert capsys.readouterr().err == "input error: Q must be symmetric\n"

    def test_unstabilizable_is_solver_failure(self, tmp_path):
        path = tmp_path / "bad.json"
        save_system(
            dense_document(np.eye(2), [[1.0], [0.0]], np.eye(2), [[1.0]]), path
        )
        status, _ = run_cli(["solve", "--system", str(path)])
        assert status == 2


CIRCULANT_ROWS = '"B_first_row": [1, 0], "Q_first_row": [1, 0], "R_first_row": [1, 0]'
CHAMBER_FILE = (
    '{"kind": "circulant", "A_first_row": [-3, 1], ' + CIRCULANT_ROWS + ', '
    '"model": {"name": "chamber", "alpha0": %s, "alpha1": 0.5, "beta0": 3, "beta1": 1}}'
)

CHAMBER_TAG = {"alpha0": 3, "alpha1": 1, "beta0": 3, "beta1": 1}
SECOND_ORDER_FILE = ('{"kind": "second_order", "A1": [[-1]], "A2": [[-1]], "B0": [[1]], '
                     '"Q0": [[1]], "Q2": [[1]], "R0": [[1]]}')


class TestSystemFileErrors:
    @pytest.mark.parametrize(
        "command, text",
        [
            ("solve", '{"kind": "dense", "A": [[1]], "B": [[1]], "Q": [[1]]}'),
            ("solve", '{"kind": "dense", "A": [["x"]], "B": [[1]], "Q": [[1]], "R": [[1]]}'),
            ("solve", '{"kind": "dense", "A": [[Infinity]], "B": [[1]], "Q": [[1]], "R": [[1]]}'),
            ("solve", '[1, 2]'),
            ("solve", '{"kind": "dense", "A": '),
            ("solve", '{"kind": "dense", "A": [["1"]], "B": [[1]], "Q": [[1]], "R": [[1]]}'),
            ("solve", '{"kind": "dense", "A": [[1]], "B": [[true]], "Q": [[1]], "R": [[1]]}'),
            ("solve", '{"kind": "circulant", "A_first_row": ["-3", "1"], ' + CIRCULANT_ROWS + '}'),
            ("solve", '{"kind": "circulant", "A_first_row": [-3, false], ' + CIRCULANT_ROWS + '}'),
            (
                "reduce",
                '{"kind": "second_order", "A1": [[-1]], "A2": [[-1]], "B0": [[1]], '
                '"Q0": [["1"]], "Q2": [[1]], "R0": [[1]]}',
            ),
            ("check oracle", CHAMBER_FILE % '"x"'),
            ("check oracle", CHAMBER_FILE % "null"),
            ("check oracle", CHAMBER_FILE % "[1]"),
            ("check oracle", CHAMBER_FILE % '"2.0"'),
            ("check oracle", CHAMBER_FILE % "true"),
        ],
        ids=[
            "missing-key", "non-numeric", "non-finite", "not-an-object", "invalid-json",
            "dense-string", "dense-boolean", "circulant-string", "circulant-boolean",
            "second-order-string", "chamber-tag-word", "chamber-tag-null",
            "chamber-tag-list", "chamber-tag-string", "chamber-tag-boolean",
        ],
    )
    def test_bad_file_is_input_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        status, _ = run_cli(command.split() + ["--system", str(path)])
        assert status == 1
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, shown, message",
        [
            ("solve", SECOND_ORDER_FILE,
             "", "second-order system files solve only through 'reduce'"),
            ("check oracle", SECOND_ORDER_FILE,
             "check mode: oracle\n", "second-order system files solve only through 'reduce'"),
            ("check thm1", '{"kind": "dense", "A": [[1, 1], [-1, 1]], "B": [[1, 0], [0, 1]], '
             '"Q": [[1e300, 0], [0, 1e-300]], "R": [[1, 0], [0, 1]]}',
             "check mode: thm1\n", "condition state_weight_ratio: its ratio is not finite"),
            ("check thm2", '{"kind": "dense", "A": [[-1]], "B": [[1]], "Q": [[1]], "R": [[1]]}',
             "check mode: thm2\n", "expected a circulant system file, got kind 'dense'"),
            ("check cor3", '{"kind": "circulant", "A_first_row": [-3, 1, 1], '
             '"B_first_row": [1, 0, 0], "Q_first_row": [1, 0, 0], "R_first_row": [1, 0, 0]}',
             "check mode: cor3\n", "spec 'a' must have size 2, got 3"),
            ("solve",
             '{"kind": "dense", "A": [[-1]], "B": [[1]], "Q": [[1]], "R": [[1]], "model": [1]}',
             "", "'model' must be an object when present"),
            ("solve", '{"kind": "sparse", "A": [[-1]]}',
             "", "system file 'kind' must be one of: dense, circulant, second_order"),
        ],
        ids=["solve-second-order", "check-oracle-second-order", "thm1-ratio-overflows",
             "thm2-dense", "cor3-size-3", "model-not-object", "unknown-kind"],
    )
    def test_refusal_names_its_cause(self, tmp_path, capsys, command, text, shown, message):
        path = tmp_path / "sys.json"
        path.write_text(text)
        status, out = run_cli(command.split() + ["--system", str(path)])
        assert (status, out) == (1, shown)
        assert capsys.readouterr().err == f"input error: {message}\n"


class TestCheck:
    def test_thm1_on_worked_system(self, worked_file):
        status, text = run_cli(["check", "thm1", "--system", worked_file])
        assert status == 0
        assert "analytic holds: true" in text
        assert "oracle decentralized: true" in text
        assert "condition opposite_offdiag_signs: true" in text
        rows = text.split("K:\n")[1].splitlines()[:2]
        K = np.array([[float(x) for x in row.split()] for row in rows])
        assert np.max(np.abs(K - np.diag([3.0, 12.0]))) <= 1e-12 * 12.0

    def test_thm1_output_on_the_synthesized_predprey_file(self, tmp_path):
        path = tmp_path / "pp.json"
        assert run_cli(["model", "predprey", "--r1", "2", "--r2", "1", "--k1", "1",
                        "--k2", "1", "--b", "1", "--e", "1",
                        "--decentralizing-cost", "--out", str(path)])[0] == 0
        status, text = run_cli(["check", "thm1", "--system", str(path)])
        head, tail = text.split("offdiag mass: ")
        assert status == 0 and head == (
            "check mode: thm1\n"
            "condition opposite_offdiag_signs: true\n"
            "condition same_diag_signs: true\n"
            "condition state_weight_ratio: true  (ratio=2, target=2)\n"
            "condition input_weight_ratio: true  (ratio=0.125, target=0.125)\n"
            "analytic holds: true\n"
            "oracle decentralized: true\n"
        )
        # The solver's last bits are left free: the off-diagonal entries of K
        # are rounding noise, and K = R^-1 P = diag(p0/8, p2) = diag(1/6, 1/3).
        mass, label, *rows = tail.splitlines()
        assert float(mass) < 1e-15 and label == "K:" and len(rows) == 2
        K = np.array([[float(x) for x in row.split()] for row in rows])
        assert np.max(np.abs(K - np.diag([1 / 6, 1 / 3]))) <= 1e-15

    def test_thm1_rejects_coupled_cost(self, tmp_path):
        path = tmp_path / "coupled.json"
        save_system(
            dense_document(
                [[1.0, 2.0], [-3.0, 4.0]],
                np.eye(2),
                [[3.0, 0.5], [0.5, 8.0]],
                np.diag([1.0, 1.0]),
            ),
            path,
        )
        status, _ = run_cli(["check", "thm1", "--system", str(path)])
        assert status == 1

    def test_thm1_validates_the_problem_before_the_family(self, tmp_path, capsys):
        path = tmp_path / "asymmetric.json"
        Q = [[3.0, 0.5], [0.0, 8.0]]
        save_system(dense_document([[1.0, 2.0], [-3.0, 4.0]], np.eye(2), Q, np.eye(2)), path)
        status, text = run_cli(["check", "thm1", "--system", str(path)])
        assert (status, text) == (1, "check mode: thm1\n")
        assert capsys.readouterr().err == "input error: Q must be symmetric\n"

    @pytest.mark.parametrize("command", [["check", "thm1"], ["check", "oracle"], ["solve"]],
                             ids=["thm1", "oracle", "solve"])
    def test_one_validated_problem_per_command(self, worked_file, monkeypatch, command):
        # LqrProblem validates Q and R, and solve_care validates them again
        # (2 + 2 require_spd calls); check thm1 reads the same problem.
        calls = []
        post_init, require_spd = lqr.LqrProblem.__post_init__, matcore.require_spd
        monkeypatch.setattr(
            lqr.LqrProblem, "__post_init__", lambda prob: calls.append("problem") or post_init(prob)
        )
        monkeypatch.setattr(
            matcore, "require_spd", lambda *args: calls.append("spd") or require_spd(*args)
        )
        status, _ = run_cli([*command, "--system", worked_file])
        assert status == 0
        assert (calls.count("problem"), calls.count("spd")) == (1, 4)

    def test_thm2_on_diffusion(self, tmp_path):
        status, _ = run_cli(
            ["model", "diffusion", "--n", "4", "--delta", "1",
             "--decentralizing-cost", "--out", str(tmp_path / "d.json")]
        )
        assert status == 0
        status, text = run_cli(["check", "thm2", "--system", str(tmp_path / "d.json")])
        assert status == 0
        assert "uniform gain found: true" in text
        assert "scalar gain c: 1" in text
        assert "oracle decentralized: true" in text

    def test_cor3_balanced_instance(self, tmp_path):
        path = tmp_path / "bal.json"
        save_system(
            circulant_document(
                CirculantSpec([-2.0, -1.0]),
                CirculantSpec([2.0, 1.0]),
                identity_spec(2),
                identity_spec(2),
            ),
            path,
        )
        status, text = run_cli(["check", "cor3", "--system", str(path)])
        assert status == 0
        assert "analytic holds: true" in text
        assert "oracle decentralized: true" in text

    def test_cor3_prints_both_balance_conditions(self, tmp_path):
        path = tmp_path / "bal.json"
        save_system(circulant_document(CirculantSpec([-2.0, -1.0]), CirculantSpec([2.0, 1.0]),
                                       identity_spec(2), identity_spec(2)), path)
        status, text = run_cli(["check", "cor3", "--system", str(path)])
        assert status == 0
        assert text.startswith(
            "check mode: cor3\n"
            "condition dynamics_balance: true  "
            "(ratio=0.33333333333333331, target=0.33333333333333331)\n"
            "condition cost_balance: true  (ratio=1, target=1)\n"
            "analytic holds: true\n"
            "scalar gain c: 0.41421356237309509\n"
        )

    def test_cor3_on_an_overflowing_difference_is_warning_free(self, tmp_path, capsys):
        # a0 - a1 overflows for A = [-1.5e308, 1e308]; the ratio is 5.
        path = tmp_path / "big.json"
        save_system(circulant_document(CirculantSpec([-1.5e308, 1e308]), CirculantSpec([3.0, 1.0]),
                                       identity_spec(2), identity_spec(2)), path)
        status, text = run_cli(["check", "cor3", "--system", str(path)])
        assert status == 2
        assert text == (
            "check mode: cor3\n"
            "condition dynamics_balance: false  (ratio=5, target=0.5)\n"
            "condition cost_balance: true  (ratio=1, target=1)\n"
            "analytic holds: false\n"
        )
        assert capsys.readouterr().err.startswith("solver failure: ")

    def test_cor3_search_error_comes_before_the_conditions(self, tmp_path, capsys):
        # A = B = [[1, 1], [1, 1]] balances, and B is frequency-singular.
        path = tmp_path / "singular.json"
        save_system(circulant_document(CirculantSpec([1.0, 1.0]), CirculantSpec([1.0, 1.0]),
                                       identity_spec(2), identity_spec(2)), path)
        status, text = run_cli(["check", "cor3", "--system", str(path)])
        assert (status, text) == (1, "check mode: cor3\n")
        assert capsys.readouterr().err == (
            "input error: frequency-singular: an eigenvalue of 'b' vanishes\n"
        )

    def test_thm1_judges_signs_whose_product_underflows(self, tmp_path):
        path = tmp_path / "tiny.json"
        save_system(dense_document([[1.0, 1e-170], [-1e-170, 1.0]], np.eye(2), np.eye(2),
                                   np.eye(2)), path)
        status, text = run_cli(["check", "thm1", "--system", str(path)])
        assert status == 0
        assert "condition opposite_offdiag_signs: true\n" in text
        assert "analytic holds: true\noracle decentralized: true\n" in text

    def test_cor3_equal_entry_row(self, tmp_path):
        path = tmp_path / "equal.json"
        save_system(
            circulant_document(
                CirculantSpec([1.0, 1.0]),
                CirculantSpec([2.0, 1.0]),
                identity_spec(2),
                identity_spec(2),
            ),
            path,
        )
        status, text = run_cli(["check", "cor3", "--system", str(path)])
        assert status == 0
        assert "analytic holds: false" in text
        assert "oracle decentralized: false" in text

    @pytest.mark.parametrize(
        "doc",
        [
            circulant_document(
                CirculantSpec([1.0, 2.0]), identity_spec(2), identity_spec(2), identity_spec(2)
            ),
            dense_document(-np.eye(3), np.eye(3), np.eye(3), np.eye(3)),
            dense_document([[1.0, 2.0], [-3.0, 4.0]], 2.0 * np.eye(2), np.eye(2), np.eye(2)),
            # ||B|| squared overflows: against an infinite scale, B would pass for I.
            dense_document([[1.0, 1.0], [-1.0, 1.0]], np.diag([1e200, 1.0]), np.eye(2), np.eye(2)),
        ],
        ids=["circulant", "dense-3x3", "b-not-identity", "b-huge"],
    )
    def test_thm1_rejects_other_systems(self, tmp_path, capsys, doc):
        path = tmp_path / "sys.json"
        save_system(doc, path)
        status, _ = run_cli(["check", "thm1", "--system", str(path)])
        assert status == 1
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weights", [("Q", [3.0, -1.0]), ("R", [0.0, 1.0])], ids=["q-negative", "r-zero"]
    )
    def test_thm1_refuses_nonpositive_weights(self, tmp_path, capsys, weights):
        # Weights are read only off a valid problem, so 1/r never meets r = 0.
        name, diagonal = weights
        mats = {"Q": np.eye(2), "R": np.eye(2), name: np.diag(diagonal)}
        path = tmp_path / "weights.json"
        save_system(
            dense_document([[1.0, 1.0], [-1.0, 1.0]], np.eye(2), mats["Q"], mats["R"]), path
        )
        status, text = run_cli(["check", "thm1", "--system", str(path)])
        assert (status, text) == (1, "check mode: thm1\n")
        assert capsys.readouterr().err == f"input error: {name} must be positive definite\n"

    def test_oracle_judges_a_gain_whose_norm_overflows(self, tmp_path):
        # K is about 1e154 (R^{-1/2} Q^{1/2}) and ||K||_F squared overflows:
        # against an infinite scale the coupled gain would pass for diagonal.
        path = tmp_path / "huge.json"
        save_system(
            dense_document(
                [[1.0, 1.0], [-1.0, 1.0]], np.eye(2), [[1.0, 0.5], [0.5, 1.0]], 1e-308 * np.eye(2)
            ),
            path,
        )
        status, text = run_cli(["check", "oracle", "--system", str(path)])
        assert status == 0
        assert "oracle decentralized: false\n" in text
        mass = float(text.split("offdiag mass: ")[1].split()[0])
        # The off-diagonal share of K = c Q^{1/2}: sin(pi/12) for this Q.
        assert mass == pytest.approx(np.sin(np.pi / 12), rel=1e-12)

    @pytest.mark.parametrize(
        "B, R", [(np.diag([1e200, 1.0]), np.eye(2)), (np.eye(2), np.diag([1e-320, 1.0]))],
        ids=["b-huge", "r-subnormal"],
    )
    def test_oracle_names_an_overflowing_hamiltonian(self, tmp_path, capsys, B, R):
        path = tmp_path / "huge.json"
        save_system(dense_document([[1.0, 1.0], [-1.0, 1.0]], B, np.eye(2), R), path)
        status, text = run_cli(["check", "oracle", "--system", str(path)])
        assert (status, text) == (2, "check mode: oracle\n")
        assert capsys.readouterr().err == (
            "solver failure: unstabilizable or ill-conditioned pair: "
            "G = B R^-1 B' is not finite in 64-bit floats\n"
        )

    def test_oracle_mode(self, worked_file):
        status, text = run_cli(["check", "oracle", "--system", worked_file])
        assert status == 0
        assert "oracle decentralized: true" in text

    def test_thm1_judges_the_files_own_problem(self, tmp_path, monkeypatch):
        # Neither 0.11 nor 0.19 survives r -> 1/(1/r).
        R = np.diag([0.11, 0.19])
        path = tmp_path / "awkward.json"
        save_system(
            dense_document([[1.0, 2.0], [-3.0, 4.0]], np.eye(2), np.diag([3.0, 8.0]), R), path
        )
        judged = []
        oracle_check = decentral.oracle_check
        monkeypatch.setattr(
            decentral, "oracle_check", lambda prob: judged.append(prob) or oracle_check(prob)
        )
        status, thm1 = run_cli(["check", "thm1", "--system", str(path)])
        assert status == 0
        status, oracle = run_cli(["check", "oracle", "--system", str(path)])
        assert status == 0
        marker = "oracle decentralized:"
        assert thm1[thm1.index(marker):] == oracle[oracle.index(marker):]
        assert [np.array_equal(prob.R, R) for prob in judged] == [True, True]

    def test_thm2_on_a_strongly_stable_ring(self, tmp_path):
        # (a + sqrt(a^2 + q)) rounds to 0 at a = -1e8; the gain is
        # 1/(1e8 + sqrt(1e16 + 1)) = 5e-9, which the oracle prints as well.
        path = tmp_path / "fast.json"
        eye = identity_spec(4)
        save_system(circulant_document(CirculantSpec([-1e8, 0.0, 0.0, 0.0]), eye, eye, eye), path)
        status, text = run_cli(["check", "thm2", "--system", str(path)])
        assert status == 0
        assert "uniform gain found: true\nscalar gain c: 5.0000000000000001e-09\n" in text
        assert "K:\n  5.0000000000000001e-09 0 0 0\n" in text

    @pytest.mark.parametrize("a", [-1e200, 1e200])
    def test_thm2_on_a_ring_beyond_the_square_range(self, tmp_path, a):
        # a^2 overflows above about 1.3e154; the gain is 1/(2|a|) for a < 0
        # and 2a for a > 0, to within 1/a^2, printed without a warning.
        path = tmp_path / "huge.json"
        eye = identity_spec(4)
        save_system(circulant_document(CirculantSpec([a, 0.0, 0.0, 0.0]), eye, eye, eye), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, text = run_cli(["check", "thm2", "--system", str(path)])
        assert "uniform gain found: true\n" in text
        c = float(text.split("scalar gain c: ")[1].split("\n")[0])
        if a < 0:
            assert c == pytest.approx(5e-201, rel=1e-15)
            assert status == 0 and "oracle decentralized: true" in text
            K = np.array([[float(x) for x in row.split()] for row in text.split("K:\n")[1].splitlines()])
            assert np.all(np.abs(K - c * np.eye(4)) <= 1e-6 * c)
        else:
            # The oracle's P^2 term, about 4e400, is beyond the float range.
            assert c == pytest.approx(2e200, rel=1e-15)
            assert status == 2

    @pytest.mark.parametrize("a", [-1e200, 1e200])
    def test_thm2_oracle_on_a_ring_beyond_the_square_range(self, tmp_path, capsys, a):
        # At a = -1e200 the oracle's K is the exact 5e-201 I (its Lyapunov
        # step underflowed to 4.9999999627e-201 I); at a = 1e200 the solver
        # names the quadratic term P B R^-1 B' P, about 4e400.
        path = tmp_path / "huge.json"
        eye = identity_spec(4)
        save_system(circulant_document(CirculantSpec([a, 0.0, 0.0, 0.0]), eye, eye, eye), path)
        status, text = run_cli(["check", "thm2", "--system", str(path)])
        if a < 0:
            K = np.array([[float(x) for x in row.split()] for row in text.split("K:\n")[1].splitlines()])
            assert status == 0 and np.allclose(K, 5e-201 * np.eye(4), rtol=1e-15, atol=0.0)
        else:
            assert status == 2
            assert "P B R^-1 B' P is not finite in 64-bit floats" in capsys.readouterr().err

    def test_thm2_on_a_spectrum_beyond_the_float_range(self, tmp_path, capsys):
        # Every entry of Q's first row, about [1.8e308, -8.9e307, -8.9e307],
        # is finite and Q is positive definite, but its eigenvalue
        # q(1) = q0 - q1 overflows.
        path = str(tmp_path / "d.json")
        assert run_cli(["model", "diffusion", "--n", "3", "--delta", "1.5e-154",
                        "--decentralizing-cost", "--out", path])[0] == 0
        capsys.readouterr()
        assert run_cli(["check", "thm2", "--system", path]) == (1, "check mode: thm2\n")
        assert capsys.readouterr().err == (
            "input error: circulant eigenvalues leave the float range (spec 3 of 4)\n")

    def test_thm2_on_gains_beyond_the_float_range(self, tmp_path, capsys):
        # Finite spectra, but the per-frequency root 2a overflows.
        path = tmp_path / "nan.json"
        e0 = CirculantSpec([1.0, 0.0])
        save_system(circulant_document(CirculantSpec([1e308, 0.0]), e0, e0, e0), path)
        assert run_cli(["check", "thm2", "--system", str(path)]) == (1, "check mode: thm2\n")
        assert capsys.readouterr().err == (
            "input error: the per-frequency gains leave the float range\n")

    def test_thm2_on_non_symmetric_ring(self, tmp_path):
        path = tmp_path / "ring.json"
        save_system(circulant_document(*nonsymmetric_uniform_gain_instance()), path)
        status, text = run_cli(["check", "thm2", "--system", str(path)])
        assert status == 0
        assert "uniform gain found: true\nscalar gain c: 4\n" in text
        assert "oracle decentralized: true" in text


class TestChamberAdjudication:
    def test_both_predicates_and_consistency(self, tmp_path):
        path = tmp_path / "chamber.json"
        status, _ = run_cli(
            ["model", "chamber", "--alpha0", "3", "--alpha1", "1",
             "--beta0", "3", "--beta1", "1", "--out", str(path)]
        )
        assert status == 0
        status, text = run_cli(["check", "oracle", "--system", str(path)])
        assert status == 0
        assert "chamber adjudication:" in text
        assert "  magnitude balance (alpha vs beta ratios): true  (ratio=0.5, target=0.5)\n" in text
        assert "  entry balance (signed entries, a0 = -alpha0): false  (ratio=2, target=0.5)\n" in text
        assert "oracle decentralized: false" in text
        assert "consistency (oracle matches prediction): true" in text

    def test_one_riccati_solve_per_check(self, tmp_path, monkeypatch):
        import declqr.lqr

        calls = []
        solve_care = declqr.lqr.solve_care
        monkeypatch.setattr(
            declqr.lqr, "solve_care", lambda *args: calls.append(1) or solve_care(*args)
        )
        path = tmp_path / "chamber.json"
        run_cli(["model", "chamber", "--alpha0", "3", "--alpha1", "1",
                 "--beta0", "3", "--beta1", "1", "--out", str(path)])
        status, text = run_cli(["check", "oracle", "--system", str(path)])
        assert status == 0
        assert "chamber adjudication:" in text
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["oracle", "cor3"])
    def test_frequency_singular_b_predicts_no_uniform_gain(self, tmp_path, mode):
        path = tmp_path / "chamber.json"
        run_cli(["model", "chamber", "--alpha0", "3", "--alpha1", "1",
                 "--beta0", "3", "--beta1", "3", "--out", str(path)])
        status, text = run_cli(["check", mode, "--system", str(path)])
        assert status == 0
        assert "uniform-gain prediction (decentralized): false" in text
        assert "  oracle decentralized: false" in text
        assert "consistency (oracle matches prediction): true" in text

    @pytest.mark.parametrize(
        "mode, rows, tag, message",
        [
            ("thm2", '"B_first_row": [3, 3], "Q_first_row": [1, 0], "R_first_row": [1, 0]',
             CHAMBER_TAG, "frequency-singular: an eigenvalue of 'b' vanishes"),
            ("oracle",
             '"B_first_row": [3, 1], "Q_first_row": [1, 0], "R_first_row": [1, 0.9999999999999]',
             CHAMBER_TAG, "frequency-singular: an eigenvalue of 'r' vanishes"),
            ("oracle", CIRCULANT_ROWS, {"alpha0": 3, "alpha1": 1, "beta0": 3},
             "chamber model tag is missing coefficient 'beta1'"),
        ],
        ids=["thm2-singular-b", "near-singular-r", "tag-missing-beta1"],
    )
    def test_input_errors_still_propagate(self, tmp_path, capsys, mode, rows, tag, message):
        path = tmp_path / "chamber.json"
        path.write_text(
            '{"kind": "circulant", "A_first_row": [-3, 1], ' + rows
            + ', "model": ' + json.dumps({"name": "chamber", **tag}) + "}"
        )
        status, _ = run_cli(["check", mode, "--system", str(path)])
        assert status == 1
        assert message in capsys.readouterr().err


class TestModel:
    def test_diffusion_decentralizing_cost_file(self, tmp_path):
        path = tmp_path / "d.json"
        run_cli(["model", "diffusion", "--n", "4", "--delta", "1",
                 "--decentralizing-cost", "--out", str(path)])
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["kind"] == "circulant"
        assert doc["Q_first_row"] == [5.0, -2.0, -0.0, -2.0]
        assert doc["A_first_row"] == [-2.0, 1.0, 0.0, 1.0]

    def test_predprey_synthesized_cost_checks_out(self, tmp_path):
        path = tmp_path / "pp.json"
        run_cli(["model", "predprey", "--r1", "2", "--r2", "1", "--k1", "1",
                 "--k2", "1", "--b", "1", "--e", "1",
                 "--decentralizing-cost", "--out", str(path)])
        status, text = run_cli(["check", "thm1", "--system", str(path)])
        assert status == 0
        assert "analytic holds: true" in text
        system = load_system(path)
        _, _, Q, _ = system.payload
        assert Q[0, 0] / Q[1, 1] == pytest.approx(2.0, rel=1e-12)

    def test_predprey_synthesized_cost_takes_the_given_weights(self):
        status, text = run_cli(["model", "predprey", "--r1", "2", "--r2", "1", "--k1", "1",
                                "--k2", "1", "--b", "1", "--e", "1",
                                "--decentralizing-cost", "--q2", "5", "--gamma2", "4"])
        assert status == 0
        doc = json.loads(text)
        assert doc["Q"][1][1] == 5.0 and doc["R"][1][1] == 0.25

    @pytest.mark.parametrize(
        "weights", [["--q2", "5", "--gamma2", "3"], ["--gamma2", "3"]], ids=["q2-gamma2", "gamma2"]
    )
    def test_predprey_weights_need_decentralizing_cost(self, capsys, weights):
        # Without the flag Q = R = I, and the weights would be dropped unrecorded.
        status, text = run_cli(["model", "predprey", "--r1", "2", "--r2", "1", "--k1", "1",
                                "--k2", "1", "--b", "1", "--e", "1"] + weights)
        assert (status, text) == (1, "")
        assert capsys.readouterr().err == f"input error: {weights[0]} needs --decentralizing-cost\n"

    def test_diffusion_size_beyond_the_limit_is_an_input_error(self, capsys):
        status, text = run_cli(["model", "diffusion", "--n", "100000000000000000000"])
        assert (status, text) == (1, "")
        assert capsys.readouterr().err == (
            "input error: n must be at most 10000000, got 100000000000000000000\n"
        )

    @pytest.mark.parametrize("cost", [[], ["--decentralizing-cost"]], ids=["plain", "cost"])
    @pytest.mark.parametrize("delta", ["1e200", "1e-200"], ids=["huge", "tiny"])
    def test_diffusion_spacing_beyond_the_float_range_is_an_input_error(self, capsys, delta, cost):
        status, text = run_cli(["model", "diffusion", "--n", "3", "--delta", delta] + cost)
        assert (status, text) == (1, "")
        assert capsys.readouterr().err == (
            f"input error: delta = {float(delta)!r} puts 2/delta^2 or 4/delta^2 "
            "outside the float range\n"
        )

    @pytest.mark.parametrize(
        "params",
        [["--r1", "1", "--r2", "1", "--k1", "1", "--k2", "1", "--b", "1e200", "--e", "1"],
         [x for k in ("r1", "r2", "k1", "k2", "b", "e") for x in (f"--{k}", "1e-300")]],
        ids=["b-huge", "all-tiny"],
    )
    def test_predprey_jacobian_beyond_the_float_range_is_an_input_error(self, capsys, params):
        status, text = run_cli(["model", "predprey"] + params)
        assert (status, text) == (1, "")
        assert capsys.readouterr().err == (
            "input error: the predprey Jacobian leaves the float range\n"
        )

    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        status, text = run_cli(["model", "perf", "--out", str(path)])
        assert (status, text) == (1, "")
        assert capsys.readouterr().err == (
            f"input error: cannot write system file: [Errno 2] No such file or directory: "
            f"'{path}'\n"
        )

    def test_diffusion_default_cost_is_identity(self):
        status, text = run_cli(["model", "diffusion", "--n", "4"])
        assert status == 0
        doc = json.loads(text)
        assert doc["A_first_row"] == [-2.0, 1.0, 0.0, 1.0]
        identity_row = [1.0, 0.0, 0.0, 0.0]
        assert doc["B_first_row"] == doc["Q_first_row"] == doc["R_first_row"] == identity_row

    def test_perf_model_solves(self, tmp_path):
        path = tmp_path / "perf.json"
        run_cli(["model", "perf", "--q0", "1", "--gamma2", "1", "--out", str(path)])
        status, text = run_cli(["check", "oracle", "--system", str(path)])
        assert status == 0
        assert "oracle decentralized: true" in text

    def test_model_to_stdout_is_json(self):
        status, text = run_cli(["model", "perf"])
        assert status == 0
        doc = json.loads(text)
        assert doc["kind"] == "dense"

    def test_bad_parameters_are_input_errors(self, capsys):
        status, _ = run_cli(["model", "diffusion", "--n", "2", "--out", "x.json"])
        assert status == 1
        status, _ = run_cli(
            ["model", "chamber", "--alpha0", "2", "--alpha1", "2",
             "--beta0", "1", "--beta1", "1"]
        )
        assert status == 1
        assert "input error: degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, tag",
        [
            (["predprey", "--r1", "2", "--r2", "1", "--k1", "1", "--k2", "1", "--b", "1",
              "--e", "0.5"],
             {"name": "predprey", "r1": 2.0, "r2": 1.0, "k1": 1.0, "k2": 1.0, "b": 1.0, "e": 0.5}),
            (["chamber", "--alpha0", "3", "--alpha1", "1", "--beta0", "3", "--beta1", "0.5"],
             {"name": "chamber", "alpha0": 3.0, "alpha1": 1.0, "beta0": 3.0, "beta1": 0.5}),
        ],
        ids=["predprey", "chamber"],
    )
    def test_model_tag_holds_name_and_parameters(self, args, tag):
        status, text = run_cli(["model"] + args)
        assert status == 0
        assert json.loads(text)["model"] == tag


class TestDocuments:
    @pytest.mark.parametrize(
        "build",
        [
            lambda model: dense_document(np.eye(2), np.eye(2), np.eye(2), np.eye(2), model=model),
            lambda model: circulant_document(*[identity_spec(2)] * 4, model=model),
            lambda model: second_order_document(SecondOrderSystem(*[np.eye(2)] * 6), model=model),
        ],
        ids=["dense", "circulant", "second-order"],
    )
    def test_model_written_only_when_given(self, build):
        assert "model" not in build(None)
        assert build({"name": "tagged"})["model"] == {"name": "tagged"}


class TestSweepCommand:
    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        status, text = run_cli(["sweep", "--default", "qr", "--output", str(path)])
        assert (status, text) == (1, "")
        assert capsys.readouterr().err == (
            f"input error: cannot write sweep output: [Errno 2] No such file or directory: "
            f"'{path}'\n"
        )

    def test_config_file_run(self, tmp_path):
        cfg = {
            "kind": "qr",
            "axis1": {"min": 0.5, "max": 2.0, "steps": 5},
            "axis2": {"min": 0.5, "max": 2.0, "steps": 5},
            "output": str(tmp_path / "grid.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        status, text = run_cli(["sweep", "--config", str(cfg_path)])
        assert status == 0
        lines = (tmp_path / "grid.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 25
        assert (tmp_path / "grid.json").exists()

    def test_default_sweep_row_count(self, tmp_path):
        out = tmp_path / "fig.csv"
        status, _ = run_cli(["sweep", "--default", "qr", "--output", str(out)])
        assert status == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 441

    @pytest.mark.parametrize("kind", ["qr", "qa"])
    def test_default_is_the_config_of_its_kind(self, tmp_path, kind):
        # --default K runs the config document {"kind": K}.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": kind}))
        by_flag = run_cli(["sweep", "--default", kind, "--output", str(tmp_path / "a.csv")])
        by_file = run_cli(["sweep", "--config", str(cfg_path), "--output", str(tmp_path / "b.csv")])
        assert by_flag[0] == by_file[0] == 0
        assert by_flag[1] == by_file[1].replace("b.csv", "a.csv").replace("b.json", "a.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "cfg, points",
        [
            ({"kind": "qr", "axis1": {"steps": 1e20}}, 21 * 10**20),
            ({"kind": "qa", "curve_samples": 1e20}, 21 * 21 + 10**20),
        ],
        ids=["qr-steps", "qa-curve-samples"],
    )
    def test_too_large_sweep_is_input_error(self, tmp_path, capsys, monkeypatch, cfg, points):
        # np.linspace would raise ValueError: Maximum allowed size exceeded.
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["sweep", "--config", str(cfg_path)]) == (1, "")
        message = f"sweep has {points} points, more than the 1000000 allowed"
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = {
            "kind": "qa",
            "axis1": {"min": 0.5, "max": 2.0, "steps": 3},
            "axis2": {"min": 0.5, "max": 2.0, "steps": 3},
            "curve_samples": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli(["sweep", "--config", str(cfg_path), "--output", str(first)])
        run_cli(["sweep", "--config", str(cfg_path), "--output", str(second)])
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bad_config_is_input_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"kind": "nope"}')
        status, _ = run_cli(["sweep", "--config", str(cfg_path)])
        assert status == 1
        assert capsys.readouterr().err == 'input error: sweep config needs "kind": "qr" or "qa"\n'

    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "qr", "axis1": {"steps": "x"}},
            {"kind": "qr", "axis1": {"min": None}},
            {"kind": "qa", "curve_samples": "x"},
            {"kind": "qr", "axis1": {"steps": 2.7}},
            {"kind": ["qr"]},
            {"kind": "qr", "axis1": {"name": [1]}},
            {"kind": "qr", "output": [1]},
        ],
    )
    def test_malformed_config_field_is_input_error(self, tmp_path, capsys, monkeypatch, cfg):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        status, _ = run_cli(["sweep", "--config", str(cfg_path)])
        assert status == 1
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "kind = qr",
            '["qr"]',
            '{"kind": "qr", "axis1": 5}',
            '{"kind": "qr", "axis1": {"spacing": "cubic"}}',
            '{"kind": "qa", "curve_samples": 1}',
        ],
        ids=["missing", "not-json", "not-an-object", "axis-not-an-object", "bad-spacing",
             "one-curve-sample"],
    )
    def test_invalid_config_is_input_error(self, tmp_path, capsys, monkeypatch, text):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        status, _ = run_cli(["sweep", "--config", str(cfg_path)])
        assert status == 1
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"kind": "qr", "axis1": {"mni": 0.5, "max": 2, "steps": 3}},
             "axis1 has unknown key 'mni'"),
            ({"kind": "qa", "axis2": {"min": 0.5, "stpes": 3}}, "axis2 has unknown key 'stpes'"),
            ({"kind": "qr", "axis3": {"min": 0.5}}, "sweep config has unknown key 'axis3'"),
            ({"kind": "qr", "curve_sample": 4}, "sweep config has unknown key 'curve_sample'"),
        ],
        ids=["axis1-min", "axis2-steps", "top-axis3", "top-curve-samples"],
    )
    def test_unknown_config_key_is_input_error(self, tmp_path, capsys, monkeypatch, cfg, message):
        # A misspelled key must not leave the sweep on its default value.
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        status, _ = run_cli(["sweep", "--config", str(cfg_path)])
        assert status == 1
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_summary_is_taken_once(self, tmp_path, monkeypatch):
        # The sidecar and the printed lines share one SweepResult.summary().
        calls, summary = [], SweepResult.summary
        monkeypatch.setattr(SweepResult, "summary", lambda self: calls.append(1) or summary(self))
        status, text = run_cli(["sweep", "--default", "qa", "--output", str(tmp_path / "g.csv")])
        assert status == 0 and "curve: 20 samples" in text
        assert len(calls) == 1

    def test_linear_axis_with_an_infinite_span_is_input_error(self, tmp_path, capsys, monkeypatch):
        # max - min overflows, where np.linspace would warn and grid nan, inf.
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "kind": "qr",
            "axis1": {"min": -1.7e308, "max": 1.7e308, "steps": 3, "spacing": "linear"},
        }))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, text = run_cli(["sweep", "--config", str(cfg_path)])
        assert (status, text) == (1, "")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        message = "axis 'q0_over_q2' linear spacing needs a finite max - min"
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_neither_flag_is_input_error(self, capsys):
        status, _ = run_cli(["sweep"])
        assert status == 1
        err = capsys.readouterr().err
        assert "input error: sweep needs --config FILE or --default {qr,qa}" in err


class TestReduce:
    def test_second_order_diffusion(self, tmp_path):
        from declqr import SecondOrderSystem, circulant_materialize, diffusion_operator

        D2 = circulant_materialize(diffusion_operator(4))
        eye = np.eye(4)
        sys2 = SecondOrderSystem(
            A1=D2, A2=D2, B0=eye, Q0=eye - 2 * D2, Q2=2 * eye - 4 * D2, R0=eye
        )
        path = tmp_path / "so.json"
        save_system(second_order_document(sys2), path)
        status, text = run_cli(["reduce", "--system", str(path)])
        assert status == 0
        assert "gain_pos:" in text and "gain_vel:" in text
        assert "agreement_residual:" in text
        # The two conditions print as check prints its own, then the oracle.
        lines = text.splitlines()
        start = lines.index("oracle decentralized: true") - 2
        assert [line.split(":")[0] for line in lines[start:start + 5]] == [
            "condition reduced_gain_blocks_diagonal",
            "condition reduction_matches_full_solve",
            "oracle decentralized", "offdiag mass", "K"]
        assert lines[start].startswith("condition reduced_gain_blocks_diagonal: true  (offdiag_mass=")

    def test_wrong_kind_rejected(self, worked_file):
        status, _ = run_cli(["reduce", "--system", worked_file])
        assert status == 1


class TestUsage:
    def test_unknown_subcommand(self):
        status, _ = run_cli(["frobnicate"])
        assert status == 1

    def test_help_exits_zero(self):
        status, _ = run_cli(["--help"])
        assert status == 0

    def test_missing_required_flag(self):
        status, _ = run_cli(["solve"])
        assert status == 1

    def test_parser_is_built_once_and_reused(self, tmp_path, worked_file, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "kind": "qa",
            "axis1": {"min": 0.5, "max": 2.0, "steps": 3},
            "axis2": {"min": 0.5, "max": 2.0, "steps": 3},
            "curve_samples": 3,
        }))
        csv_path = tmp_path / "grid.csv"
        sweep = ["sweep", "--config", str(cfg_path), "--output", str(csv_path)]

        def outputs():
            status, text = run_cli(sweep)
            assert status == 0
            return text, csv_path.read_bytes(), (tmp_path / "grid.json").read_bytes()

        _build_parser.cache_clear()
        first = outputs()
        assert run_cli(["sweep", "--default", "nope"])[0] == 1
        assert run_cli(["--help"])[0] == 0
        assert "usage: declqr" in capsys.readouterr().out
        status, text = run_cli(["check", "oracle", "--system", worked_file])
        assert status == 0 and "oracle decentralized:" in text
        assert outputs() == first
        assert (_build_parser.cache_info().misses, _build_parser.cache_info().hits) == (1, 4)


class TestEntryPoint:
    """python -m declqr.cli runs main(), which exits with cli_main's status."""

    @staticmethod
    def module_env(**overrides):
        src = os.path.dirname(os.path.dirname(os.path.abspath(declqr.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return dict(os.environ, PYTHONPATH=path, **overrides)

    def run_module(self, *args):
        return subprocess.run([sys.executable, "-m", "declqr.cli", *args],
                              capture_output=True, text=True, env=self.module_env(), timeout=120)

    def test_success_exits_zero(self):
        proc = self.run_module("model", "perf")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["model"] == {"name": "perf", "q0": 1.0, "gamma2": 1.0}

    def test_input_error_exits_one(self, tmp_path):
        proc = self.run_module("solve", "--system", str(tmp_path / "missing.json"))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("input error: cannot read system file")

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_a_closed_stdout_ends_quietly_with_status_one(self, tmp_path, unbuffered):
        # About 96 kB of output, more than a pipe holds, so the run writes to
        # the pipe after its reader has closed it, buffered or not.
        path = str(tmp_path / "ring.json")
        assert run_cli(["model", "diffusion", "--n", "64", "--decentralizing-cost",
                        "--out", path])[0] == 0
        with subprocess.Popen([sys.executable, "-m", "declqr.cli", "check", "thm2", "--system", path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.module_env(PYTHONUNBUFFERED=unbuffered)) as proc:
            assert proc.stdout.readline() == b"check mode: thm2\n"
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=120) == 1

    def test_solver_failure_exits_two(self, tmp_path):
        # The b-huge file of test_oracle_names_an_overflowing_hamiltonian.
        path = tmp_path / "huge.json"
        save_system(dense_document([[1.0, 1.0], [-1.0, 1.0]], np.diag([1e200, 1.0]),
                                   np.eye(2), np.eye(2)), path)
        proc = self.run_module("check", "oracle", "--system", str(path))
        assert (proc.returncode, proc.stdout) == (2, "check mode: oracle\n")
        assert proc.stderr == (
            "solver failure: unstabilizable or ill-conditioned pair: "
            "G = B R^-1 B' is not finite in 64-bit floats\n"
        )
