import json

import numpy as np
import pytest

import declqr.decentral as decentral
import declqr.sweep as sweep
from declqr import InputError, LqrProblem, SweepAxis, SweepConfig, run_sweep
from declqr.sweep import csv_text, sidecar_dict, write_outputs

SQRT2 = np.sqrt(2.0)


def small_qr_config(steps=5):
    return SweepConfig(
        kind="qr",
        axis1=SweepAxis("q0_over_q2", 0.5, 2.0, steps),
        axis2=SweepAxis("gamma0_over_gamma2", 0.5, 2.0, steps),
    )


class TestConfig:
    def test_defaults(self):
        cfg = SweepConfig.default_qr()
        assert cfg.axis1.steps == cfg.axis2.steps == 21
        assert cfg.axis1.lo == 0.2 and cfg.axis1.hi == 5.0
        cfg = SweepConfig.default_qa()
        assert cfg.axis1.lo == 0.1 and cfg.axis1.hi == 10.0

    def test_log_grid_hits_unit_midpoint(self):
        grid = SweepConfig.default_qr().axis1.grid()
        assert grid[10] == pytest.approx(1.0, abs=1e-12)

    def test_from_dict_overrides(self):
        cfg = SweepConfig.from_dict(
            {
                "kind": "qr",
                "axis1": {"min": 0.5, "max": 2.0, "steps": 7},
                "output": "out.csv",
            }
        )
        assert cfg.axis1.steps == 7
        assert cfg.axis2.steps == 21
        assert cfg.output == "out.csv"

    def test_round_trip_dict(self):
        cfg = SweepConfig.default_qa()
        again = SweepConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_bad_kind_rejected(self):
        with pytest.raises(InputError):
            SweepConfig.from_dict({"kind": "zz"})
        axis = SweepAxis("x", 1.0, 2.0, 3)
        with pytest.raises(InputError, match="^sweep kind must be 'qr' or 'qa'$"):
            SweepConfig(kind="zz", axis1=axis, axis2=axis)

    def test_bad_axis_rejected(self):
        with pytest.raises(InputError):
            SweepAxis("x", 2.0, 1.0, 5)
        with pytest.raises(InputError):
            SweepAxis("x", 1.0, 2.0, 1)
        with pytest.raises(InputError):
            SweepAxis("x", -1.0, 2.0, 5, spacing="log")


class TestQrSweep:
    def test_grid_completeness_and_center(self):
        result = run_sweep(small_qr_config())
        assert len(result.records) == 25
        assert all(r.status == "ok" for r in result.records)
        center = min(
            result.records, key=lambda r: abs(r.axis1 - 1.0) + abs(r.axis2 - 1.0)
        )
        assert center.axis1 == pytest.approx(1.0)
        assert center.decentralized
        assert center.h2 == pytest.approx(np.sqrt(2.0 * (1.0 + SQRT2)), abs=1e-10)

    def test_failed_points_carry_status(self):
        cfg = SweepConfig(
            kind="qr",
            axis1=SweepAxis("q0_over_q2", -1.0, 1.0, 3, spacing="linear"),
            axis2=SweepAxis("gamma0_over_gamma2", 0.5, 2.0, 2),
        )
        result = run_sweep(cfg)
        assert len(result.records) == 6
        bad = [r for r in result.records if r.status != "ok"]
        assert bad and all(r.h2 is None for r in bad)
        assert all(r.status == "InputError" for r in bad)


class TestStackedSolve:
    def test_one_stacked_solve_and_no_per_point_calls(self, monkeypatch):
        sizes = []
        solve_stack = sweep.solve_care_stack

        def counting(*stacks):
            sizes.append(len(stacks[0]))
            return solve_stack(*stacks)

        def per_point(*args, **kwargs):
            raise AssertionError("per-point call on the sweep path")

        monkeypatch.setattr(sweep, "solve_care_stack", counting)
        monkeypatch.setattr(decentral, "oracle_check", per_point)
        monkeypatch.setattr(LqrProblem, "__post_init__", per_point)
        cfg = SweepConfig(
            kind="qa",
            axis1=SweepAxis("q0", 0.5, 2.0, 3),
            axis2=SweepAxis("a2_over_a0", 0.5, 2.0, 4),
            curve_samples=5,
        )
        result = run_sweep(cfg)
        assert sizes == [12 + 5]
        assert len(result.records) == 12 and len(result.curve) == 5

    def test_point_is_the_same_alone_and_in_a_larger_grid(self):
        # Log grids keep their end points exactly, so the 2 x 2 grid's points
        # are the corners of the 5 x 5 grid.
        corners = {(r.axis1, r.axis2): r for r in run_sweep(small_qr_config(steps=5)).records}
        small = run_sweep(small_qr_config(steps=2)).records
        assert len(small) == 4
        for rec in small:
            assert corners[(rec.axis1, rec.axis2)] == rec


class TestQaSweep:
    def test_curve_points_are_decentralized(self):
        cfg = SweepConfig(
            kind="qa",
            axis1=SweepAxis("q0", 0.5, 2.0, 3),
            axis2=SweepAxis("a2_over_a0", 0.5, 2.0, 3),
            curve_samples=3,
        )
        result = run_sweep(cfg)
        assert len(result.records) == 9
        assert len(result.curve) == 3
        for s in result.curve:
            assert s.decentralized
            assert s.axis1 == pytest.approx(1.0 / s.axis2, rel=1e-12)
        by_a2 = {round(s.axis2, 6): s for s in result.curve}
        assert by_a2[2.0].axis1 == pytest.approx(0.5)
        assert by_a2[1.0].axis1 == pytest.approx(1.0)
        for sample in sidecar_dict(result)["curve"]:
            assert sample["gamma2"] == sample["a2"]
            assert sample["q0"] == pytest.approx(1.0 / sample["a2"], rel=1e-12)

    def test_nonpositive_curve_points_excluded(self):
        cfg = SweepConfig(
            kind="qa",
            axis1=SweepAxis("q0", 0.5, 2.0, 2),
            axis2=SweepAxis("a2_over_a0", -1.0, 2.0, 2, spacing="linear"),
            curve_samples=4,
        )
        result = run_sweep(cfg)
        assert result.curve_excluded
        for a2, reason in result.curve_excluded:
            assert a2 <= 0
            assert "same-sign" in reason

    def test_failed_curve_solves_excluded_with_status(self):
        # At a2 = 1e9 the locus weights are q0 = 1e-9 and R = diag(1, 1e-9):
        # the solve fails instead of yielding a sample.
        cfg = SweepConfig(
            kind="qa",
            axis1=SweepAxis("q0", 1e-9, 1e9, 2),
            axis2=SweepAxis("a2_over_a0", 1e-9, 1e9, 2),
            curve_samples=10,
        )
        result = run_sweep(cfg)
        assert result.curve_excluded == [(1e9, "UnstabilizableError")]
        assert len(result.curve) == 9
        data = sidecar_dict(result)
        assert data["curve_excluded"] == [{"a2": 1e9, "reason": "UnstabilizableError"}]
        assert data["summary"]["curve"]["excluded"] == 1

    def test_cost_varies_along_curve(self):
        cfg = SweepConfig(
            kind="qa",
            axis1=SweepAxis("q0", 0.1, 10.0, 2),
            axis2=SweepAxis("a2_over_a0", 0.1, 10.0, 2),
            curve_samples=20,
        )
        result = run_sweep(cfg)
        h2s = [s.h2 for s in result.curve]
        assert (max(h2s) - min(h2s)) / min(h2s) > 0.10


class TestOutputs:
    def test_csv_shape_and_order(self):
        result = run_sweep(small_qr_config(steps=3))
        text = csv_text(result)
        lines = text.strip().split("\n")
        assert lines[0] == "axis1,axis2,h2,decentralized,offdiag_mass,status"
        assert len(lines) == 1 + 9
        cells = lines[1].split(",")
        assert len(cells) == 6
        assert cells[-1] == "ok"
        assert cells[3] in ("0", "1")

    def test_determinism(self):
        cfg = small_qr_config()
        assert csv_text(run_sweep(cfg)) == csv_text(run_sweep(cfg))

    def test_write_outputs(self, tmp_path):
        result = run_sweep(small_qr_config(steps=3))
        csv_path, json_path = write_outputs(result, tmp_path / "grid.csv")
        assert csv_path.endswith("grid.csv")
        assert json_path.endswith("grid.json")
        with open(json_path) as fh:
            sidecar = json.load(fh)
        assert sidecar["summary"]["points"] == 9
        assert sidecar["summary"]["solved"] == 9
        assert "h2_min" in sidecar["summary"]
        assert sidecar["config"]["kind"] == "qr"

    def test_floats_carry_seventeen_digits(self):
        result = run_sweep(small_qr_config(steps=3))
        text = csv_text(result)
        value = text.strip().split("\n")[1].split(",")[0]
        assert float(value) == result.records[0].axis1

    def test_failed_rows_leave_value_cells_empty(self):
        cfg = SweepConfig(
            kind="qr",
            axis1=SweepAxis("q0_over_q2", -1.0, 1.0, 3, spacing="linear"),
            axis2=SweepAxis("gamma0_over_gamma2", 0.5, 2.0, 2),
        )
        result = run_sweep(cfg)
        rows = [line.split(",") for line in csv_text(result).strip().split("\n")[1:]]
        failed = [cells for cells in rows if cells[-1] != "ok"]
        assert len(failed) == 4  # q0/q2 = -1 and 0 are not positive definite
        for cells in failed:
            assert cells[2:] == ["", "", "", "InputError"]
            assert float(cells[0]) <= 0.0
        summary = sidecar_dict(result)["summary"]
        assert (summary["points"], summary["solved"], summary["failed"]) == (6, 2, 4)

    def test_sidecar_includes_curve(self):
        cfg = SweepConfig(
            kind="qa",
            axis1=SweepAxis("q0", 0.5, 2.0, 2),
            axis2=SweepAxis("a2_over_a0", 0.5, 2.0, 2),
            curve_samples=3,
        )
        data = sidecar_dict(run_sweep(cfg))
        assert len(data["curve"]) == 3
        assert data["summary"]["curve"]["all_decentralized"] is True
