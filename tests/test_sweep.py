import json

import numpy as np
import pytest

import declqr.decentral as decentral
import declqr.matcore as matcore
import declqr.sweep as sweep
from declqr import InputError, LqrProblem, SweepAxis, SweepConfig, run_sweep
from declqr.serialize import dumps_json
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
        cfg = SweepConfig.from_dict({"kind": "qr"})
        assert cfg.axis1.steps == cfg.axis2.steps == 21
        assert cfg.axis1.min == 0.2 and cfg.axis1.max == 5.0
        cfg = SweepConfig.from_dict({"kind": "qa"})
        assert cfg.axis1.min == 0.1 and cfg.axis1.max == 10.0

    @pytest.mark.parametrize("kind", sweep.DEFAULT_CONFIGS)
    def test_default_document_loads_and_round_trips(self, kind):
        doc = sweep.DEFAULT_CONFIGS[kind]
        assert doc["kind"] == kind
        assert SweepConfig.from_dict(doc).to_dict() == doc
        assert SweepConfig.from_dict(doc) == SweepConfig.from_dict({"kind": kind})
        assert getattr(SweepConfig, f"default_{kind}")() == SweepConfig.from_dict(doc)

    def test_log_grid_hits_unit_midpoint(self):
        grid = SweepConfig.from_dict({"kind": "qr"}).axis1.grid()
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

    def test_full_axes_build_no_default_config(self):
        want = SweepConfig("qa", SweepAxis("q0", 0.5, 4.0, 5), SweepAxis("a2", 0.25, 8.0, 3, "linear"),
                           curve_samples=20)
        assert SweepConfig.from_dict(want.to_dict()) == want

    def test_round_trip_dict(self):
        cfg = SweepConfig.from_dict({"kind": "qa"})
        again = SweepConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_bad_kind_rejected(self):
        with pytest.raises(InputError):
            SweepConfig.from_dict({"kind": "zz"})
        axis = SweepAxis("x", 1.0, 2.0, 3)
        with pytest.raises(InputError, match="^sweep kind must be 'qr' or 'qa'$"):
            SweepConfig(kind="zz", axis1=axis, axis2=axis)

    def test_bad_axis_rejected(self):
        with pytest.raises(InputError, match="^axis 'x' needs min < max$"):
            SweepAxis("x", 2.0, 1.0, 5)
        with pytest.raises(InputError):
            SweepAxis("x", 1.0, 2.0, 1)
        with pytest.raises(InputError, match="^axis 'x' log spacing needs min > 0$"):
            SweepAxis("x", -1.0, 2.0, 5, spacing="log")

    @pytest.mark.parametrize("kind, steps2, samples", [("qr", 1000, 2), ("qa", 999, 1000)])
    def test_point_limit_is_checked_before_any_grid_is_built(self, monkeypatch, kind, steps2, samples):
        # steps1 * steps2, plus curve_samples for qa, may reach 10**6 points.
        def refuse(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(sweep, "_spaced", refuse)
        data = {"kind": kind, "axis1": {"steps": 1000}, "curve_samples": samples}
        assert SweepConfig.from_dict({**data, "axis2": {"steps": steps2}}).axis2.steps == steps2
        message = "^sweep has 1001000 points, more than the 1000000 allowed$"
        with pytest.raises(InputError, match=message):
            SweepConfig.from_dict({**data, "axis2": {"steps": steps2 + 1}})


def test_run_sweep_validates_no_axis(monkeypatch):
    cfg = SweepConfig.from_dict({"kind": "qa"})
    want = run_sweep(cfg)

    def refuse(self):
        raise AssertionError("run_sweep validated an axis")

    monkeypatch.setattr(SweepAxis, "__post_init__", refuse)
    assert run_sweep(cfg) == want


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


def _alone(kind, a1, a2):
    """(status, h2) of the grid point (a1, a2) solved alone by solve_care_stack."""
    sol = matcore.solve_care_stack(*sweep.PROBLEM_BUILDERS[kind](np.array([a1]), np.array([a2])))
    exc = sol.errors[0]
    return ("ok", sol.h2[0]) if exc is None else (type(exc).__name__, None)


def _axes(spec1, spec2):
    return [SweepAxis(name, *spec) for name, spec in (("x1", spec1), ("x2", spec2))]


PARITY_CONFIGS = {
    "default-qr": SweepConfig.from_dict({"kind": "qr"}),
    "default-qa": SweepConfig.from_dict({"kind": "qa"}),
    "qr-linear-across-0": SweepConfig("qr", *_axes((-2.0, 3.0, 6, "linear"), (-1.0, 1.0, 5, "linear"))),
    "qa-linear-across-0": SweepConfig(
        "qa", *_axes((-1.0, 1.0, 5, "linear"), (-2.0, 2.0, 5, "linear")), curve_samples=6
    ),
    "qr-subnormal": SweepConfig("qr", *_axes((1e-320, 1e10, 9), (1e-320, 1e10, 9))),
    "qa-subnormal": SweepConfig("qa", *_axes((1e-320, 1e10, 9), (1e-320, 1e10, 9)), curve_samples=9),
    "qr-1e300": SweepConfig("qr", *_axes((1e-300, 1e300, 7), (1e-300, 1e300, 7))),
    "qa-1e300": SweepConfig("qa", *_axes((1e-300, 1e300, 7), (1e-300, 1e300, 7)), curve_samples=7),
}


@pytest.mark.parametrize("cfg", PARITY_CONFIGS.values(), ids=PARITY_CONFIGS.keys())
def test_status_of_each_point_is_its_own_solve(cfg):
    # Every grid point and locus sample of the one stacked solve ends as
    # solve_care_stack ends it alone, with the same error class or, solved,
    # the same h2 bit for bit.
    result = run_sweep(cfg)
    points = [(r.axis1, r.axis2, r.status, r.h2) for r in result.records + result.curve]
    with np.errstate(over="ignore"):  # q0 = 1/a2 = inf at a subnormal a2
        points += [(1.0 / a2, a2, status, None) for a2, status in result.curve_excluded if a2 > 0]
    for a1, a2, status, h2 in points:
        assert (status, h2) == _alone(cfg.kind, a1, a2)
    if cfg.kind == "qa":
        assert len(result.curve) + len(result.curve_excluded) == cfg.curve_samples


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

    def test_subnormal_a2_excludes_its_locus_sample_without_a_warning(self):
        # q0 = 1/a2 is inf at a2 = 1e-320: that weight is not SPD, so the
        # sample is excluded as bad data, and no overflow warning escapes.
        cfg = SweepConfig.from_dict({"kind": "qa", "axis2": {"min": 1e-320, "max": 1e10, "steps": 9}})
        assert run_sweep(cfg).curve_excluded[0] == (cfg.axis2.min, "InputError")

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

    @pytest.mark.parametrize("old_size", [1, 100_000])
    def test_rewrite_leaves_only_the_new_bytes(self, tmp_path, old_size):
        # The outputs are written over an existing file, which is then cut
        # to length: a shorter or longer old file leaves none of its bytes.
        result = run_sweep(small_qr_config(steps=3))
        paths = [tmp_path / "grid.csv", tmp_path / "grid.json"]
        for path in paths:
            path.write_text("x" * old_size)
        write_outputs(result, paths[0])
        assert paths[0].read_text() == csv_text(result)
        assert paths[1].read_text() == dumps_json(sidecar_dict(result)) + "\n"

    def test_unwritable_result_leaves_the_old_outputs(self, tmp_path):
        # The text is formed before its file is opened, so a non-finite value
        # neither empties an old CSV nor creates a sidecar.
        result = run_sweep(small_qr_config(steps=3))
        result.records[0].h2 = float("inf")
        path = tmp_path / "grid.csv"
        path.write_text("old")
        with pytest.raises(InputError, match="non-finite"):
            write_outputs(result, path)
        assert path.read_text() == "old" and not (tmp_path / "grid.json").exists()

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
