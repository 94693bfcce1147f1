"""Parameter sweeps of the 2x2 cost-landscape system.

Two sweep kinds:

* "qr":  vary the state-weight ratio q0/q2 (axis1) and the input-weight ratio
         gamma0/gamma2 (axis2) for the fixed plant [[1, 1], [-1, 1]];
* "qa":  vary q0 (axis1) and a2/a0 (axis2) for the plant [[1, 1], [-1, a2]],
         with gamma2 chosen as 1/q0 so the input-weight ratio condition holds
         at every point; the decentralization locus q0 = 1/a2 is sampled as a
         parametric curve alongside the grid.

Every grid point records h2 = sqrt(trace P), the oracle decentralization
verdict and off-pattern mass; failed solves carry a status tag instead of a
fabricated value. Output is a CSV (fixed column order, floats with 17
significant digits, records sorted by grid indices, so identical configs give
byte-identical files) plus a JSON sidecar with the config and summary
statistics.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .decentral import ORACLE_TOL, pattern_decentralized, single_station_neighborhoods
from .errors import InputError, SolverError
from .lqr import LqrProblem, solve_lqr
from .serialize import dumps_json, format_float

CSV_COLUMNS = ("axis1", "axis2", "h2", "decentralized", "offdiag_mass", "status")


def _number(value, what):
    # Config values arrive from JSON: reject strings, null and booleans.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(value)


def _count(value, what):
    x = _number(value, what)
    if not x.is_integer():
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(x)


@dataclass
class SweepAxis:
    name: str
    lo: float
    hi: float
    steps: int
    spacing: str = "log"

    def __post_init__(self):
        self.lo = _number(self.lo, f"axis '{self.name}' min")
        self.hi = _number(self.hi, f"axis '{self.name}' max")
        self.steps = _count(self.steps, f"axis '{self.name}' steps")
        if self.steps < 2:
            raise InputError(f"axis '{self.name}' needs at least 2 steps")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise InputError(f"axis '{self.name}' needs finite lo < hi")
        if self.spacing not in ("log", "linear"):
            raise InputError(f"axis '{self.name}' spacing must be 'log' or 'linear'")
        if self.spacing == "log" and self.lo <= 0:
            raise InputError(f"axis '{self.name}' log spacing needs lo > 0")

    def grid(self):
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.steps)
        return np.linspace(self.lo, self.hi, self.steps)

    def to_dict(self):
        return {
            "name": self.name,
            "min": self.lo,
            "max": self.hi,
            "steps": self.steps,
            "spacing": self.spacing,
        }


@dataclass
class SweepConfig:
    kind: str
    axis1: SweepAxis
    axis2: SweepAxis
    curve_samples: int = 20
    output: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("qr", "qa"):
            raise InputError("sweep kind must be 'qr' or 'qa'")
        self.curve_samples = _count(self.curve_samples, "curve_samples")
        if self.curve_samples < 2:
            raise InputError("curve_samples must be at least 2")

    @classmethod
    def default_qr(cls):
        return cls(
            kind="qr",
            axis1=SweepAxis("q0_over_q2", 0.2, 5.0, 21),
            axis2=SweepAxis("gamma0_over_gamma2", 0.2, 5.0, 21),
        )

    @classmethod
    def default_qa(cls):
        return cls(
            kind="qa",
            axis1=SweepAxis("q0", 0.1, 10.0, 21),
            axis2=SweepAxis("a2_over_a0", 0.1, 10.0, 21),
        )

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise InputError("sweep config must be a JSON object")
        kind = data.get("kind")
        if kind not in ("qr", "qa"):
            raise InputError("sweep config needs \"kind\": \"qr\" or \"qa\"")
        base = cls.default_qr() if kind == "qr" else cls.default_qa()

        def axis(key, default):
            spec = data.get(key)
            if spec is None:
                return default
            if not isinstance(spec, dict):
                raise InputError(f"{key} must be an object")
            return SweepAxis(
                name=spec.get("name", default.name),
                lo=spec.get("min", default.lo),
                hi=spec.get("max", default.hi),
                steps=spec.get("steps", default.steps),
                spacing=spec.get("spacing", default.spacing),
            )

        return cls(
            kind=kind,
            axis1=axis("axis1", base.axis1),
            axis2=axis("axis2", base.axis2),
            curve_samples=data.get("curve_samples", base.curve_samples),
            output=data.get("output"),
        )

    def to_dict(self):
        out = {
            "kind": self.kind,
            "axis1": self.axis1.to_dict(),
            "axis2": self.axis2.to_dict(),
        }
        if self.kind == "qa":
            out["curve_samples"] = self.curve_samples
        if self.output is not None:
            out["output"] = self.output
        return out


@dataclass
class GridRecord:
    axis1: float
    axis2: float
    h2: Optional[float]
    decentralized: Optional[bool]
    offdiag_mass: Optional[float]
    status: str


@dataclass
class CurveSample:
    a2: float
    q0: float
    gamma2: float
    h2: float
    decentralized: bool
    offdiag_mass: float


@dataclass
class SweepResult:
    config: SweepConfig
    records: list
    curve: list = field(default_factory=list)
    curve_excluded: list = field(default_factory=list)

    def summary(self):
        solved = [r for r in self.records if r.status == "ok"]
        out = {
            "points": len(self.records),
            "solved": len(solved),
            "failed": len(self.records) - len(solved),
            "decentralized_count": sum(1 for r in solved if r.decentralized),
        }
        if solved:
            lo = min(solved, key=lambda r: r.h2)
            hi = max(solved, key=lambda r: r.h2)
            out.update(
                h2_min=lo.h2,
                h2_max=hi.h2,
                argmin=[lo.axis1, lo.axis2],
                argmax=[hi.axis1, hi.axis2],
            )
        if self.curve:
            h2s = [s.h2 for s in self.curve]
            out["curve"] = {
                "samples": len(self.curve),
                "excluded": len(self.curve_excluded),
                "h2_min": min(h2s),
                "h2_max": max(h2s),
                "all_decentralized": all(s.decentralized for s in self.curve),
            }
        return out


def _evaluate_point(prob_builder, x1, x2):
    try:
        prob = prob_builder(x1, x2)
        sol = solve_lqr(prob)
        decentralized, mass = pattern_decentralized(
            sol.K, single_station_neighborhoods(prob.n), ORACLE_TOL
        )
        return GridRecord(
            axis1=float(x1),
            axis2=float(x2),
            h2=float(sol.h2),
            decentralized=decentralized,
            offdiag_mass=mass,
            status="ok",
        )
    except (InputError, SolverError) as exc:
        return GridRecord(
            axis1=float(x1),
            axis2=float(x2),
            h2=None,
            decentralized=None,
            offdiag_mass=None,
            status=type(exc).__name__,
        )


def _run_grid(cfg, prob_builder):
    records = []
    for x1 in cfg.axis1.grid():
        for x2 in cfg.axis2.grid():
            records.append(_evaluate_point(prob_builder, x1, x2))
    return records


def sweep_qr(cfg):
    """Cost-ratio sweep of the fixed plant [[1, 1], [-1, 1]].

    axis1 = q0/q2 (with q2 = 1) and axis2 = gamma0/gamma2 (with gamma0 = 1),
    so Q = diag(axis1, 1) and R = diag(1, axis2).
    """
    if cfg.kind != "qr":
        raise InputError("sweep_qr needs a 'qr' config")
    A = np.array([[1.0, 1.0], [-1.0, 1.0]])

    def build(q_ratio, g_ratio):
        return LqrProblem(
            A=A, B=np.eye(2), Q=np.diag([q_ratio, 1.0]), R=np.diag([1.0, g_ratio])
        )

    return SweepResult(config=cfg, records=_run_grid(cfg, build))


def sweep_qa_with_curve(cfg):
    """Weight-vs-dynamics sweep of [[1, 1], [-1, a2]] plus the locus q0 = 1/a2.

    At every grid point gamma2 = 1/q0 (input-weight ratio condition with
    gamma0 = 1, q2 = 1), so R = diag(1, q0). Curve samples with a2 <= 0 break
    the same-sign condition on the self terms and are excluded with a reason.
    """
    if cfg.kind != "qa":
        raise InputError("sweep_qa_with_curve needs a 'qa' config")

    def build(q0, a2):
        return LqrProblem(
            A=np.array([[1.0, 1.0], [-1.0, a2]]),
            B=np.eye(2),
            Q=np.diag([q0, 1.0]),
            R=np.diag([1.0, q0]),
        )

    records = _run_grid(cfg, build)

    curve = []
    excluded = []
    for a2 in _curve_parameters(cfg):
        if a2 <= 0:
            excluded.append((float(a2), "a2 <= 0 breaks the same-sign condition"))
            continue
        q0 = 1.0 / a2
        rec = _evaluate_point(build, q0, a2)
        if rec.status != "ok":
            excluded.append((float(a2), rec.status))
            continue
        curve.append(
            CurveSample(
                a2=float(a2),
                q0=float(q0),
                gamma2=float(a2),
                h2=rec.h2,
                decentralized=rec.decentralized,
                offdiag_mass=rec.offdiag_mass,
            )
        )
    return SweepResult(config=cfg, records=records, curve=curve, curve_excluded=excluded)


def _curve_parameters(cfg):
    ax = cfg.axis2
    if ax.spacing == "log":
        return np.geomspace(ax.lo, ax.hi, cfg.curve_samples)
    return np.linspace(ax.lo, ax.hi, cfg.curve_samples)


def run_sweep(cfg):
    if cfg.kind == "qr":
        return sweep_qr(cfg)
    return sweep_qa_with_curve(cfg)


def csv_text(result):
    """Deterministic CSV body: header then one row per grid point."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in result.records:
        if rec.status == "ok":
            cells = (
                format_float(rec.axis1),
                format_float(rec.axis2),
                format_float(rec.h2),
                "1" if rec.decentralized else "0",
                format_float(rec.offdiag_mass),
                "ok",
            )
        else:
            cells = (format_float(rec.axis1), format_float(rec.axis2), "", "", "", rec.status)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def sidecar_dict(result):
    data = {"config": result.config.to_dict(), "summary": result.summary()}
    if result.config.kind == "qa":
        data["curve"] = [
            {
                "a2": s.a2,
                "q0": s.q0,
                "gamma2": s.gamma2,
                "h2": s.h2,
                "decentralized": s.decentralized,
                "offdiag_mass": s.offdiag_mass,
            }
            for s in result.curve
        ]
        data["curve_excluded"] = [
            {"a2": a2, "reason": reason} for (a2, reason) in result.curve_excluded
        ]
    return data


def write_outputs(result, csv_path):
    """Write the CSV and its JSON sidecar; returns (csv_path, json_path)."""
    csv_path = str(csv_path)
    json_path = (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"
    try:
        with open(csv_path, "w") as fh:
            fh.write(csv_text(result))
        with open(json_path, "w") as fh:
            fh.write(dumps_json(sidecar_dict(result)))
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write sweep output: {exc}") from exc
    return csv_path, json_path
