"""Parameter sweeps of the 2x2 cost-landscape system.

Each sweep kind is one builder in PROBLEM_BUILDERS, mapping the axis values of
the grid points to stacked (A, B, Q, R) by decentral.diagonal_cost_stack, and
one default config in DEFAULT_CONFIGS; run_sweep solves the whole stack at once:

* "qr":  vary the state-weight ratio q0/q2 (axis1) and the input-weight ratio
         gamma0/gamma2 (axis2) for the fixed plant [[1, 1], [-1, 1]];
* "qa":  vary q0 (axis1) and a2/a0 (axis2) for the plant [[1, 1], [-1, a2]],
         with gamma2 chosen as 1/q0 so the input-weight ratio condition holds
         at every point; the decentralization locus q0 = 1/a2 (gamma2 = a2) is
         sampled alongside the grid as the points (1/a2, a2).

The grid points (and the qa locus samples) go through one
matcore.solve_care_stack call and one decentral.pattern_decentralized call on
the stack of gains, whose arrays are the columns of a SweepResult table:
h2 = sqrt(trace P), the oracle decentralization verdict and off-pattern mass,
and a failed solve's status tag instead of a fabricated value. Output is a CSV
(fixed column order, floats with 17 significant digits, rows in grid order, so
identical configs give byte-identical files) plus a JSON sidecar with the
config, summary statistics and (qa) the locus samples.

Each default in DEFAULT_CONFIGS is the config document a user would write,
and SweepConfig.from_dict is the one way from a document to a config: it reads
each axis over its kind's default axis, so `{"kind": "qa"}` is the default qa
sweep. A config's keys are SweepConfig's fields and an axis's keys SweepAxis's,
which to_dict writes back; any other key is an InputError that names it. A
config of more than MAX_SWEEP_POINTS points (grid plus qa locus samples) is an
InputError too, raised before any grid is built.
"""

import math
import os
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .decentral import diagonal_cost_stack, pattern_decentralized, single_station_neighborhoods
from .errors import InputError
from .matcore import as_count, as_real, solve_care_stack
from .serialize import _format_rows, dumps_json

# SweepResult's columns, in the CSV's order.
CSV_COLUMNS = ("axis1", "axis2", "h2", "decentralized", "offdiag_mass", "status")


def _qr_problem(q_ratio, g_ratio):
    """Plant [[1, 1], [-1, 1]] with q2 = 1 and gamma0 = 1, so Q = diag(q0/q2, 1)
    and R = diag(1, gamma0/gamma2)."""
    return diagonal_cost_stack(1.0, 1.0, -1.0, 1.0, q_ratio, 1.0, 1.0, g_ratio)


def _qa_problem(q0, a2):
    """Plant [[1, 1], [-1, a2]] with gamma2 = 1/q0 (the input-weight ratio
    condition at gamma0 = 1, q2 = 1), so Q = diag(q0, 1) and R = diag(1, q0)."""
    return diagonal_cost_stack(1.0, 1.0, -1.0, a2, q0, 1.0, 1.0, q0)


# Sweep kind -> problem builder: axis1 and axis2 values of N points to
# stacked (A, B, Q, R) of N problems.
PROBLEM_BUILDERS = {"qr": _qr_problem, "qa": _qa_problem}


# Sweep kind -> its default config document.
DEFAULT_CONFIGS = {
    "qr": {
        "kind": "qr",
        "axis1": {"name": "q0_over_q2", "min": 0.2, "max": 5.0, "steps": 21, "spacing": "log"},
        "axis2": {"name": "gamma0_over_gamma2", "min": 0.2, "max": 5.0, "steps": 21, "spacing": "log"},
    },
    "qa": {
        "kind": "qa",
        "axis1": {"name": "q0", "min": 0.1, "max": 10.0, "steps": 21, "spacing": "log"},
        "axis2": {"name": "a2_over_a0", "min": 0.1, "max": 10.0, "steps": 21, "spacing": "log"},
        "curve_samples": 20,
    },
}

# Most grid points plus locus samples a config may ask for; run_sweep's peak
# memory grows by about 1.3 kB per point, the stacked solve's temporaries.
MAX_SWEEP_POINTS = 10**6


def _kinds(quote):
    """The sweep kinds of DEFAULT_CONFIGS, each in quote, joined by "or"."""
    return " or ".join(f"{quote}{kind}{quote}" for kind in DEFAULT_CONFIGS)


def _reject_unknown(keys, known, where):
    """InputError naming the first of keys that known lacks."""
    for key in keys:
        if key not in known:
            raise InputError(f"{where} has unknown key {key!r}")


def _text(value, what):
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
    return value


def _spaced(lo, hi, steps, spacing):
    """steps points from lo to hi, log- or linearly spaced."""
    if spacing == "log":
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


@dataclass
class SweepAxis:
    name: str
    min: float
    max: float
    steps: int
    spacing: str = "log"

    def __post_init__(self):
        self.name = _text(self.name, "axis name")
        self.min = as_real(self.min, f"axis '{self.name}' min")
        self.max = as_real(self.max, f"axis '{self.name}' max")
        self.steps = as_count(self.steps, f"axis '{self.name}' steps")
        if self.steps < 2:
            raise InputError(f"axis '{self.name}' needs at least 2 steps")
        if not self.min < self.max:
            raise InputError(f"axis '{self.name}' needs min < max")
        if self.spacing not in ("log", "linear"):
            raise InputError(f"axis '{self.name}' spacing must be 'log' or 'linear'")
        if self.spacing == "log" and self.min <= 0:
            raise InputError(f"axis '{self.name}' log spacing needs min > 0")
        # np.linspace steps by (max - min) / (steps - 1): the span must not overflow.
        if self.spacing == "linear" and not math.isfinite(self.max - self.min):
            raise InputError(f"axis '{self.name}' linear spacing needs a finite max - min")

    def grid(self):
        return _spaced(self.min, self.max, self.steps, self.spacing)


@dataclass
class SweepConfig:
    kind: str
    axis1: SweepAxis
    axis2: SweepAxis
    curve_samples: int = 20
    output: Optional[str] = None

    def __post_init__(self):
        if _text(self.kind, "sweep kind") not in DEFAULT_CONFIGS:
            raise InputError("sweep kind must be " + _kinds("'"))
        self.curve_samples = as_count(self.curve_samples, "curve_samples")
        if self.curve_samples < 2:
            raise InputError("curve_samples must be at least 2")
        if self.output is not None:
            _text(self.output, "output")
        points = self.axis1.steps * self.axis2.steps
        if self.kind == "qa":
            points += self.curve_samples
        if points > MAX_SWEEP_POINTS:
            raise InputError(f"sweep has {points} points, more than the {MAX_SWEEP_POINTS} allowed")

    @classmethod
    def from_dict(cls, data):
        """The config of document data, each axis read over its kind's default."""
        if not isinstance(data, dict):
            raise InputError("sweep config must be a JSON object")
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in DEFAULT_CONFIGS:
            raise InputError('sweep config needs "kind": ' + _kinds('"'))
        _reject_unknown(data, {f.name for f in fields(cls)}, "sweep config")
        axes = []
        for key in ("axis1", "axis2"):
            spec, default = data.get(key), DEFAULT_CONFIGS[kind][key]
            if spec is None:
                spec = {}
            elif not isinstance(spec, dict):
                raise InputError(f"{key} must be an object")
            _reject_unknown(spec, default, key)
            axes.append(SweepAxis(**{**default, **spec}))
        return cls(kind, *axes, data.get("curve_samples", cls.curve_samples), data.get("output"))

    # bench/reference.py calls these two; a default is from_dict({"kind": kind}).
    @classmethod
    def default_qr(cls):
        return cls.from_dict({"kind": "qr"})

    @classmethod
    def default_qa(cls):
        return cls.from_dict({"kind": "qa"})

    def to_dict(self):
        # An axis's instance dict is its fields in order; asdict builds the
        # same dict at about ten times the cost (7 us against 0.6 us).
        out = {"kind": self.kind, "axis1": dict(vars(self.axis1)), "axis2": dict(vars(self.axis2))}
        if self.kind == "qa":
            out["curve_samples"] = self.curve_samples
        if self.output is not None:
            out["output"] = self.output
        return out


@dataclass(eq=False)
class SweepResult:
    """A sweep as one table: row i holds entry i of the arrays axis1, axis2,
    h2, decentralized and offdiag_mass and of the list status ("ok", or the
    failed solve's error class and a NaN h2). The first `points` rows are the
    grid, axis1 major, so h2[:points] reshapes to (axis1.steps, axis2.steps);
    a "qa" sweep adds a row per locus sample (1/a2, a2) with a2 > 0.
    curve_excluded lists each other a2 and each failed one, with its reason.
    """

    config: SweepConfig
    points: int
    axis1: np.ndarray
    axis2: np.ndarray
    h2: np.ndarray
    decentralized: np.ndarray
    offdiag_mass: np.ndarray
    status: list
    curve_excluded: list

    def _solved(self, start, stop=None):
        """Indices of the solved rows from start to stop."""
        return start + np.flatnonzero([s == "ok" for s in self.status[start:stop]])

    def summary(self):
        grid = self._solved(0, self.points)
        out = {
            "points": self.points,
            "solved": len(grid),
            "failed": self.points - len(grid),
            "decentralized_count": int(np.count_nonzero(self.decentralized[grid])),
        }
        if len(grid):
            h2 = self.h2[grid]
            lo, hi = grid[h2.argmin()], grid[h2.argmax()]
            out.update(
                h2_min=float(self.h2[lo]),
                h2_max=float(self.h2[hi]),
                argmin=[float(self.axis1[lo]), float(self.axis2[lo])],
                argmax=[float(self.axis1[hi]), float(self.axis2[hi])],
            )
        curve = self._solved(self.points)
        if len(curve):
            h2 = self.h2[curve]
            out["curve"] = {
                "samples": len(curve),
                "excluded": len(self.curve_excluded),
                "h2_min": float(h2.min()),
                "h2_max": float(h2.max()),
                "all_decentralized": bool(self.decentralized[curve].all()),
            }
        return out


def run_sweep(cfg):
    """Evaluate every grid point of cfg with its kind's problem builder.

    A "qa" sweep also samples the locus q0 = 1/a2 (so gamma2 = a2) at
    curve_samples values of a2 spaced like axis2, as the rows of the points
    (1/a2, a2). Samples with a2 <= 0 break the same-sign condition on the
    self terms and are excluded with a reason, as are samples whose solve
    fails, with its status (a subnormal a2 gives q0 = inf, bad data). Grid
    and locus are solved as one stack.
    """
    x1, x2 = (g.ravel() for g in np.meshgrid(cfg.axis1.grid(), cfg.axis2.grid(), indexing="ij"))
    points = len(x1)
    samples = cfg.curve_samples if cfg.kind == "qa" else 0
    curve_a2 = _spaced(cfg.axis2.min, cfg.axis2.max, samples, cfg.axis2.spacing)
    locus = curve_a2[curve_a2 > 0]
    with np.errstate(over="ignore"):  # q0 = inf at a subnormal a2 fails as bad data
        x1 = np.concatenate([x1, 1.0 / locus])
    x2 = np.concatenate([x2, locus])
    sol = solve_care_stack(*PROBLEM_BUILDERS[cfg.kind](x1, x2))
    solved = np.array([exc is None for exc in sol.errors], dtype=bool)
    decentralized, mass = np.zeros(len(x1), dtype=bool), np.zeros(len(x1))
    if solved.any():
        decentralized[solved], mass[solved] = pattern_decentralized(
            sol.K[solved], single_station_neighborhoods(2)
        )
    status = ["ok" if exc is None else type(exc).__name__ for exc in sol.errors]
    # curve_a2 ascends, so its a2 <= 0 come first.
    excluded = [(a2, "a2 <= 0 breaks the same-sign condition")
                for a2 in curve_a2[curve_a2 <= 0].tolist()]
    excluded += [(a2, s) for a2, s in zip(locus.tolist(), status[points:]) if s != "ok"]
    return SweepResult(cfg, points, x1, x2, sol.h2, decentralized, mass, status, excluded)


def csv_text(result):
    """Deterministic CSV body: header then one row per grid point. The 0/1
    decentralized cell is formatted with its row's floats, where 1.0 and 0.0
    print as 1 and 0."""
    n = result.points
    status = result.status[:n]
    ok = result._solved(0, n)
    table = np.column_stack([getattr(result, name)[:n] for name in CSV_COLUMNS[:-1]])
    solved = iter(_format_rows(table[ok], ","))
    failed = iter(_format_rows(np.delete(table[:, :2], ok, axis=0), ","))
    lines = [",".join(CSV_COLUMNS)]
    lines += [f"{next(solved)},ok" if s == "ok" else f"{next(failed)},,,,{s}" for s in status]
    return "\n".join(lines) + "\n"


def sidecar_dict(result, summary=None):
    """The JSON sidecar's data; summary is result.summary(), taken here unless
    the caller has it already."""
    data = {"config": result.config.to_dict(), "summary": summary or result.summary()}
    if result.config.kind == "qa":
        curve = result._solved(result.points)
        rows = zip(*(getattr(result, name)[curve].tolist() for name in CSV_COLUMNS[:-1]))
        data["curve"] = [
            {"a2": a2, "q0": q0, "gamma2": a2, "h2": h2, "decentralized": dec, "offdiag_mass": mass}
            for q0, a2, h2, dec, mass in rows
        ]
        data["curve_excluded"] = [
            {"a2": a2, "reason": reason} for (a2, reason) in result.curve_excluded
        ]
    return data


def _overwrite(path, text):
    """Leave path holding text, as open(path, "w") does, but write over the
    old bytes and then cut a longer old file to length. Emptying the file
    first costs more than the write itself on ext4, which writes out a file
    truncated to zero when it is closed, so that a power loss leaves the old
    file or the new one; here an interrupted write can leave new bytes
    followed by old ones. A sweep's outputs are remade by running it again."""
    data = text.encode()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if os.fstat(fh.fileno()).st_size > len(data):
            fh.truncate()


def write_outputs(result, csv_path, summary=None):
    """Write the CSV and its JSON sidecar, whose summary is passed on to
    sidecar_dict; returns (csv_path, json_path)."""
    csv_path = str(csv_path)
    json_path = (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"
    try:
        _overwrite(csv_path, csv_text(result))
        _overwrite(json_path, dumps_json(sidecar_dict(result, summary)) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write sweep output: {exc}") from exc
    return csv_path, json_path
