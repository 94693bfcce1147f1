"""JSON system files.

A system file is a JSON object with a "kind" tag:

* "dense":        keys "A", "B", "Q", "R" hold row-major nested arrays;
* "circulant":    keys "A_first_row", "B_first_row", "Q_first_row",
                  "R_first_row" hold the first rows, optionally plus a
                  "model" object carrying constructor metadata (for example
                  the chamber coefficients);
* "second_order": keys "A1", "A2", "B0", "Q0", "Q2", "R0" hold the blocks.

All floats are written with 17 significant digits.
"""

import json

from .decentral import circulant_lqr_problem
from .errors import InputError
from .lqr import LqrProblem
from .matcore import as_real_array
from .secondorder import SecondOrderSystem
from .serialize import dumps_json
from .spectral import CirculantSpec


def dense_document(A, B, Q, R, model=None):
    doc = {
        "kind": "dense",
        "A": as_real_array(A, "A"),
        "B": as_real_array(B, "B"),
        "Q": as_real_array(Q, "Q"),
        "R": as_real_array(R, "R"),
    }
    if model is not None:
        doc["model"] = model
    return doc


def circulant_document(a, b, q, r, model=None):
    doc = {
        "kind": "circulant",
        "A_first_row": a.first_row,
        "B_first_row": b.first_row,
        "Q_first_row": q.first_row,
        "R_first_row": r.first_row,
    }
    if model is not None:
        doc["model"] = model
    return doc


def second_order_document(sys, model=None):
    doc = {
        "kind": "second_order",
        "A1": sys.A1,
        "A2": sys.A2,
        "B0": sys.B0,
        "Q0": sys.Q0,
        "Q2": sys.Q2,
        "R0": sys.R0,
    }
    if model is not None:
        doc["model"] = model
    return doc


def save_system(doc, path):
    try:
        with open(path, "w") as fh:
            fh.write(dumps_json(doc))
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write system file: {exc}") from exc


def _array(data, key):
    if key not in data:
        raise InputError(f"system file is missing key '{key}'")
    return as_real_array(data[key], f"key '{key}'")


class SystemFile:
    """Parsed system file: kind, payload, optional model metadata."""

    def __init__(self, kind, payload, model=None):
        self.kind = kind
        self.payload = payload
        self.model = model

    def circulant_specs(self):
        if self.kind != "circulant":
            raise InputError(f"expected a circulant system file, got kind '{self.kind}'")
        return self.payload

    def lqr_problem(self):
        """Materialize to a dense LqrProblem (dense and circulant kinds)."""
        if self.kind == "dense":
            A, B, Q, R = self.payload
            return LqrProblem(A=A, B=B, Q=Q, R=R)
        if self.kind == "circulant":
            return circulant_lqr_problem(*self.payload)
        raise InputError("second-order system files solve through 'reduce', not 'solve'")

    def second_order_system(self):
        if self.kind != "second_order":
            raise InputError(f"expected a second-order system file, got kind '{self.kind}'")
        return self.payload


def load_system(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read system file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"system file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("system file must be a JSON object")
    kind = data.get("kind")
    model = data.get("model")
    if model is not None and not isinstance(model, dict):
        raise InputError("'model' must be an object when present")

    if kind == "dense":
        payload = tuple(_array(data, key) for key in ("A", "B", "Q", "R"))
    elif kind == "circulant":
        payload = tuple(
            CirculantSpec(_array(data, f"{key}_first_row")) for key in ("A", "B", "Q", "R")
        )
    elif kind == "second_order":
        blocks = {key: _array(data, key) for key in ("A1", "A2", "B0", "Q0", "Q2", "R0")}
        payload = SecondOrderSystem(**blocks)
    else:
        raise InputError(
            "system file 'kind' must be one of: dense, circulant, second_order"
        )
    return SystemFile(kind=kind, payload=payload, model=model)
