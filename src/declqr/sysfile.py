"""JSON system files.

A system file is a JSON object with a "kind" tag:

* "dense":        keys "A", "B", "Q", "R" hold row-major nested arrays;
* "circulant":    keys "A_first_row", "B_first_row", "Q_first_row",
                  "R_first_row" hold the first rows;
* "second_order": keys "A1", "A2", "B0", "Q0", "Q2", "R0" hold the blocks.

Any kind may also carry a "model" object with the constructor metadata of
the file: the model's "name" plus its parameters (for example the chamber
coefficients, which `check` reads back to adjudicate). The three document
builders share one constructor, which writes "model" only when given.

All floats are written with 17 significant digits.
"""

import json
from dataclasses import asdict, fields

from .decentral import circulant_lqr_problem
from .errors import InputError
from .lqr import LqrProblem
from .matcore import as_real_array
from .secondorder import SecondOrderSystem
from .serialize import dumps_json
from .spectral import CirculantSpec

_LQR_KEYS = ("A", "B", "Q", "R")


def _document(kind, model, **arrays):
    """A system document: the kind tag, the arrays, and "model" when given."""
    doc = {"kind": kind, **arrays}
    if model is not None:
        doc["model"] = model
    return doc


def dense_document(A, B, Q, R, model=None):
    arrays = {key: as_real_array(M, key) for key, M in zip(_LQR_KEYS, (A, B, Q, R))}
    return _document("dense", model, **arrays)


def circulant_document(a, b, q, r, model=None):
    rows = {f"{key}_first_row": spec.first_row for key, spec in zip(_LQR_KEYS, (a, b, q, r))}
    return _document("circulant", model, **rows)


def second_order_document(sys, model=None):
    return _document("second_order", model, **asdict(sys))


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
            return LqrProblem(*self.payload)
        if self.kind == "circulant":
            return circulant_lqr_problem(*self.payload)
        raise InputError("second-order system files solve only through 'reduce'")

    def second_order_system(self):
        if self.kind != "second_order":
            raise InputError(f"expected a second-order system file, got kind '{self.kind}'")
        return self.payload


def read_json(path, what):
    """Parse the JSON file at path; InputError, naming the file as what, when
    it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from exc


def load_system(path):
    data = read_json(path, "system file")
    if not isinstance(data, dict):
        raise InputError("system file must be a JSON object")
    kind = data.get("kind")
    model = data.get("model")
    if model is not None and not isinstance(model, dict):
        raise InputError("'model' must be an object when present")

    if kind == "dense":
        payload = tuple(_array(data, key) for key in _LQR_KEYS)
    elif kind == "circulant":
        payload = tuple(CirculantSpec(_array(data, f"{key}_first_row")) for key in _LQR_KEYS)
    elif kind == "second_order":
        payload = SecondOrderSystem(
            **{f.name: _array(data, f.name) for f in fields(SecondOrderSystem)}
        )
    else:
        raise InputError(
            "system file 'kind' must be one of: dense, circulant, second_order"
        )
    return SystemFile(kind=kind, payload=payload, model=model)
