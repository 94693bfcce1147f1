"""The row formatter and the 17-digit rule it shares with format_float."""

import io
import json

import numpy as np
import pytest

from declqr import InputError
from declqr.cli import _print_matrix
from declqr.serialize import _format_rows, dumps_json, format_float
from declqr.sweep import SweepConfig, SweepResult, csv_text

EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e17, 0.1, -1.0 / 3.0,
    1.7976931348623157e308,
]


def random_finite_doubles(count, seed=12):
    """count finite doubles from random 64-bit patterns."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=2 * count, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:count].tolist()


@pytest.mark.parametrize(
    "values", [EDGE_VALUES, random_finite_doubles(1000)], ids=["edge", "random-bits"]
)
def test_row_helper_matches_format_float(values):
    expected = [format_float(x) for x in values]
    assert expected == [format(x, ".17g") for x in values]
    assert _format_rows([values], " ") == [" ".join(expected)]
    assert _format_rows(np.array(values)[:, None], ",") == expected


def test_non_finite_float_is_refused():
    with pytest.raises(InputError, match="^cannot serialize a non-finite float$"):
        format_float(float("nan"))


def test_integer_arrays_in_json_go_through_their_lists():
    assert dumps_json({"i": np.array([[1, -2], [3, 4]]), "b": np.array([True])}) == (
        '{"b": [true], "i": [[1, -2], [3, 4]]}'
    )


def test_unsupported_type_in_json_is_refused():
    with pytest.raises(InputError, match="^cannot serialize value of type set$"):
        dumps_json({"x": [{1, 2}]})


def test_float_arrays_in_json_keep_their_nesting():
    M = np.array([[0.1, -0.0], [1e17, 5e-324]])
    assert dumps_json({"M": M, "v": M[0], "e": np.zeros((0, 2))}) == (
        '{"M": [[0.10000000000000001, -0], [1e+17, 4.9406564584124654e-324]], '
        '"e": [], "v": [0.10000000000000001, -0]}'
    )
    assert dumps_json(M) == dumps_json(M.tolist())


def _print(M):
    _print_matrix("M", M, io.StringIO())


def _csv(bad):
    cfg = SweepConfig.from_dict({"kind": "qr"})
    row = [np.array([value]) for value in (1.0, 2.0, bad, True, 0.0)]
    csv_text(SweepResult(cfg, 1, *row, status=["ok"], curve_excluded=[]))


def _json(bad):
    dumps_json({"M": np.array([[1.0, bad]])})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "write",
    [lambda bad: _print([[1.0, bad]]), _csv, _json],
    ids=["print_matrix", "csv_text", "dumps_json"],
)
def test_non_finite_values_are_input_errors(write, bad):
    with pytest.raises(InputError, match="cannot serialize a non-finite float"):
        write(bad)


def test_keys_and_strings_are_quoted_as_json_dumps_quotes_them():
    texts = ["", "plain", 'quote " in', "back\\slash", "ctl \x00\x1f\t\n\r\x7f", "é ü ∑ 中 😀"]
    doc = {t: [t, {t: None, "n": 3, "b": True}] for t in texts}
    assert dumps_json(doc) == json.dumps(doc, sort_keys=True)
