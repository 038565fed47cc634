"""Result-file serialization: JSON nulls, exact floats, order and text."""

import json
import math

import numpy as np
import pytest

from synthctl.serialize import write_json


def _round_trip(tmp_path, obj):
    path = tmp_path / "out.json"
    write_json(str(path), obj)
    text = path.read_text(encoding="utf-8")
    return text, json.loads(text)


def test_non_finite_floats_become_null_at_any_depth(tmp_path):
    obj = {"a": math.nan, "b": [1.0, math.inf, {"c": -math.inf, "d": (np.float64("nan"),)}]}
    text, back = _round_trip(tmp_path, obj)
    assert back == {"a": None, "b": [1.0, None, {"c": None, "d": [None]}]}
    assert "NaN" not in text and "Infinity" not in text


@pytest.mark.parametrize("x", [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, -0.0])
def test_floats_read_back_exactly(tmp_path, x):
    text, back = _round_trip(tmp_path, {"x": x})
    written = text.split(": ", 1)[1].split("\n", 1)[0]
    assert float(written) == x
    assert math.copysign(1.0, float(written)) == math.copysign(1.0, x)
    assert back["x"] == x


def test_dict_insertion_order_is_kept(tmp_path):
    keys = ["zeta", "alpha", "mid", "10001", "01001"]
    _, back = _round_trip(tmp_path, {k: i for i, k in enumerate(keys)})
    assert list(back) == keys


def test_non_ascii_and_control_characters_round_trip(tmp_path):
    text_value = "Doña Ana, Cataño é中 \t\n\r\x00\x1f \"quoted\" back\\slash"
    text, back = _round_trip(tmp_path, {"név": text_value})
    assert back == {"név": text_value}
    assert "Doña Ana" in text  # written as UTF-8, not \\u escapes
    assert "\x00" not in text and "\x1f" not in text


def test_layout_is_two_space_indented_with_a_final_newline(tmp_path):
    text, _ = _round_trip(tmp_path, {"a": [1, True, None], "b": {}, "c": []})
    assert text == '{\n  "a": [\n    1,\n    true,\n    null\n  ],\n  "b": {},\n  "c": []\n}\n'
