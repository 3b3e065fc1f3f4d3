"""Tests for the NaN <-> ``null`` JSON convention."""

import json
import math

from repro.utils.jsonsafe import nan_to_none, none_to_nan


def test_nan_to_none_converts_nested_payloads():
    nan = float("nan")
    payload = {"a": nan, "b": [1.0, nan], "c": {"d": (nan, 2)}, "e": "x"}
    converted = nan_to_none(payload)
    assert converted == {"a": None, "b": [1.0, None], "c": {"d": [None, 2]}, "e": "x"}
    json.dumps(converted, allow_nan=False)  # strict JSON: raises on NaN
    assert nan_to_none(nan) is None
    assert nan_to_none(1.5) == 1.5
    assert math.isnan(none_to_nan(None))
    assert none_to_nan(2) == 2.0
