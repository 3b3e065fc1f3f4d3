"""Tests for validation helpers."""

import pytest

from repro.utils.validation import require_one_of, require_positive


def test_require_positive_accepts_positive():
    assert require_positive(0.5, "x") == 0.5


@pytest.mark.parametrize("value", [0, -1, -0.001])
def test_require_positive_rejects_non_positive(value):
    with pytest.raises(ValueError, match="x"):
        require_positive(value, "x")


def test_require_one_of_accepts_member():
    assert require_one_of("a", ("a", "b"), "opt") == "a"


def test_require_one_of_rejects_non_member():
    with pytest.raises(ValueError):
        require_one_of("c", ("a", "b"), "opt")
