"""Tests for unit conversion helpers."""

import numpy as np
import pytest

from repro import units


def test_ms_to_seconds():
    assert units.ms(250.0) == pytest.approx(0.25)


def test_gb_to_mb():
    assert units.gb(3.5) == pytest.approx(3584.0)


def test_mb_identity():
    assert units.mb(500) == 500.0


def test_vectorised_over_arrays():
    xs = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(units.ms(xs), xs / 1000.0)
    np.testing.assert_allclose(units.gb(xs), xs * 1024.0)


def test_mb_keeps_the_input_shape():
    assert type(units.mb(500)) is float
    grid = np.array([[1, 2], [3, 4]])
    out = units.mb(grid)
    assert out.shape == (2, 2) and out.dtype == np.float64
    assert out.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_ms_of_5_is_paper_threshold():
    # The paper's migration threshold: eps = 5 ms.
    assert units.ms(5) == pytest.approx(0.005)
