"""Tests for the self-contained standard-normal helpers."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.stats import norm_cdf, norm_ppf


def test_ppf_inverts_cdf():
    assert norm_cdf(norm_ppf(0.94)) == pytest.approx(0.94, abs=1e-9)


def test_ppf_pinned_to_six_decimals():
    # Regression pin: the bisection quantile must keep reproducing the
    # SciPy-era constant ln(18) / z_{0.94} = 1.859031.
    assert round(math.log(18.0) / norm_ppf(0.94), 6) == 1.859031


def test_cdf_at_zero_is_half():
    assert norm_cdf(0.0) == 0.5


@pytest.mark.parametrize(
    "x, phi",
    [(1.0, 0.8413447460685429), (-1.0, 0.15865525393145707),
     (1.959963984540054, 0.975)],
)
def test_cdf_known_values(x, phi):
    assert norm_cdf(x) == pytest.approx(phi, abs=1e-12)


@pytest.mark.parametrize(
    "p, z",
    [(0.9, 1.2815515655446004), (0.95, 1.6448536269514722),
     (0.975, 1.959963984540054), (0.99, 2.3263478740408408),
     (0.999, 3.090232306167813)],
)
def test_ppf_known_quantiles(p, z):
    assert norm_ppf(p) == pytest.approx(z, abs=1e-9)


def test_ppf_of_half_is_zero():
    assert norm_ppf(0.5) == 0.0


@pytest.mark.parametrize("p", [0.001, 0.2, 0.4999])
def test_ppf_is_antisymmetric(p):
    assert norm_ppf(p) == pytest.approx(-norm_ppf(1.0 - p), abs=1e-12)


def test_ppf_is_increasing():
    ps = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    zs = [norm_ppf(p) for p in ps]
    assert zs == sorted(zs) and len(set(zs)) == len(zs)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
def test_ppf_outside_open_unit_interval_rejected(p):
    with pytest.raises(ConfigurationError, match="p in"):
        norm_ppf(p)
