"""Oscillator eigenfunctions: normalization, tails, high-level stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegap.oscillator import log_p_coeff, phi, psi_inf
from tests.model_oracles import (
    gauss_hermite_gram,
    gauss_hermite_norm,
    p_coeff,
    psi_inf_asymptotic,
)


def test_ground_state_is_gaussian():
    x = np.linspace(-3, 3, 31)
    expected = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    np.testing.assert_allclose(phi(1, x), expected, rtol=1e-14)


def test_phi_rejects_level_zero():
    with pytest.raises(ValueError):
        phi(0, 0.0)


@pytest.mark.parametrize("j", [1, 2, 5, 20, 80, 200])
def test_quadrature_normalization(j):
    # degree-2(j-1) polynomial integrand: exact once nodes exceed j
    assert gauss_hermite_norm(j, nodes=260) == pytest.approx(1.0, abs=5e-11)


def test_gram_orthonormal():
    g = gauss_hermite_gram(12)
    np.testing.assert_allclose(g, np.eye(12), atol=1e-12)


def test_parity_alternates():
    x = np.linspace(0.1, 2.5, 7)
    for j in (1, 2, 3, 4):
        sign = (-1.0) ** (j - 1)
        np.testing.assert_allclose(phi(j, -x), sign * phi(j, x), rtol=1e-13)


def test_high_level_no_overflow():
    vals = phi(300, np.linspace(-30, 30, 101))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0


def test_p_coeff_values():
    assert p_coeff(1, 1.0) == pytest.approx(math.pi ** -0.5, rel=1e-15)
    assert p_coeff(2, 1.0) == pytest.approx(1.0 / (2 * math.sqrt(math.pi)), rel=1e-15)
    # b^{-j+3/2} scaling
    assert p_coeff(3, 4.0) == pytest.approx(4.0 ** -1.5 * p_coeff(3, 1.0), rel=1e-14)


@pytest.mark.parametrize("b", [0.3, 1.0, 4.0])
def test_log_p_coeff_matches_product_form(b):
    # the product form is an oracle while it stays a normal double
    for j in range(1, 101):
        assert log_p_coeff(j, b) == pytest.approx(math.log(p_coeff(j, b)),
                                                  rel=1e-13, abs=1e-13)
    # beyond (j = 169 at b = 1) it underflows; the log form stays finite
    # and keeps the level-to-level ratio p_{j+1}/p_j = 1/(2 j b)
    for j in (169, 170, 172, 200, 300):
        step = log_p_coeff(j + 1, b) - log_p_coeff(j, b)
        assert step == pytest.approx(-math.log(2.0 * j * b), rel=1e-12)
    with pytest.raises(ValueError):
        log_p_coeff(0, 1.0)
    with pytest.raises(ValueError):
        log_p_coeff(1, 0.0)


@given(k=st.floats(0.1, 6.0), b=st.floats(0.3, 4.0))
@settings(max_examples=40, deadline=None)
def test_psi_inf_normalized_any_momentum(k, b):
    x = np.linspace(k / b - 12 / math.sqrt(b), k / b + 12 / math.sqrt(b), 4001)
    val = psi_inf(2, k, x, b)
    assert np.trapezoid(val * val, x) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("j", [2, 3])
def test_asymptotic_tail_ratio(j):
    # on a fixed x-window the ratio tends to 1 as k grows
    b = 1.0
    x = np.array([-0.4, 0.0, 0.3])
    ratios = []
    for k in (8.0, 16.0):
        ratios.append(psi_inf(j, k, x, b) / psi_inf_asymptotic(j, k, x, b))
    err_far = np.max(np.abs(ratios[1] - 1.0))
    err_near = np.max(np.abs(ratios[0] - 1.0))
    assert err_far < err_near
    assert err_far < 5e-2 * (j - 0.5)


def test_asymptotic_exact_for_ground_level():
    x = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(
        psi_inf(1, 3.0, x, 2.0), psi_inf_asymptotic(1, 3.0, x, 2.0), rtol=1e-13
    )
