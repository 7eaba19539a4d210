import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stasis.errors import DomainError
from stasis.specfun import gamma_pos, theta

from reference import GAMMA_3Q, GAMMA_GRID


class TestGamma:
    def test_at_one(self):
        assert gamma_pos(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_at_half(self):
        assert gamma_pos(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_three_quarters_oracle(self):
        assert gamma_pos(0.75) == pytest.approx(GAMMA_3Q, rel=1e-14)

    def test_against_frozen_grid(self):
        for x, v in GAMMA_GRID.items():
            assert gamma_pos(x) == pytest.approx(v, rel=1e-13)

    def test_recurrence_on_grid(self):
        for x in np.arange(0.1, 5.01, 0.1):
            lhs = gamma_pos(x + 1.0)
            assert abs(lhs - x * gamma_pos(x)) <= 1e-12 * lhs

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            gamma_pos(bad)


class TestTheta:
    def test_side2_rho2_mu1(self):
        # the quadratic stationary endpoint coefficient
        expect = -(math.sqrt(math.pi) / 2.0) * cmath.exp(-1j * math.pi / 4.0)
        assert theta(2, 2.0, 1.0) == pytest.approx(expect, rel=1e-14)

    def test_side1_rho1(self):
        for mu in (0.2, 0.5, 0.9):
            expect = gamma_pos(mu) * cmath.exp(1j * math.pi * mu / 2.0)
            assert theta(1, 1.0, mu) == pytest.approx(expect, rel=1e-14)

    def test_side1_rho2_mu1(self):
        expect = (math.sqrt(math.pi) / 2.0) * cmath.exp(1j * math.pi / 4.0)
        assert theta(1, 2.0, 1.0) == pytest.approx(expect, rel=1e-14)

    @given(st.sampled_from([1, 2]),
           st.floats(min_value=1.0, max_value=8.0),
           st.floats(min_value=0.05, max_value=1.0))
    def test_modulus_identity(self, side, rho, mu):
        assert abs(theta(side, rho, mu)) * rho == pytest.approx(
            gamma_pos(mu / rho), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta(3, 1.0, 0.5)
        with pytest.raises(DomainError):
            theta(1, 0.5, 0.5)
        with pytest.raises(DomainError):
            theta(1, 1.0, 1.5)

