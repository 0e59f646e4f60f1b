"""Tests for step-size schedules and their validation flags."""
import numpy as np
import pytest

from sgdcheck import (
    ConfigurationError,
    ConstantSchedule,
    InverseTimeSchedule,
    UsageError,
    validate_schedule,
)


class TestConstantSchedule:
    def test_rate_is_constant(self):
        sched = ConstantSchedule(rho=4.0)
        assert sched.rates(0, 1)[0] == 4.0
        assert sched.rates(123456, 1)[0] == 4.0
        np.testing.assert_array_equal(sched.rates(10, 5), np.full(5, 4.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ConstantSchedule(rho=0.0)
        with pytest.raises(ConfigurationError):
            ConstantSchedule(rho=-1.0)
        with pytest.raises(ConfigurationError):
            ConstantSchedule(rho=float("nan"))

    def test_index_validation(self):
        sched = ConstantSchedule(rho=1.0)
        with pytest.raises(UsageError):
            sched.rates(-1, 1)
        with pytest.raises(UsageError):
            sched.rates(1.5, 1)
        with pytest.raises(UsageError):
            sched.rates(True, 1)
        with pytest.raises(UsageError):
            sched.rates(0, -1)


class TestInverseTimeSchedule:
    def test_rate_values(self):
        sched = InverseTimeSchedule(scale=1.0, offset=9.0)
        assert sched.rates(1, 1)[0] == pytest.approx(0.1, rel=1e-15)
        assert sched.rates(0, 1)[0] == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_strictly_decreasing(self):
        sched = InverseTimeSchedule(scale=2.0, offset=1.0)
        values = sched.rates(0, 1000)
        assert np.all(np.diff(values) < 0)

    def test_partial_sums_diverge(self):
        # The harmonic tail grows without bound; 60000 terms already pass 10.
        sched = InverseTimeSchedule(scale=1.0, offset=1.0)
        assert sched.rates(0, 60_000).sum() > 10.0

    def test_rates_matches_pointwise(self):
        sched = InverseTimeSchedule(scale=3.0, offset=2.0)
        block = sched.rates(5, 50)
        singles = np.array([3.0 / (2.0 + n) for n in range(5, 55)])
        np.testing.assert_array_equal(block, singles)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            InverseTimeSchedule(scale=0.0, offset=1.0)
        with pytest.raises(ConfigurationError):
            InverseTimeSchedule(scale=1.0, offset=0.0)

    def test_rejects_a_first_rate_that_overflows(self):
        with pytest.raises(ConfigurationError, match=r"^the first rate 'scale' / 'offset' = "
                           r"1e\+308 / 1e-300 is not a finite double$"):
            InverseTimeSchedule(scale=1e308, offset=1e-300)
        # A first rate near the largest double is finite and kept.
        assert InverseTimeSchedule(scale=1.7e308, offset=1.0).rates(0, 1)[0] == 1.7e308


class TestValidateSchedule:
    def test_constant_flags(self):
        report = validate_schedule(ConstantSchedule(rho=0.1), mu=1.0)
        assert report.robbins_monro is False
        assert report.max_rate_mu == pytest.approx(0.1)
        assert report.stability_ok

    def test_inverse_time_flags(self):
        report = validate_schedule(InverseTimeSchedule(scale=1.0, offset=2.0), mu=1.0)
        assert report.robbins_monro is True
        assert report.max_rate_mu == pytest.approx(0.5)
        assert report.stability_ok

    def test_unstable_inverse_time(self):
        # First step rate is 2/1 = 2, so rate * mu = 4 exceeds 1.
        report = validate_schedule(InverseTimeSchedule(scale=2.0, offset=1.0), mu=2.0)
        assert report.max_rate_mu == pytest.approx(4.0)
        assert not report.stability_ok
        assert report.robbins_monro is True

    def test_rejects_bad_mu(self):
        with pytest.raises(UsageError):
            validate_schedule(ConstantSchedule(rho=0.1), mu=0.0)
