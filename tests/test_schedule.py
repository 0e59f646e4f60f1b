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
        assert sched.rate(0) == 4.0
        assert sched.rate(123456) == 4.0
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
            sched.rate(-1)
        with pytest.raises(UsageError):
            sched.rate(1.5)
        with pytest.raises(UsageError):
            sched.rate(True)
        with pytest.raises(UsageError):
            sched.rates(0, -1)


class TestInverseTimeSchedule:
    def test_rate_values(self):
        sched = InverseTimeSchedule(scale=1.0, offset=9.0)
        assert sched.rate(1) == pytest.approx(0.1, rel=1e-15)
        assert sched.rate(0) == pytest.approx(1.0 / 9.0, rel=1e-15)

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
        singles = np.array([sched.rate(5 + j) for j in range(50)])
        np.testing.assert_array_equal(block, singles)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            InverseTimeSchedule(scale=0.0, offset=1.0)
        with pytest.raises(ConfigurationError):
            InverseTimeSchedule(scale=1.0, offset=0.0)


class TestValidateSchedule:
    def test_constant_flags(self):
        report = validate_schedule(ConstantSchedule(rho=0.1), mu=1.0)
        assert report.tends_to_zero is False
        assert report.sum_diverges is True
        assert report.robbins_monro is False
        assert report.max_rate_mu == pytest.approx(0.1)
        assert report.stability_ok

    def test_inverse_time_flags(self):
        report = validate_schedule(InverseTimeSchedule(scale=1.0, offset=2.0), mu=1.0)
        assert report.tends_to_zero is True
        assert report.sum_diverges is True
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
