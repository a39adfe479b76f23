"""Deterministic schedule: level counts, closed forms, exponent curve."""

import math
import sys

import pytest

from onebitcs import InvalidArgumentError, ScheduleConstants, error_exponent, theory_schedule
from onebitcs.theory import level_count, size_constant

BOUNDARY = 24.0**48  # level-1 validity threshold


class TestLevelCount:
    def test_just_above_boundary(self):
        assert level_count(BOUNDARY * (1 + 1e-12)) == (1, True)

    def test_just_below_boundary(self):
        assert level_count(BOUNDARY * (1 - 1e-12)) == (0, True)

    def test_desk_scale_flagged(self):
        assert level_count(8192.0) == (0, False)
        assert level_count(1e6) == (0, False)

    def test_below_level_zero_threshold(self):
        # even level 0 needs m^(1/40) > 24, i.e. m > 24^40
        assert level_count(24.0**40 * 0.99) == (0, False)
        assert level_count(24.0**40 * 1.01) == (0, True)

    def test_growing_levels(self):
        assert level_count(1e85)[0] == 2
        assert level_count(1e100)[0] == 3

    def test_m_guard(self):
        with pytest.raises(InvalidArgumentError):
            level_count(1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_non_finite_m_rejected(self, m):
        with pytest.raises(InvalidArgumentError, match="need finite m >= 2"):
            level_count(m)

    def test_largest_finite_m_reaches_level_nine(self):
        assert level_count(sys.float_info.max) == (9, True)


class TestErrorExponent:
    def test_limit_is_one(self):
        assert error_exponent(10**9) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_nondecreasing_and_steps(self):
        values = [error_exponent(k) for k in range(0, 501)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert error_exponent(0) == pytest.approx(0.4)
        assert error_exponent(24) == pytest.approx(0.4)
        assert error_exponent(25) == pytest.approx(0.5)
        assert error_exponent(50) == pytest.approx(1.0 - 0.5 * (5 / 6))

    def test_strictly_increases_across_blocks(self):
        block_values = [error_exponent(25 * j) for j in range(12)]
        assert all(b > a for a, b in zip(block_values, block_values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            error_exponent(-1)


class TestSizeConstant:
    def test_formula(self):
        c = ScheduleConstants(cb=1.0, cb_lower=1.0)
        m, n, s = 8192.0, 512, 4
        want = 3.0 * (math.sqrt(s * math.log(n / s)) + math.sqrt(5.0 * math.log(m)))
        assert size_constant(n, s, m, c) == pytest.approx(want, rel=1e-15)

    def test_full_space_width_term_vanishes(self):
        c = ScheduleConstants()
        assert size_constant(4, 4, 100.0, c) == pytest.approx(
            3.0 * math.sqrt(5.0 * math.log(100.0)), rel=1e-15
        )

    @pytest.mark.parametrize("m", [1.0, math.nan, math.inf])
    def test_m_guard(self, m):
        with pytest.raises(InvalidArgumentError, match="need finite m >= 2"):
            size_constant(512, 4, m)

    def test_constant_scaling(self):
        base = size_constant(512, 4, 8192.0, ScheduleConstants(cb=1.0, cb_lower=1.0))
        doubled = size_constant(512, 4, 8192.0, ScheduleConstants(cb=2.0, cb_lower=1.0))
        assert doubled > base


class TestScheduleSequences:
    @pytest.mark.parametrize("m", [1e85, BOUNDARY * 1.01, 1e100])
    def test_recurrence_exact(self, m):
        sched = theory_schedule(m, 1024, 5, levels=6)
        log_m = math.log(m)
        c10 = sched.constants.effective_c10
        for i in range(5):
            lhs = sched.r[i + 1] ** 2
            rhs = 600.0 * c10 * log_m * sched.r[i] * sched.delta[i] * sched.c_nsm
            assert abs(lhs - rhs) <= 1e-9 * rhs

    @pytest.mark.parametrize("m", [1e85, 1e100])
    def test_net_resolution_consistent_with_radius(self, m):
        sched = theory_schedule(m, 1024, 5, levels=4)
        log_m = math.log(m)
        for i in range(4):
            want = sched.c_nsm * (sched.r[i] ** 2 * log_m / m) ** (1.0 / 3.0) * log_m
            assert sched.delta[i] == pytest.approx(want, rel=1e-9)

    def test_first_radius_closed_form(self):
        sched = theory_schedule(1e90, 512, 4, levels=1)
        assert sched.r[0] == pytest.approx(sched.c_nsm / math.sqrt(1e90), rel=1e-12)

    @pytest.mark.parametrize("m,n,s", [(1e85, 1024, 4), (1e100, 512, 4), (1e120, 2048, 8)])
    def test_radii_nonincreasing_above_threshold(self, m, n, s):
        sched = theory_schedule(m, n, s, levels=6)
        assert sched.threshold_met
        assert sched.r_nonincreasing

    def test_desk_scale_flag_and_default_empty(self):
        sched = theory_schedule(8192.0, 512, 4)
        assert not sched.threshold_met
        assert sched.L == 0
        assert sched.r == () and sched.delta == ()

    def test_levels_override_emits_diagnostics(self):
        sched = theory_schedule(8192.0, 512, 4, levels=3)
        assert len(sched.r) == 3 and len(sched.delta) == 3
        assert all(v > 0 for v in sched.r)

    def test_default_levels_equal_attained_l(self):
        sched = theory_schedule(1e100, 1024, 5)
        assert sched.L == 3 and len(sched.r) == 3


class TestConstants:
    def test_default_c10_from_placeholders(self):
        c = ScheduleConstants()
        assert c.c10_is_placeholder_derived
        assert c.effective_c10 == pytest.approx(2.0 + math.pi, rel=1e-15)

    def test_c10_tracks_cb(self):
        c = ScheduleConstants(cb=2.0)
        assert c.effective_c10 == pytest.approx(8.0 + math.pi, rel=1e-15)

    def test_explicit_c10_wins(self):
        c = ScheduleConstants(cb=2.0, c10=7.0)
        assert not c.c10_is_placeholder_derived
        assert c.effective_c10 == 7.0

    @pytest.mark.parametrize("kwargs", [
        dict(cb=0.0), dict(cb_lower=-1.0), dict(c10=0.0),
        dict(cb=math.nan), dict(cb_lower=math.nan), dict(c10=math.nan),
        dict(cb=math.inf), dict(cb_lower=math.inf), dict(c10=math.inf),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidArgumentError, match="must be finite and positive"):
            ScheduleConstants(**kwargs)
