"""Coefficient schedules: variant formulas, derivatives, identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysbridge import schedule
from sysbridge.errors import ScheduleDomainError, UnsupportedVariantError

ALL_SPECS = [
    schedule.ScheduleSpec("sb", b0=0.1, b1=0.3),
    schedule.ScheduleSpec("vp"),
    schedule.ScheduleSpec("ve", sigma_max=10.0),
]


class TestVariantFormulas:
    def test_vp_midpoint(self):
        c = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        assert c.alpha == pytest.approx(0.5)
        assert c.beta == pytest.approx(math.sqrt(0.5))
        assert c.gamma == pytest.approx(math.sqrt(0.5))

    def test_ve_values(self):
        c = schedule.evaluate(schedule.ScheduleSpec("ve", sigma_max=10.0), 0.25)
        assert c.alpha == 1.0
        assert c.beta == pytest.approx(5.0)
        assert c.gamma == pytest.approx(0.5)
        assert c.dlog_alpha_dt == 0.0

    def test_sb_constant_rate_closed_form(self):
        # with b0 = b1 = c the running integral is exactly c*t, so
        # alpha = 1-t, beta = c t (1-t), gamma = t
        spec = schedule.ScheduleSpec("sb", b0=0.1, b1=0.1)
        for t in (0.2, 0.5, 0.77):
            c = schedule.evaluate(spec, t)
            assert c.alpha == pytest.approx(1.0 - t, abs=1e-12)
            assert c.beta == pytest.approx(0.1 * t * (1.0 - t), abs=1e-12)
            assert c.gamma == pytest.approx(t, abs=1e-12)

    def test_sb_integral_against_quadrature(self):
        # gamma = s^2 / C: the running integral over the total mass
        spec = schedule.ScheduleSpec("sb", b0=0.03, b1=0.7)
        s0, s1 = math.sqrt(spec.b0), math.sqrt(spec.b1)

        def quad(t_end):
            grid = np.linspace(0.0, t_end, 1_000_001)
            u = np.where(grid <= 0.5, grid, 1.0 - grid)
            return float(np.trapezoid((s0 + u * (s1 - s0)) ** 2, grid))

        total = quad(1.0)
        for t_eval in (0.3, 0.8):
            assert schedule.evaluate(spec, t_eval).gamma == pytest.approx(quad(t_eval) / total, abs=1e-9)

    @pytest.mark.parametrize("b0, b1, eps1", [(1e-6, 100.0, 1e-9), (1e-3, 1.0, 1e-5), (0.1, 0.3, 1e-3)])
    def test_sb_null_coefficients_keep_their_digits_at_t_max(self, b0, b1, eps1):
        # exact rational arithmetic on the rate the float sqrt(b0), sqrt(b1) define
        spec = schedule.ScheduleSpec("sb", b0=b0, b1=b1, eps1=eps1)
        t = spec.t_max
        s0 = Fraction(math.sqrt(b0))
        delta = Fraction(math.sqrt(b1)) - s0

        def antideriv(u):
            return s0 * s0 * u + s0 * delta * u * u + delta * delta * u ** 3 / 3

        total = 2 * antideriv(Fraction(1, 2))
        sbar_sq = antideriv(1 - Fraction(t))
        s_sq = total - sbar_sq
        rate = (s0 + (1 - Fraction(t)) * delta) ** 2
        c = schedule.evaluate(spec, t)
        assert c.alpha == pytest.approx(float(sbar_sq / total), rel=1e-14, abs=0)
        assert c.beta == pytest.approx(float(s_sq * sbar_sq / total), rel=1e-14, abs=0)
        assert c.dlog_alpha_dt == pytest.approx(float(-rate / sbar_sq), rel=1e-14, abs=0)

    def test_sb_start_limit(self):
        spec = schedule.ScheduleSpec("sb", eps2=1e-6)
        c = schedule.evaluate(spec, spec.t_min)
        assert c.alpha == pytest.approx(1.0, abs=1e-4)
        assert c.beta == pytest.approx(0.0, abs=1e-4)
        assert c.gamma == pytest.approx(0.0, abs=1e-4)

    def test_domain_errors(self):
        spec = schedule.ScheduleSpec("vp")
        with pytest.raises(ScheduleDomainError):
            schedule.evaluate(spec, 0.0)
        with pytest.raises(ScheduleDomainError):
            schedule.evaluate(spec, 1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            schedule.ScheduleSpec("sb", b0=0.0)
        with pytest.raises(ValueError):
            schedule.ScheduleSpec("ve", sigma_max=0.5)
        with pytest.raises(UnsupportedVariantError):
            schedule.ScheduleSpec("cosine")
        with pytest.raises(ValueError):
            schedule.ScheduleSpec("vp", eps1=0.7, eps2=0.4)


class TestDerivatives:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.variant)
    def test_analytic_matches_finite_differences(self, spec):
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(50):
            t = rng.uniform(spec.t_min + 2 * h, spec.t_max - 2 * h)
            c = schedule.evaluate(spec, t)
            cp = schedule.evaluate(spec, t + h)
            cm = schedule.evaluate(spec, t - h)
            for name in ("alpha", "beta", "gamma"):
                fd = (getattr(cp, name) - getattr(cm, name)) / (2 * h)
                an = getattr(c, f"d{name}_dt")
                assert an == pytest.approx(fd, rel=1e-5, abs=1e-8), (spec.variant, name)

    def test_dlog_alpha_consistency(self):
        for spec in ALL_SPECS:
            c = schedule.evaluate(spec, 0.4)
            assert c.dlog_alpha_dt == pytest.approx(c.dalpha_dt / c.alpha, rel=1e-12)


class TestG2Identity:
    def test_constant_pair(self):
        spec = schedule.ScheduleSpec("sb", b0=0.1, b1=0.1)
        grid = np.linspace(spec.t_min, spec.t_max, 101)
        assert schedule.verify_g2_identity(spec, grid) < 1e-8

    def test_skewed_pair(self):
        spec = schedule.ScheduleSpec("sb", b0=0.01, b1=1.0)
        grid = np.linspace(spec.t_min, spec.t_max, 101)
        assert schedule.verify_g2_identity(spec, grid) < 1e-8

    def test_non_sb_rejected(self):
        with pytest.raises(UnsupportedVariantError):
            schedule.verify_g2_identity(schedule.ScheduleSpec("vp"), [0.5])

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_identity_for_arbitrary_pairs(self, b0, b1):
        spec = schedule.ScheduleSpec("sb", b0=b0, b1=b1)
        grid = np.linspace(spec.t_min, spec.t_max, 31)
        assert schedule.verify_g2_identity(spec, grid) < 1e-8


class TestStructure:
    def test_sb_total_mass_constant(self):
        # alpha + gamma = (sbar^2 + s^2) / C and beta / (alpha gamma) = C
        spec = schedule.ScheduleSpec("sb", b0=0.05, b1=0.4)
        sums, totals = [], []
        for t in np.linspace(spec.t_min, spec.t_max, 41):
            c = schedule.evaluate(spec, float(t))
            sums.append(c.alpha + c.gamma)
            totals.append(c.beta / (c.alpha * c.gamma))
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)
        assert np.ptp(totals) < 1e-12 * np.mean(totals)

    def test_range_null_alignment(self):
        # vp and ve share one rate for both subspaces; sb does not
        for spec in ALL_SPECS:
            c = schedule.evaluate(spec, 0.33)
            if spec.variant in ("vp", "ve"):
                assert c.f_range == pytest.approx(c.f_null, rel=1e-12)
            else:
                assert abs(c.f_range - c.f_null) > 1e-3

    def test_continuity_no_nonfinite(self):
        for variant in schedule.VARIANTS:
            spec = schedule.ScheduleSpec(variant, eps1=1e-4, eps2=1e-4)
            for t in np.linspace(spec.t_min, spec.t_max, 501):
                c = schedule.evaluate(spec, t)
                vals = [
                    c.alpha, c.beta, c.gamma, c.dalpha_dt, c.dbeta_dt, c.dgamma_dt,
                    c.dlog_alpha_dt, c.gnull_sq, c.f_range, c.f_null,
                ]
                assert np.all(np.isfinite(vals)), (variant, t)
                assert c.beta >= 0 and c.gamma >= 0 and 0 < c.alpha <= 1
                assert c.gnull_sq >= -1e-12


    @given(
        st.sampled_from(schedule.VARIANTS),
        st.floats(1e-6, 1e2), st.floats(1e-6, 1e2),
        st.floats(1.0, 1e3, exclude_min=True),
        st.floats(1e-9, 0.5, exclude_max=True), st.floats(1e-9, 0.5, exclude_max=True),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_both_diffusion_rates_positive(self, variant, b0, b1, sigma_max, eps1, eps2, u):
        # the steps take square roots of both rates as they are
        spec = schedule.ScheduleSpec(variant, b0, b1, sigma_max, eps1, eps2)
        inner = min(spec.t_min + u * (spec.t_max - spec.t_min), spec.t_max)
        for t in (spec.t_min, inner, spec.t_max):
            c = schedule.evaluate(spec, t)
            assert c.gnull_sq > 0 and c.dgamma_dt > 0, (spec, t)


class TestTerminalLimits:
    """(gamma, alpha^2 / beta) at the clipped terminal time 1 - eps1: the
    reverse sampler is posterior-consistent when gamma approaches 1 and
    alpha^2 / beta approaches 0 there."""

    @staticmethod
    def limits(spec):
        c = schedule.evaluate(spec, spec.t_max)
        return c.gamma, c.alpha * c.alpha / c.beta

    def test_vp(self):
        gamma, ratio = self.limits(schedule.ScheduleSpec("vp"))
        assert gamma == pytest.approx(math.sqrt(0.999), rel=1e-9)
        assert ratio == pytest.approx(1e-6 / math.sqrt(0.999), rel=1e-9)

    def test_ve_needs_large_sigma_max(self):
        gamma, ratio = self.limits(schedule.ScheduleSpec("ve", sigma_max=50.0))
        assert gamma == pytest.approx(math.sqrt(0.999), rel=1e-9)
        assert ratio == pytest.approx(1.0 / (50.0 * math.sqrt(0.999)), rel=1e-9)

    def test_sb_constant(self):
        spec = schedule.ScheduleSpec("sb", b0=0.2, b1=0.2)
        gamma, ratio = self.limits(spec)
        assert gamma == pytest.approx(0.999, rel=1e-9)
        assert ratio == pytest.approx(1e-3 ** 2 / (0.2 * 0.999 * 1e-3), rel=1e-6)
