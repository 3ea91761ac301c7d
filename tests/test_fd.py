import math

import numpy as np
import pytest

from pedflow.config import ConfigError, ScenarioConfig
from pedflow.fd import (
    FDParams,
    FDState,
    capacity_flow,
    critical_density,
    density_ratio,
    effective_jam_density,
    effective_speed,
    effective_speed_profile,
    flow,
)

LOGISTIC = FDParams(v_f=1.5, omega=0.5, k_jam=5.4)
POWER = FDParams(v_f=1.5, omega=0.5, k_jam=5.4, variant="power", gamma=1.0)


class TestSpeedLaw:
    @pytest.mark.parametrize("variant, gamma, key", [
        ("Logistic", 1.0, "fd.variant"),
        ("logistc", None, "fd.variant"),
        ("power", -2.0, "fd.gamma"),
        ("power", math.nan, "fd.gamma"),
        ("power", None, "fd.gamma"),
        ("logistic", 1.0, "fd.gamma"),
    ])
    def test_params_and_config_share_one_rule(self, variant, gamma, key):
        with pytest.raises(ValueError):
            FDParams(v_f=1.5, omega=0.5, k_jam=5.4, variant=variant, gamma=gamma)
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig(fd_variant=variant, fd_gamma=gamma)

    def test_profile_rejects_an_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            effective_speed_profile(1.5, np.array([0.5]), "Logistic", 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("name", ["v_f", "omega", "k_jam"])
    def test_params(self, name, value):
        with pytest.raises(ValueError, match=name):
            FDParams(**{"v_f": 1.5, "omega": 0.5, "k_jam": 5.4, name: value})

    def test_densities(self, value):
        for k, k_opp in ((value, 0.0), (0.0, value)):
            with pytest.raises(ValueError, match="densities"):
                FDState(k=k, k_opp=k_opp)


class TestDensityRatio:
    def test_balanced(self):
        assert density_ratio(FDState(k=2.0, k_opp=2.0)) == 0.5

    def test_one_way(self):
        assert density_ratio(FDState(k=3.0, k_opp=0.0)) == 1.0

    def test_empty_segment_convention(self):
        assert density_ratio(FDState(k=0.0, k_opp=0.0)) == 1.0

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            FDState(k=-1.0, k_opp=0.0)


class TestEffectiveJamDensity:
    def test_full_ratio_is_identity(self):
        assert effective_jam_density(LOGISTIC, 1.0) == 5.4

    def test_half_ratio(self):
        assert effective_jam_density(LOGISTIC, 0.5) == pytest.approx(2.7, abs=1e-15)

    def test_zero_ratio(self):
        assert effective_jam_density(LOGISTIC, 0.0) == 0.0

    def test_ratio_out_of_range(self):
        with pytest.raises(ValueError):
            effective_jam_density(LOGISTIC, 1.5)


class TestEffectiveSpeed:
    def test_logistic_full_ratio_exact(self):
        assert effective_speed(LOGISTIC, 1.0) == 1.5

    def test_logistic_half_ratio(self):
        assert effective_speed(LOGISTIC, 0.5) == pytest.approx(1.5 * math.exp(-0.5), abs=1e-15)

    def test_power_half_ratio(self):
        assert effective_speed(POWER, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_power_zero_corner_warns(self):
        params = FDParams(v_f=1.5, omega=0.5, k_jam=5.4, variant="power", gamma=0.0)
        with pytest.warns(RuntimeWarning):
            assert effective_speed(params, 0.0) == 1.5

    def test_profile_reads_noise_below_zero_as_empty(self):
        # an occupancy a few ulp below zero gives a ratio like -8.8e-16; the
        # power variant must read it as 0, not as NaN
        rho = np.array([-8.8e-16, 0.0, 0.25, 1.0])
        got = effective_speed_profile(1.5, rho, "power", 0.5)
        assert got.tolist() == [0.0, 0.0, 0.75, 1.5]

    def test_monotone_in_ratio_both_variants(self):
        ratios = np.linspace(0.0, 1.0, 101)
        for params in (LOGISTIC, POWER):
            speeds = [effective_speed(params, r) for r in ratios]
            assert all(b >= a - 1e-12 for a, b in zip(speeds, speeds[1:]))


class TestCriticalDensity:
    def test_symmetric_triangle_apex(self):
        params = FDParams(v_f=0.5, omega=0.5, k_jam=4.0)
        assert critical_density(params, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_full_ratio(self):
        assert critical_density(LOGISTIC, 1.0) == pytest.approx(1.35, abs=1e-15)

    def test_half_ratio_against_composed_oracle(self):
        # independent recomposition: effective jam and speed evaluated directly
        k_hat = 0.5 * 5.4
        v_hat = 1.5 * math.exp(-(1.0 - 0.5))
        expected = k_hat * 0.5 / (v_hat + 0.5)
        got = critical_density(LOGISTIC, 0.5)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.9575, abs=2e-4)

    def test_zero_ratio(self):
        assert critical_density(LOGISTIC, 0.0) == 0.0


class TestFlow:
    def test_empty(self):
        assert flow(LOGISTIC, FDState(k=0.0, k_opp=0.0)) == 0.0

    def test_jam_state(self):
        # k equals the effective jam density when the pair fills the segment
        assert flow(LOGISTIC, FDState(k=2.0, k_opp=3.4)) == pytest.approx(0.0, abs=1e-12)

    def test_apex_continuity_at_full_ratio(self):
        k_c = critical_density(LOGISTIC, 1.0)
        hypo = LOGISTIC.v_f * k_c
        hyper = LOGISTIC.omega * (LOGISTIC.k_jam - k_c)
        assert hypo == pytest.approx(hyper, abs=1e-12)
        assert flow(LOGISTIC, FDState(k=k_c, k_opp=0.0)) == pytest.approx(hypo, abs=1e-12)

    def test_exceeding_effective_storage_raises(self):
        with pytest.raises(ValueError):
            flow(LOGISTIC, FDState(k=3.0, k_opp=3.0))

    def test_branches(self):
        below = flow(LOGISTIC, FDState(k=1.0, k_opp=0.0))
        assert below == pytest.approx(1.5 * 1.0, abs=1e-12)
        above = flow(LOGISTIC, FDState(k=3.0, k_opp=0.0))
        assert above == pytest.approx(0.5 * (5.4 - 3.0), abs=1e-12)


class TestSurfaceProperties:
    def test_apex_continuity_over_ratios(self):
        rng = np.random.default_rng(7)
        for params in (LOGISTIC, POWER):
            for rho in rng.uniform(1e-6, 1.0, size=1000):
                k_c = critical_density(params, rho)
                k_hat = effective_jam_density(params, rho)
                v_hat = effective_speed(params, rho)
                assert abs(v_hat * k_c - params.omega * (k_hat - k_c)) < 1e-9

    def test_reduces_to_plain_triangle_at_full_ratio(self):
        rng = np.random.default_rng(11)
        k_c = critical_density(LOGISTIC, 1.0)
        for k in rng.uniform(0.0, 5.4, size=2000):
            got = flow(LOGISTIC, FDState(k=k, k_opp=0.0))
            expected = LOGISTIC.v_f * k if k <= k_c else LOGISTIC.omega * (5.4 - k)
            assert abs(got - expected) < 1e-12

    def test_hypocritical_flow_monotone_in_ratio(self):
        k = 0.2  # stays hypocritical for every ratio tested
        prev = -1.0
        for rho in np.linspace(0.25, 1.0, 40):
            k_total = k / rho
            q = flow(LOGISTIC, FDState(k=k, k_opp=k_total - k))
            assert q >= prev - 1e-12
            prev = q

    def test_flow_bounded_by_wave_times_storage(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            k = rng.uniform(0, 5.4)
            k_opp = rng.uniform(0, 5.4 - k)
            state = FDState(k=k, k_opp=k_opp)
            rho = density_ratio(state)
            assert flow(LOGISTIC, state) <= LOGISTIC.omega * effective_jam_density(LOGISTIC, rho) + 1e-12

    def test_capacity_flow(self):
        assert capacity_flow(LOGISTIC) == pytest.approx(1.5 * 1.35, abs=1e-12)


class TestParamValidation:
    def test_gamma_required_for_power(self):
        with pytest.raises(ValueError):
            FDParams(v_f=1.5, omega=0.5, k_jam=5.4, variant="power")

    def test_gamma_rejected_for_logistic(self):
        with pytest.raises(ValueError):
            FDParams(v_f=1.5, omega=0.5, k_jam=5.4, gamma=1.0)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            FDParams(v_f=0.0, omega=0.5, k_jam=5.4)
