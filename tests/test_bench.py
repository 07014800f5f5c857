"""Unit tests for the virtual counting bench.

Analytic expectations come from the exact qubit probabilities; the bench
must reproduce them statistically, with error bars that actually cover
the spread (checked by standardized residuals over many seeds).
"""
import hashlib
import json
import math

import numpy as np
import pytest

from pmlab import bench
from pmlab.bench import (
    ConfigError,
    CountRecord,
    EstimatedProbability,
    ExperimentConfig,
    InsufficientStatisticsError,
    SEstimate,
    Setting,
    estimate_S,
    estimate_joint,
    estimate_to_json,
    full_scan_profile_csv,
    full_scan_surface_csv,
    run_full_scan,
    simulate_setting,
)
from pmlab.landscape import AngleTriple, s_quantum
from pmlab.qubit import H, Outcome, PropertySetting, joint_probability

# sin^2(30) * cos^2(20): the joint for preparing at 20 and measuring at 50.
TRUE_JOINT_20_50 = 0.2207555553898722

OPTIMUM = AngleTriple(157.0, 123.5, 77.5)


class TestExperimentConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("heralded_rate", -1.0),
            ("integration_time", 0.0),
            ("eff_d1", 1.5),
            ("eff_d2", -0.1),
            ("dark_rate_d3", -5.0),
            ("coincidence_window", 0.0),
            ("p2_step", 0.0),
            ("hwp_step", -3.0),
            ("rng_seed", -1),
            ("heralded_rate", math.nan),
            ("heralded_rate", math.inf),
            ("dark_rate_d1", -math.inf),
            ("heralded_rate", "5"),
            ("eff_d3", None),
            ("eff_d1", True),
            ("rng_seed", True),
            ("rng_seed", 1.0),
            pytest.param("coincidence_window", 10**400, id="coincidence_window-huge-int"),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: value})

    def test_json_roundtrip(self):
        cfg = ExperimentConfig(heralded_rate=123.0, rng_seed=9)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_json('{"heralded_rate": 10, "voltage": 5}')

    def test_json_rejects_non_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("[1, 2]")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("not json")

    def test_json_accepts_partial_fields(self):
        cfg = ExperimentConfig.from_json('{"rng_seed": 4}')
        assert cfg.rng_seed == 4
        assert cfg.coincidence_window == 9e-9


class TestSetting:
    def test_analyzer_angle_doubles_the_plate(self):
        assert Setting(theta_prep=10.0, hwp_angle=30.0).theta_meas == 60.0

    def test_for_angles(self):
        s = Setting.for_angles(10.0, 170.0)
        assert s.hwp_angle == 85.0

    def test_plate_range(self):
        with pytest.raises(ValueError):
            Setting(theta_prep=0.0, hwp_angle=91.0)
        with pytest.raises(ValueError):
            Setting.for_angles(0.0, 181.0)
        Setting(theta_prep=0.0, hwp_angle=90.0)


class TestSimulateSetting:
    def test_bit_identical_for_same_seed(self):
        cfg = ExperimentConfig(rng_seed=5)
        setting = Setting.for_angles(20.0, 50.0)
        assert simulate_setting(cfg, setting) == simulate_setting(cfg, setting)

    def test_seed_changes_counts(self):
        setting = Setting.for_angles(20.0, 50.0)
        r1 = simulate_setting(ExperimentConfig(rng_seed=1), setting)
        r2 = simulate_setting(ExperimentConfig(rng_seed=2), setting)
        assert (r1.coinc_13, r1.coinc_23) != (r2.coinc_13, r2.coinc_23)

    def test_preparation_angle_is_periodic(self):
        # 190 degrees is the same polarizer orientation as 10 degrees.
        cfg = ExperimentConfig(rng_seed=3)
        r1 = simulate_setting(cfg, Setting(theta_prep=10.0, hwp_angle=25.0))
        r2 = simulate_setting(cfg, Setting(theta_prep=190.0, hwp_angle=25.0))
        assert (r1.coinc_13, r1.coinc_23, r1.singles_d1) == (
            r2.coinc_13,
            r2.coinc_23,
            r2.singles_d1,
        )

    def test_aligned_analyzer_gives_no_minus_port_coincidences(self):
        cfg = ExperimentConfig.ideal(1e5, rng_seed=7)
        record = simulate_setting(cfg, Setting.for_angles(30.0, 30.0))
        assert record.coinc_13 == 0
        assert record.coinc_23 > 0

    def test_routing_fraction_matches_born_rule(self):
        n = 1_000_000
        cfg = ExperimentConfig.ideal(n, rng_seed=8)
        record = simulate_setting(cfg, Setting.for_angles(0.0, 45.0))
        fraction = record.coinc_13 / (record.coinc_13 + record.coinc_23)
        assert fraction == pytest.approx(0.5, abs=3.0 / math.sqrt(n))

    def test_zero_rate_leaves_only_darks(self):
        cfg = ExperimentConfig(
            heralded_rate=0.0,
            dark_rate_d1=1000.0,
            dark_rate_d2=1000.0,
            dark_rate_d3=1000.0,
            rng_seed=4,
        )
        record = simulate_setting(cfg, Setting.for_angles(20.0, 50.0))
        assert record.coinc_13 == 0 and record.coinc_23 == 0
        assert record.singles_d1 > 0 and record.singles_d3 > 0

    def test_accidentals_from_dark_and_trigger_cross_rate(self):
        # Aligned analyzer so true coincidences are impossible; a huge dark
        # rate and a wide window make accidentals near-certain.
        cfg = ExperimentConfig(
            heralded_rate=1e5,
            eff_d1=1.0,
            eff_d2=1.0,
            eff_d3=1.0,
            dark_rate_d1=1e4,
            dark_rate_d2=0.0,
            dark_rate_d3=0.0,
            coincidence_window=1e-6,
            rng_seed=6,
        )
        record = simulate_setting(cfg, Setting.for_angles(30.0, 30.0))
        # Expected accidental mean ~ 1e4 * 1e5 * 1e-6 = 1000; D2 still sees
        # its true coincidences, D1 sees accidentals only.
        assert 800 < record.coinc_13 < 1200
        assert record.coinc_23 > 10_000

    def test_detector_efficiency_thins_counts(self):
        full = simulate_setting(
            ExperimentConfig.ideal(1e5, rng_seed=9), Setting.for_angles(0.0, 45.0)
        )
        lossy = simulate_setting(
            ExperimentConfig.ideal(1e5, rng_seed=9, eff_d1=0.2, eff_d2=0.2),
            Setting.for_angles(0.0, 45.0),
        )
        assert lossy.coinc_13 < 0.3 * full.coinc_13


class TestEstimateJoint:
    def make_pair(self, cfg, theta_prep, theta_meas):
        record = simulate_setting(cfg, Setting.for_angles(theta_prep, theta_meas))
        reference = simulate_setting(cfg, Setting.for_angles(0.0, theta_meas))
        return record, reference

    def test_matches_analytic_joint(self):
        cfg = ExperimentConfig.ideal(1e6, rng_seed=10)
        record, reference = self.make_pair(cfg, 20.0, 50.0)
        est = estimate_joint(record, reference)
        assert est.std_error > 0
        assert est.value == pytest.approx(TRUE_JOINT_20_50, abs=5 * est.std_error)

    def test_zero_numerator_gives_zero(self):
        cfg = ExperimentConfig.ideal(1e5, rng_seed=11)
        record, reference = self.make_pair(cfg, 30.0, 30.0)
        est = estimate_joint(record, reference)
        assert est.value == 0.0

    def test_record_as_its_own_reference_at_full_transfer(self):
        # Preparing at 0 and analyzing at 90: the conditional is 1, so the
        # joint collapses to the marginal and the reference is the record.
        cfg = ExperimentConfig.ideal(1e5, rng_seed=12)
        record = simulate_setting(cfg, Setting.for_angles(0.0, 90.0))
        est = estimate_joint(record, record)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_reference_angle(self):
        cfg = ExperimentConfig.ideal(1e5, rng_seed=13)
        record = simulate_setting(cfg, Setting.for_angles(20.0, 50.0))
        bad_ref = simulate_setting(cfg, Setting.for_angles(10.0, 50.0))
        with pytest.raises(ValueError):
            estimate_joint(record, bad_ref)

    def test_rejects_mismatched_analyzer(self):
        cfg = ExperimentConfig.ideal(1e5, rng_seed=14)
        record = simulate_setting(cfg, Setting.for_angles(20.0, 50.0))
        bad_ref = simulate_setting(cfg, Setting.for_angles(0.0, 60.0))
        with pytest.raises(ValueError):
            estimate_joint(record, bad_ref)

    def test_raises_on_empty_records(self):
        cfg = ExperimentConfig(
            heralded_rate=0.0,
            dark_rate_d1=0.0,
            dark_rate_d2=0.0,
            dark_rate_d3=0.0,
        )
        record, reference = self.make_pair(cfg, 20.0, 50.0)
        with pytest.raises(InsufficientStatisticsError):
            estimate_joint(record, reference)

    def test_residuals_calibrated_over_seeds(self):
        residuals = []
        for seed in range(120):
            cfg = ExperimentConfig.ideal(1e5, rng_seed=seed)
            record, reference = self.make_pair(cfg, 20.0, 50.0)
            est = estimate_joint(record, reference)
            residuals.append((est.value - TRUE_JOINT_20_50) / est.std_error)
        residuals = np.array(residuals)
        assert -0.3 <= residuals.mean() <= 0.3
        assert 0.6 <= residuals.var(ddof=1) <= 1.6

    def test_estimates_stay_physical(self):
        rng = np.random.default_rng(15)
        for seed in range(40):
            theta_prep = float(rng.uniform(0.0, 80.0))
            theta_meas = float(rng.uniform(0.0, 180.0))
            cfg = ExperimentConfig.ideal(1e4, rng_seed=seed)
            record, reference = self.make_pair(cfg, theta_prep, theta_meas)
            est = estimate_joint(record, reference)
            assert -0.05 <= est.value <= 1.05

    def test_estimated_probability_validation(self):
        with pytest.raises(ValueError):
            EstimatedProbability(value=math.nan, std_error=0.1)
        with pytest.raises(ValueError):
            EstimatedProbability(value=0.5, std_error=-0.1)

    def test_accidental_subtraction_removes_background(self):
        # Aligned analyzer: the true joint is zero, so whatever the D1
        # channel collects is accidental background.
        cfg = ExperimentConfig(
            heralded_rate=1e5,
            eff_d1=1.0,
            eff_d2=1.0,
            eff_d3=1.0,
            dark_rate_d1=1e4,
            dark_rate_d2=0.0,
            dark_rate_d3=0.0,
            coincidence_window=1e-6,
            rng_seed=20,
        )
        record, reference = self.make_pair(cfg, 30.0, 60.0)
        raw = estimate_joint(record, reference)
        corrected = estimate_joint(record, reference, subtract_window=cfg.coincidence_window)
        true_joint = joint_probability(
            H,
            (PropertySetting.at(30.0), Outcome.PLUS),
            (PropertySetting.at(60.0), Outcome.MINUS),
        )
        assert abs(corrected.value - true_joint) < abs(raw.value - true_joint)

    def test_subtraction_is_noop_without_background(self):
        cfg = ExperimentConfig.ideal(1e5, rng_seed=21)
        record, reference = self.make_pair(cfg, 20.0, 50.0)
        raw = estimate_joint(record, reference)
        corrected = estimate_joint(record, reference, subtract_window=1e-30)
        assert corrected.value == pytest.approx(raw.value, abs=1e-9)


class TestSEstimate:
    def test_sigma_violation_zero_for_non_negative(self):
        assert SEstimate(value=0.2, std_error=0.1).sigma_violation == 0.0
        assert SEstimate(value=0.0, std_error=0.0).sigma_violation == 0.0

    def test_sigma_violation_magnitude(self):
        assert SEstimate(value=-0.4, std_error=0.02).sigma_violation == pytest.approx(20.0)

    def test_sigma_violation_with_zero_error(self):
        assert SEstimate(value=-0.1, std_error=0.0).sigma_violation == math.inf


class TestEstimateS:
    def test_recovers_the_optimum_value(self):
        cfg = ExperimentConfig.ideal(1e6, rng_seed=2026)
        est = estimate_S(cfg, OPTIMUM)
        assert est.std_error < 0.005
        assert est.value == pytest.approx(s_quantum(OPTIMUM), abs=5 * est.std_error)
        assert est.sigma_violation > 50

    def test_zero_triple(self):
        est = estimate_S(ExperimentConfig.ideal(1e5, rng_seed=1), AngleTriple(0.0, 0.0, 0.0))
        assert est.value == 0.0
        assert est.sigma_violation == 0.0

    def test_insufficient_statistics_propagates(self):
        cfg = ExperimentConfig(
            heralded_rate=0.0, dark_rate_d1=0.0, dark_rate_d2=0.0, dark_rate_d3=0.0
        )
        with pytest.raises(InsufficientStatisticsError):
            estimate_S(cfg, OPTIMUM)

    def test_seventeen_sigma_regime(self):
        # Error bars near 0.023 put the optimum about 17 sigma below zero.
        est = estimate_S(ExperimentConfig.ideal(3600, rng_seed=0), OPTIMUM)
        assert 0.020 <= est.std_error <= 0.027
        assert 14.0 <= est.sigma_violation <= 21.0

    def test_error_shrinks_with_integration_time(self):
        short = estimate_S(
            ExperimentConfig.ideal(1e4, rng_seed=3, integration_time=1.0), OPTIMUM
        )
        long = estimate_S(
            ExperimentConfig.ideal(1e4, rng_seed=3, integration_time=100.0), OPTIMUM
        )
        ratio = short.std_error / long.std_error
        assert 8.0 <= ratio <= 12.0

    def test_matches_full_scan_nodes_bit_for_bit(self):
        # One estimation path: a surface node and a lone estimate at the same
        # orientations come from the same records through the same sums.
        cfg = ExperimentConfig.ideal(2e5, p2_step=30.0, hwp_step=15.0, rng_seed=17)
        result = run_full_scan(cfg)
        axis_b = result.theta_b_axis.tolist()
        axis_c = result.theta_c_axis.tolist()
        for tb, tc in [(0.0, 0.0), (30.0, 150.0), (60.0, 90.0), (120.0, 60.0), (150.0, 30.0)]:
            node = result.surface[axis_b.index(tb)][axis_c.index(tc)]
            alone = estimate_S(cfg, AngleTriple(result.theta_a, tb, tc))
            assert (alone.value, alone.std_error) == (node.value, node.std_error)
        profile_node = result.profile[axis_c.index(60.0)]
        alone = estimate_S(cfg, AngleTriple(result.theta_a, result.theta_b_profile, 60.0))
        assert (alone.value, alone.std_error) == (profile_node.value, profile_node.std_error)


class TestRunFullScan:
    def coarse_config(self, **overrides):
        params = dict(p2_step=30.0, hwp_step=15.0, rng_seed=17)
        params.update(overrides)
        return ExperimentConfig.ideal(2e5, **params)

    def test_axes_follow_config_steps(self):
        result = run_full_scan(self.coarse_config())
        assert result.theta_b_axis.tolist() == [0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0]
        assert result.theta_c_axis.tolist() == [0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0]

    def test_theory_columns_match_closed_form(self):
        result = run_full_scan(self.coarse_config())
        for i, tb in enumerate(result.theta_b_axis):
            for j, tc in enumerate(result.theta_c_axis):
                expected = s_quantum(AngleTriple(result.theta_a, tb, tc))
                assert result.surface_theory[i, j] == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_preparation_row_has_no_data(self):
        result = run_full_scan(self.coarse_config())
        i90 = result.theta_b_axis.tolist().index(90.0)
        assert all(est is None for est in result.surface[i90])
        for i, row in enumerate(result.surface):
            if i != i90:
                assert all(est is not None for est in row)

    def test_profile_tracks_theory(self):
        result = run_full_scan(self.coarse_config())
        for j, est in enumerate(result.profile):
            assert est.value == pytest.approx(
                result.profile_theory[j], abs=5 * max(est.std_error, 1e-6)
            )

    def test_profile_through_orthogonal_preparation_has_no_data(self):
        # theta_b = 90 passes nothing into the b-then-c joint: every profile
        # node is a hole, and the surface is the same as for any profile.
        result = run_full_scan(self.coarse_config(), theta_b_profile=90.0)
        assert result.profile == [None] * result.theta_c_axis.size
        assert result.profile_theory.tolist() == [
            s_quantum(AngleTriple(result.theta_a, 90.0, tc)) for tc in result.theta_c_axis
        ]
        rows = full_scan_profile_csv(result).splitlines()[1:]
        assert all(row.split(",")[1:4] == ["nan"] * 3 for row in rows)
        assert full_scan_surface_csv(result) == full_scan_surface_csv(
            run_full_scan(self.coarse_config())
        )

    def test_deterministic(self):
        r1 = run_full_scan(self.coarse_config())
        r2 = run_full_scan(self.coarse_config())
        assert [e.value for e in r1.profile] == [e.value for e in r2.profile]
        assert full_scan_surface_csv(r1) == full_scan_surface_csv(r2)

    def test_full_resolution_profile_minimum(self):
        cfg = ExperimentConfig.ideal(1e6, rng_seed=5)
        result = run_full_scan(cfg)
        values = np.array([est.value for est in result.profile])
        assert result.theta_c_axis[int(np.argmin(values))] == 78.0

    @pytest.mark.parametrize("p2_step,hwp_step", [(0.01, 0.005), (5e-324, 3.0)])
    def test_grid_cap_rejects_before_allocating(self, p2_step, hwp_step):
        cfg = ExperimentConfig.ideal(1e5, p2_step=p2_step, hwp_step=hwp_step)
        with pytest.raises(ValueError, match="exceeds the cap"):
            run_full_scan(cfg)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"theta_a": math.nan}, "theta_a"),
            ({"theta_a": math.inf}, "theta_a"),
            ({"theta_b_profile": 200.0}, "theta_b_profile"),
            ({"theta_b_profile": -1.0}, "theta_b_profile"),
            ({"theta_b_profile": math.nan}, "theta_b_profile"),
        ],
    )
    def test_rejects_bad_angles_before_simulating(self, monkeypatch, kwargs, name):
        calls = []
        monkeypatch.setattr(bench, "simulate_setting", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=name):
            run_full_scan(ExperimentConfig(p2_step=1.0, hwp_step=0.5), **kwargs)
        assert calls == []

    def test_single_node_grid_yields_one_estimate(self):
        cfg = ExperimentConfig.ideal(1e5, rng_seed=1, p2_step=360.0, hwp_step=180.0)
        result = run_full_scan(cfg)
        assert len(result.surface) == 1 and len(result.surface[0]) == 1
        assert len(result.profile) == 1


class TestSerialization:
    def test_estimate_json(self):
        payload = json.loads(estimate_to_json(SEstimate(value=-0.4, std_error=0.02)))
        assert payload["value"] == -0.4
        assert payload["sigma_violation"] == pytest.approx(20.0)

    def test_full_scan_csv_shapes(self):
        cfg = ExperimentConfig.ideal(2e5, p2_step=45.0, hwp_step=22.5, rng_seed=3)
        result = run_full_scan(cfg)
        surface = full_scan_surface_csv(result).strip().split("\n")
        profile = full_scan_profile_csv(result).strip().split("\n")
        assert surface[0] == "theta_b,theta_c,s_sim,std_error,sigma,s_theory"
        assert profile[0] == "theta_c,s_sim,std_error,sigma,s_theory"
        n_b = result.theta_b_axis.size
        n_c = result.theta_c_axis.size
        assert len(surface) == 1 + n_b * n_c
        assert len(profile) == 1 + n_c
        # The orthogonal-preparation row is present but holds nan markers.
        i90 = result.theta_b_axis.tolist().index(90.0)
        row = surface[1 + i90 * n_c].split(",")
        assert row[2] == "nan" and row[3] == "nan"

    def test_full_scan_csv_bytes_pinned(self):
        # sha256 recorded before the CSV writers were merged into one.
        result = run_full_scan(ExperimentConfig(rng_seed=3))
        assert hashlib.sha256(full_scan_surface_csv(result).encode()).hexdigest() == (
            "cf7cc3e0920bda34803ff227f4d4d4fc9b9c1ced7ec5a33e24e4d95c5a806779"
        )
        assert hashlib.sha256(full_scan_profile_csv(result).encode()).hexdigest() == (
            "264840ed8f7d1c83337cbc576fceb2d86f8c5169d60a82b8a34416e21416c9ae"
        )
