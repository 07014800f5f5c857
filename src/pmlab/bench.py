"""Virtual counting bench for the heralded single-photon scheme.

Simulates, setting by setting, the chain trigger-detector / polarizer /
half-wave-plate / polarizing splitter with seeded Poisson and binomial
draws, then turns the recorded singles and coincidences back into joint
probabilities and a witness estimate with propagated counting errors.

Counts are drawn in aggregate (one thinning chain per setting rather than
one random number per photon), which is statistically identical at these
rates and orders of magnitude faster.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .landscape import AngleTriple, _check_grid_size, _csv, _finite, s_quantum
from .qubit import (
    H,
    Outcome,
    PropertySetting,
    canonical_degrees,
    conditional_probability,
    marginal_probability,
)


class ConfigError(ValueError):
    """Raised for invalid bench configuration values or documents."""


class InsufficientStatisticsError(RuntimeError):
    """Raised when a record holds too few coincidences to estimate from."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Virtual bench parameters.

    Rates are per second, times in seconds, efficiencies in [0, 1].  The
    source rate, integration time, efficiencies and dark rates are not
    fixed by any reference; the defaults are plausible assumptions for a
    downconversion pair source read out by avalanche photodiodes.
    """

    heralded_rate: float = 50_000.0
    integration_time: float = 1.0
    eff_d1: float = 0.6
    eff_d2: float = 0.6
    eff_d3: float = 0.6
    dark_rate_d1: float = 200.0
    dark_rate_d2: float = 200.0
    dark_rate_d3: float = 200.0
    coincidence_window: float = 9e-9
    p2_step: float = 6.0
    hwp_step: float = 3.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            # The bound also rejects nan and ints too large for a float.
            if not (number and abs(value) <= sys.float_info.max):
                raise ConfigError(f"{field.name} must be a finite number, got {value!r}")
        if self.heralded_rate < 0:
            raise ConfigError(f"heralded_rate must be >= 0, got {self.heralded_rate!r}")
        if self.integration_time <= 0:
            raise ConfigError(f"integration_time must be > 0, got {self.integration_time!r}")
        for name in ("eff_d1", "eff_d2", "eff_d3"):
            eff = getattr(self, name)
            if not 0.0 <= eff <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {eff!r}")
        for name in ("dark_rate_d1", "dark_rate_d2", "dark_rate_d3"):
            rate = getattr(self, name)
            if rate < 0:
                raise ConfigError(f"{name} must be >= 0, got {rate!r}")
        if self.coincidence_window <= 0:
            raise ConfigError(f"coincidence_window must be > 0, got {self.coincidence_window!r}")
        if self.p2_step <= 0 or self.hwp_step <= 0:
            raise ConfigError("angle steps must be > 0")
        if not isinstance(self.rng_seed, int) or self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")

    @classmethod
    def ideal(cls, heralded_rate: float, rng_seed: int = 0, **overrides) -> "ExperimentConfig":
        """Lossless, dark-free bench at the given pair rate, one second per setting."""
        params = dict(
            heralded_rate=heralded_rate,
            integration_time=1.0,
            eff_d1=1.0,
            eff_d2=1.0,
            eff_d3=1.0,
            dark_rate_d1=0.0,
            dark_rate_d2=0.0,
            dark_rate_d3=0.0,
            rng_seed=rng_seed,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Build from a plain dict, rejecting unknown field names."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**mapping)

    @classmethod
    def from_json(cls, document: str) -> "ExperimentConfig":
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config document must be a JSON object")
        return cls.from_mapping(payload)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


@dataclass(frozen=True)
class Setting:
    """One acquisition setting: polarizer orientation and wave-plate angle.

    The analyzer orientation is twice the wave-plate fast-axis angle, so a
    plate scanned over [0, 90] covers the full [0, 180] analyzer range.
    """

    theta_prep: float
    hwp_angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_prep", float(self.theta_prep))
        object.__setattr__(self, "hwp_angle", float(self.hwp_angle))
        if not 0.0 <= self.hwp_angle <= 90.0:
            raise ValueError(f"hwp_angle must be in [0, 90], got {self.hwp_angle!r}")

    @property
    def theta_meas(self) -> float:
        return 2.0 * self.hwp_angle

    @classmethod
    def for_angles(cls, theta_prep: float, theta_meas: float) -> "Setting":
        """Setting that prepares at ``theta_prep`` and analyzes at ``theta_meas``."""
        if not 0.0 <= theta_meas <= 180.0:
            raise ValueError(f"theta_meas must be in [0, 180], got {theta_meas!r}")
        return cls(theta_prep=theta_prep, hwp_angle=theta_meas / 2.0)


@dataclass(frozen=True)
class CountRecord:
    """Singles and coincidence tallies for one setting."""

    singles_d1: int
    singles_d2: int
    singles_d3: int
    coinc_13: int
    coinc_23: int
    setting: Setting
    duration: float


@dataclass(frozen=True)
class EstimatedProbability:
    """A probability estimate with its propagated standard error.

    The estimator is deliberately not clamped; counting noise can push it
    slightly outside [0, 1].
    """

    value: float
    std_error: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"estimate must be finite, got {self.value!r}")
        if not self.std_error >= 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error!r}")


@dataclass(frozen=True)
class SEstimate:
    """Witness estimate with propagated error and violation significance."""

    value: float
    std_error: float

    def __post_init__(self) -> None:
        if not self.std_error >= 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error!r}")

    @property
    def sigma_violation(self) -> float:
        """How many standard errors below zero; 0 for non-negative values."""
        if self.value >= 0.0:
            return 0.0
        if self.std_error == 0.0:
            return math.inf
        return abs(self.value) / self.std_error


def _setting_seed(seed: int, setting: Setting) -> np.random.SeedSequence:
    # Keyed on the physical setting (canonical angles, micro-degree
    # quantized) so records are reproducible regardless of scan order.
    key = (
        int(round(canonical_degrees(setting.theta_prep) * 1e6)),
        int(round(setting.hwp_angle * 1e6)),
    )
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def _clip_probability(p: float) -> float:
    # Squared overlaps can exceed 1 by a couple of ulps; the RNG rejects that.
    return min(max(p, 0.0), 1.0)


def _transmit(
    rng: np.random.Generator,
    n_photons: int,
    p_pass: float,
    p_to_d1: float,
    eff_d1: float,
    eff_d2: float,
) -> tuple[int, int]:
    """Thin a photon batch through polarizer, splitter and detectors."""
    n_pass = int(rng.binomial(n_photons, p_pass))
    n_d1 = int(rng.binomial(n_pass, p_to_d1))
    n_d2 = n_pass - n_d1
    det_d1 = int(rng.binomial(n_d1, eff_d1))
    det_d2 = int(rng.binomial(n_d2, eff_d2))
    return det_d1, det_d2


def simulate_setting(cfg: ExperimentConfig, setting: Setting) -> CountRecord:
    """Simulate one acquisition setting of the virtual bench.

    A Poisson number of heralded pairs arrives; each horizontal photon
    passes the polarizer with the exact quantum marginal, is routed by the
    analyzer with the exact conditional for the minus port, and survives
    its detector efficiency.  Only photons whose trigger partner fired can
    produce a true coincidence; dark counts land on every detector and
    pair with trigger singles at the accidental cross-rate within the
    coincidence window.  Identical (config, setting) pairs yield
    bit-identical records.
    """
    rng = np.random.default_rng(_setting_seed(cfg.rng_seed, setting))
    duration = cfg.integration_time

    prep = (PropertySetting.at(setting.theta_prep), Outcome.PLUS)
    meas = (PropertySetting.at(setting.theta_meas), Outcome.MINUS)
    p_pass = _clip_probability(marginal_probability(H, prep))
    p_to_d1 = _clip_probability(conditional_probability(meas, prep))

    n_herald = int(rng.poisson(cfg.heralded_rate * duration))
    n_trig = int(rng.binomial(n_herald, cfg.eff_d3))

    # Trigger-seen photons can coincide; the rest only feed the singles.
    det1_trig, det2_trig = _transmit(rng, n_trig, p_pass, p_to_d1, cfg.eff_d1, cfg.eff_d2)
    det1_rest, det2_rest = _transmit(
        rng, n_herald - n_trig, p_pass, p_to_d1, cfg.eff_d1, cfg.eff_d2
    )

    dark1 = int(rng.poisson(cfg.dark_rate_d1 * duration))
    dark2 = int(rng.poisson(cfg.dark_rate_d2 * duration))
    dark3 = int(rng.poisson(cfg.dark_rate_d3 * duration))

    acc_scale = cfg.coincidence_window / duration
    acc_13 = int(rng.poisson(dark1 * n_trig * acc_scale))
    acc_23 = int(rng.poisson(dark2 * n_trig * acc_scale))

    return CountRecord(
        singles_d1=det1_trig + det1_rest + dark1,
        singles_d2=det2_trig + det2_rest + dark2,
        singles_d3=n_trig + dark3,
        coinc_13=det1_trig + acc_13,
        coinc_23=det2_trig + acc_23,
        setting=setting,
        duration=duration,
    )


def accidental_estimate(record: CountRecord, window: float) -> tuple[float, float]:
    """Expected accidental coincidences per channel, from the singles.

    Uncorrelated streams at the recorded singles rates coincide at the
    cross-rate times the window; this is the standard lab-side correction.
    """
    scale = window / record.duration
    return (
        record.singles_d1 * record.singles_d3 * scale,
        record.singles_d2 * record.singles_d3 * scale,
    )


def _corrected_counts(record: CountRecord, window: float | None) -> tuple[float, float]:
    if window is None:
        return float(record.coinc_13), float(record.coinc_23)
    acc_13, acc_23 = accidental_estimate(record, window)
    return max(record.coinc_13 - acc_13, 0.0), max(record.coinc_23 - acc_23, 0.0)


def estimate_joint(
    record: CountRecord,
    reference: CountRecord,
    subtract_window: float | None = None,
) -> EstimatedProbability:
    """Joint-probability estimate from a record and its zero-angle reference.

    The conditional fraction comes from the record's coincidence split;
    the preparation marginal from the ratio of total coincidences against
    the reference, taken with the polarizer at 0 degrees (where the
    horizontal input passes untouched) and the same analyzer setting.
    Errors: binomial for the fraction, Poisson for the ratio, combined in
    quadrature.

    No accidental subtraction happens by default; pass the coincidence
    window as ``subtract_window`` to remove the singles cross-rate
    estimate from every channel first.
    """
    if canonical_degrees(reference.setting.theta_prep) != 0.0:
        raise ValueError("reference record must be taken at theta_prep = 0")
    if abs(reference.setting.hwp_angle - record.setting.hwp_angle) > 1e-9:
        raise ValueError("reference must share the record's analyzer setting")

    c13, c23 = _corrected_counts(record, subtract_window)
    ref13, ref23 = _corrected_counts(reference, subtract_window)
    total = c13 + c23
    total_ref = ref13 + ref23
    if total <= 0 or total_ref <= 0:
        raise InsufficientStatisticsError(
            f"no coincidences to estimate from (record {total}, reference {total_ref})"
        )

    conditional = c13 / total
    marginal = total / total_ref
    se_cond = math.sqrt(conditional * (1.0 - conditional) / total)
    se_marg = marginal * math.sqrt(1.0 / total + 1.0 / total_ref)
    value = conditional * marginal
    std_error = math.sqrt((marginal * se_cond) ** 2 + (conditional * se_marg) ** 2)
    return EstimatedProbability(value=value, std_error=std_error)


#: One estimation's count records, keyed (canonical preparation, analyzer).
_Records = dict[tuple[float, float], CountRecord]


def _joint(
    cfg: ExperimentConfig, records: _Records, prep: float, meas: float
) -> EstimatedProbability:
    # The record and its zero-angle reference, each simulated at most once
    # per ``records``, turned into one joint estimate.
    pair = []
    for theta_prep in (prep, 0.0):
        key = (canonical_degrees(theta_prep), float(meas))
        if key not in records:
            records[key] = simulate_setting(cfg, Setting.for_angles(theta_prep, meas))
        pair.append(records[key])
    return estimate_joint(*pair)


def _witness(cfg: ExperimentConfig, records: _Records, a: float, b: float, c: float) -> SEstimate:
    # Joints in witness order: plus-a then minus-b, plus-b then minus-c,
    # plus-a then minus-c; errors combine in quadrature.
    j_ab = _joint(cfg, records, a, b)
    j_bc = _joint(cfg, records, b, c)
    j_ac = _joint(cfg, records, a, c)
    value = j_ab.value + j_bc.value - j_ac.value
    std_error = math.sqrt(j_ab.std_error**2 + j_bc.std_error**2 + j_ac.std_error**2)
    return SEstimate(value=value, std_error=std_error)


def estimate_S(cfg: ExperimentConfig, triple: AngleTriple) -> SEstimate:
    """Witness estimate at the given orientations from simulated counts.

    Runs the bench for the three preparation/analysis pairs plus their
    zero-angle references, combines the joint estimates, and propagates
    the three errors in quadrature.
    """
    return _witness(cfg, {}, *triple.as_tuple())


@dataclass(frozen=True, eq=False)
class FullScanResult:
    """Witness reconstruction over the experimental grid.

    ``surface`` holds estimates at fixed ``theta_a`` over the (theta_b,
    theta_c) grid, row-major; ``profile`` additionally fixes theta_b.
    Nodes of either that collect no coincidences, such as every node whose
    preparation is orthogonal to the input, come back as None (a real data
    hole, not an error).  Theory arrays hold the exact witness at the same
    nodes.
    """

    theta_a: float
    theta_b_profile: float
    theta_b_axis: np.ndarray
    theta_c_axis: np.ndarray
    surface: list[list[SEstimate | None]]
    profile: list[SEstimate | None]
    surface_theory: np.ndarray
    profile_theory: np.ndarray


def run_full_scan(
    cfg: ExperimentConfig,
    theta_a: float = 156.0,
    theta_b_profile: float = 126.0,
) -> FullScanResult:
    """Reconstruct the witness over the bench's acquisition grid.

    The preparation angle runs over [0, 180] in steps of ``cfg.p2_step``
    and the analyzer over [0, 180] in steps of twice ``cfg.hwp_step``.
    Surface nodes fix ``theta_a`` (defaulting to the grid node nearest the
    optimum); the profile additionally fixes theta_b.  Every required
    setting is simulated once and reused, and results are independent of
    evaluation order.
    """
    _finite("theta_a", theta_a)
    if not 0.0 <= theta_b_profile <= 180.0:
        raise ValueError(f"theta_b_profile must be in [0, 180], got {theta_b_profile!r}")
    meas_step = 2.0 * cfg.hwp_step
    # theta_b's axis below compares every preparation node with every
    # analyzer node, so that product is the grid to bound.
    _check_grid_size(
        np.ceil((180.0 + 0.5 * cfg.p2_step) / cfg.p2_step)
        * np.ceil((180.0 + 0.5 * meas_step) / meas_step)
    )
    prep_axis = np.arange(0.0, 180.0 + 0.5 * cfg.p2_step, cfg.p2_step)
    meas_axis = np.arange(0.0, 180.0 + 0.5 * meas_step, meas_step)
    # theta_b serves as both preparation and analysis angle, so its axis
    # is the part of the preparation grid that the analyzer can reach.
    theta_b_axis = np.array(
        [angle for angle in prep_axis if np.any(np.abs(meas_axis - angle) < 1e-9)]
    )
    theta_c_axis = meas_axis.copy()

    records: _Records = {}

    def witness_or_none(tb: float, tc: float) -> SEstimate | None:
        try:
            return _witness(cfg, records, theta_a, tb, tc)
        except InsufficientStatisticsError:
            return None

    surface = [[witness_or_none(tb, tc) for tc in theta_c_axis] for tb in theta_b_axis]
    profile = [witness_or_none(theta_b_profile, tc) for tc in theta_c_axis]

    surface_theory = np.array(
        [[s_quantum(AngleTriple(theta_a, tb, tc)) for tc in theta_c_axis] for tb in theta_b_axis]
    )
    profile_theory = np.array(
        [s_quantum(AngleTriple(theta_a, theta_b_profile, tc)) for tc in theta_c_axis]
    )

    return FullScanResult(
        theta_a=theta_a,
        theta_b_profile=theta_b_profile,
        theta_b_axis=theta_b_axis,
        theta_c_axis=theta_c_axis,
        surface=surface,
        profile=profile,
        surface_theory=surface_theory,
        profile_theory=profile_theory,
    )


def estimate_to_json(estimate: SEstimate) -> str:
    payload = {
        "value": estimate.value,
        "std_error": estimate.std_error,
        "sigma_violation": estimate.sigma_violation,
    }
    return json.dumps(payload) + "\n"


def _estimate_columns(est: SEstimate | None) -> tuple[float, float, float]:
    return (math.nan,) * 3 if est is None else (est.value, est.std_error, est.sigma_violation)


def _nodes_csv(names: list[str], axes: tuple[np.ndarray, ...], estimates, theory) -> str:
    # One row per node of the axes' product, in row-major order.
    numbers = itertools.chain.from_iterable(
        (*_estimate_columns(est), value) for est, value in zip(estimates, theory.ravel().tolist())
    )
    header = [*names, "s_sim", "std_error", "sigma", "s_theory"]
    return _csv(header, [axis.tolist() for axis in axes], numbers)


def full_scan_surface_csv(result: FullScanResult) -> str:
    """Surface nodes as rows: angles, simulated estimate, and theory.

    Nodes without coincidence data carry nan in the simulated columns.
    """
    axes = (result.theta_b_axis, result.theta_c_axis)
    estimates = itertools.chain.from_iterable(result.surface)
    return _nodes_csv(["theta_b", "theta_c"], axes, estimates, result.surface_theory)


def full_scan_profile_csv(result: FullScanResult) -> str:
    """Profile nodes as rows: angle, simulated estimate, and theory.

    Nodes without coincidence data carry nan in the simulated columns.
    """
    return _nodes_csv(["theta_c"], (result.theta_c_axis,), result.profile, result.profile_theory)
