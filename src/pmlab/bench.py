"""Virtual counting bench for the heralded single-photon scheme.

Simulates, setting by setting, the chain trigger-detector / polarizer /
half-wave-plate / polarizing splitter with seeded Poisson draws, then
turns the recorded singles and coincidences back into joint
probabilities and a witness estimate with propagated counting errors.

Counts are drawn in aggregate, not one random number per photon: every
stage of the chain thins a Poisson stream of pairs, so each photon
category a record needs is an independent Poisson count with a
closed-form mean (the colouring theorem; Kingman, Poisson Processes, 1993).
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .landscape import AngleTriple, _check_grid_size, _csv, s_quantum
from .qubit import (
    H,
    Outcome,
    PropertySetting,
    _instance,
    _number,
    canonical_degrees,
    conditional_probability,
    marginal_probability,
)

__all__ = [
    "ConfigError",
    "CountRecord",
    "EstimatedProbability",
    "ExperimentConfig",
    "FullScanResult",
    "InsufficientStatisticsError",
    "SEstimate",
    "Setting",
    "accidental_estimate",
    "estimate_S",
    "estimate_joint",
    "run_full_scan",
    "simulate_setting",
]


#: Largest mean count the bench draws, a ninth of what numpy's sampler takes.
_MAX_MEAN = 1e18


def _high_count(mean: float) -> float:
    # Ten standard deviations and ten counts above a Poisson mean; 0 stays 0.
    return mean + 10.0 * math.sqrt(mean) + 10.0 if mean > 0.0 else 0.0


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

    heralded_rate: float = field(default=50_000.0, metadata={"low": 0.0})
    integration_time: float = field(default=1.0, metadata={"low": 0.0, "strict": True})
    eff_d1: float = field(default=0.6, metadata={"low": 0.0, "high": 1.0})
    eff_d2: float = field(default=0.6, metadata={"low": 0.0, "high": 1.0})
    eff_d3: float = field(default=0.6, metadata={"low": 0.0, "high": 1.0})
    dark_rate_d1: float = field(default=200.0, metadata={"low": 0.0})
    dark_rate_d2: float = field(default=200.0, metadata={"low": 0.0})
    dark_rate_d3: float = field(default=200.0, metadata={"low": 0.0})
    coincidence_window: float = field(default=9e-9, metadata={"low": 0.0, "strict": True})
    p2_step: float = field(default=6.0, metadata={"low": 0.0, "strict": True})
    hwp_step: float = field(default=3.0, metadata={"low": 0.0, "strict": True})
    rng_seed: int = field(default=0, metadata={"low": 0, "integer": True})

    def __post_init__(self) -> None:
        # Each field's metadata holds its bounds, as keywords to qubit._number.
        for f in fields(self):
            try:
                value = _number(f.name, getattr(self, f.name), **f.metadata)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            object.__setattr__(self, f.name, value)
        # numpy's Poisson sampler refuses means above about 9.2e18.  The
        # accidental means scale with drawn counts, so those are taken far in
        # their tails.
        time = self.integration_time
        triggers = _high_count(self.heralded_rate * time * self.eff_d3)
        means = {"heralded_rate * integration_time": self.heralded_rate * time}
        for k in (1, 2, 3):
            dark = getattr(self, f"dark_rate_d{k}") * time
            means[f"dark_rate_d{k} * integration_time"] = dark
            if k < 3:
                factors = f"dark_rate_d{k} * heralded_rate * eff_d3 * coincidence_window"
                means[f"{factors} * integration_time"] = (
                    _high_count(dark) * triggers * self.coincidence_window / time
                )
        for product, mean in means.items():
            if not mean <= _MAX_MEAN:
                raise ConfigError(
                    f"{product} asks for Poisson means up to {mean:.4g}, above {_MAX_MEAN:g}"
                )

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
        if not isinstance(mapping, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(map(str, mapping.keys() - known))
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**mapping)

    @classmethod
    def from_json(cls, document: str) -> "ExperimentConfig":
        try:
            payload = json.loads(document)
        except (ValueError, TypeError) as exc:
            # A JSONDecodeError, an integer past the interpreter's digit
            # limit, or a document that is not a string.
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError("config JSON nests too deeply") from None
        return cls.from_mapping(payload)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


@dataclass(frozen=True)
class Setting:
    """One acquisition setting: polarizer orientation and wave-plate angle.

    The polarizer orientation is stored canonically in [0, 180), so
    physically equal settings compare equal.  The analyzer orientation is
    twice the wave-plate fast-axis angle, so a plate scanned over [0, 90]
    covers the full [0, 180] analyzer range.
    """

    theta_prep: float
    hwp_angle: float

    def __post_init__(self) -> None:
        theta_prep = canonical_degrees(_number("theta_prep", self.theta_prep))
        object.__setattr__(self, "theta_prep", theta_prep)
        object.__setattr__(self, "hwp_angle", _number("hwp_angle", self.hwp_angle, 0.0, 90.0))

    @property
    def theta_meas(self) -> float:
        return 2.0 * self.hwp_angle

    @classmethod
    def for_angles(cls, theta_prep: float, theta_meas: float) -> "Setting":
        """Setting that prepares at ``theta_prep`` and analyzes at ``theta_meas``."""
        return cls(theta_prep, _number("theta_meas", theta_meas, 0.0, 180.0) / 2.0)


_COUNT_FIELDS = ("singles_d1", "singles_d2", "singles_d3", "coinc_13", "coinc_23")


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

    def __post_init__(self) -> None:
        # Counts integers >= 0, duration positive; checked but not stored
        # back, like the estimate records below.
        for name in _COUNT_FIELDS:
            _number(name, getattr(self, name), 0, integer=True)
        _number("duration", self.duration, 0.0, strict=True)
        _instance("setting", self.setting, Setting)


@dataclass(frozen=True, slots=True)
class _Estimate:
    """A value with its propagated standard error."""

    value: float
    std_error: float

    def __post_init__(self) -> None:
        # Checked but not stored back: scans build ~10**5 estimates.
        _number("value", self.value)
        _number("std_error", self.std_error, 0.0)


class EstimatedProbability(_Estimate):
    """A probability estimate with its propagated standard error.

    The estimator is deliberately not clamped; counting noise can push it
    slightly outside [0, 1].
    """

    __slots__ = ()


class SEstimate(_Estimate):
    """Witness estimate with propagated error and violation significance."""

    __slots__ = ()

    @property
    def sigma_violation(self) -> float:
        """How many standard errors below zero; 0 for non-negative values."""
        if self.value >= 0.0:
            return 0.0
        if self.std_error == 0.0:
            return math.inf
        return abs(self.value) / self.std_error


@functools.lru_cache(maxsize=16)
def _philox_key(seed: int) -> tuple[int, int]:
    # A tuple, so the cached key cannot be changed through a caller.
    return tuple(np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist())


class _Stream(threading.local):
    """One Philox generator per thread, re-keyed for every setting.

    A setting's stream is Philox4x64 under the config's key with the
    counter (0, 0, preparation, plate), both angles canonical and
    micro-degree quantized, and an empty buffer.  Drawing advances only
    the low counter word, so distinct settings run on disjoint counter
    ranges and a record depends on neither scan order nor thread.  Each
    thread builds its generator on its first setting, so importing the
    module does not load ``numpy.random``.
    """

    rng: np.random.Generator | None = None

    def keyed(self, seed: int, setting: Setting) -> np.random.Generator:
        if self.rng is None:
            self.rng = np.random.Generator(np.random.Philox(key=0))
        counter = [0, 0, round(setting.theta_prep * 1e6), round(setting.hwp_angle * 1e6)]
        self.rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": _philox_key(seed)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self.rng


_STREAM = _Stream()


def simulate_setting(cfg: ExperimentConfig, setting: Setting) -> CountRecord:
    """Simulate one acquisition setting of the virtual bench.

    Heralded pairs arrive as a Poisson stream of mean ``N``, the heralded
    rate times the integration time.  Each horizontal photon passes the
    polarizer with the exact quantum marginal ``p``, is routed to d1 with
    the exact conditional ``q`` for the minus port, and survives its
    detector efficiency.  Every stage thins a Poisson stream, so the five
    photon categories the record needs are independent Poisson counts,
    drawn in this order: trigger and d1 (mean ``N e3 p q e1``), trigger and
    d2 (``N e3 p (1 - q) e2``), trigger and neither (the trigger's
    remainder), d1 and d2 without a trigger (``1 - e3`` for ``e3``), then
    the dark counts of d1, d2 and the trigger.  Only trigger-seen photons
    can coincide.  The accidentals, drawn last, pair each dark count with
    the trigger singles at the cross-rate within the coincidence window.
    Identical (config, setting) pairs yield bit-identical records.
    """
    cfg = _instance("cfg", cfg, ExperimentConfig)
    setting = _instance("setting", setting, Setting)
    rng = _STREAM.keyed(cfg.rng_seed, setting)
    duration = cfg.integration_time

    prep = (PropertySetting.at(setting.theta_prep), Outcome.PLUS)
    meas = (PropertySetting.at(setting.theta_meas), Outcome.MINUS)
    p = marginal_probability(H, prep)
    # A squared overlap can exceed 1 by a couple of ulps, never go below 0.
    q = min(conditional_probability(meas, prep), 1.0)
    # Shares of the pairs that reach d1, d2 or neither.  The sampler refuses
    # a negative mean, so the remainder is kept from rounding below 0.
    to_d1 = p * q * cfg.eff_d1
    to_d2 = p * (1.0 - q) * cfg.eff_d2
    to_none = max(1.0 - to_d1 - to_d2, 0.0)
    triggered = cfg.heralded_rate * duration * cfg.eff_d3
    untriggered = cfg.heralded_rate * duration * (1.0 - cfg.eff_d3)
    means = (
        triggered * to_d1, triggered * to_d2, triggered * to_none,
        untriggered * to_d1, untriggered * to_d2,
        cfg.dark_rate_d1 * duration, cfg.dark_rate_d2 * duration, cfg.dark_rate_d3 * duration,
    )  # fmt: skip
    trig_d1, trig_d2, trig_none, rest_d1, rest_d2, dark1, dark2, dark3 = map(rng.poisson, means)
    n_trig = trig_d1 + trig_d2 + trig_none
    acc_scale = cfg.coincidence_window / duration
    acc_13, acc_23 = (rng.poisson(dark * n_trig * acc_scale) for dark in (dark1, dark2))

    return CountRecord(
        singles_d1=trig_d1 + rest_d1 + dark1,
        singles_d2=trig_d2 + rest_d2 + dark2,
        singles_d3=n_trig + dark3,
        coinc_13=trig_d1 + acc_13,
        coinc_23=trig_d2 + acc_23,
        setting=setting,
        duration=duration,
    )


def accidental_estimate(record: CountRecord, window: float) -> tuple[float, float]:
    """Expected accidental coincidences per channel, from the singles.

    Uncorrelated streams at the recorded singles rates coincide at the
    cross-rate times the window; this is the standard lab-side correction.
    """
    record = _instance("record", record, CountRecord)
    scale = _number("window", window, 0.0) / record.duration
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

    The joint is the record's minus-port coincidences over the total
    coincidences of the reference, taken with the polarizer at 0 degrees
    (where the horizontal input passes untouched) and the same analyzer
    setting: ``v = c13 / total_ref``, the chain rule's conditional fraction
    times marginal with the record's total cancelled.  Its error, the
    ratio's first-order Poisson error ``sqrt(v (1 + v) / total_ref)``,
    equals the fraction's binomial and the marginal's Poisson errors in
    quadrature.

    No accidental subtraction happens by default; pass the coincidence
    window as ``subtract_window`` to remove the singles cross-rate
    estimate from every channel first.
    """
    record = _instance("record", record, CountRecord)
    reference = _instance("reference", reference, CountRecord)
    if reference.setting.theta_prep != 0.0:
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

    value = c13 / total_ref
    return EstimatedProbability(value=value, std_error=math.sqrt(value * (1.0 + value) / total_ref))


def _joint(cfg, joints, references, prep: float, meas: float) -> EstimatedProbability | None:
    """One joint's estimate, or None when it has no coincidences.

    ``joints`` maps each (canonical preparation, analyzer) to what its joint
    gave: the estimate or its InsufficientStatisticsError's message.
    ``references`` keeps the zero-angle record per analyzer; any other
    record is dropped once its joint is known.
    """
    meas = float(meas)
    prep = canonical_degrees(prep)
    joint = joints.get((prep, meas))
    if joint is None:
        reference = references.get(meas)
        if reference is None:
            reference = references[meas] = simulate_setting(cfg, Setting.for_angles(0.0, meas))
        # A preparation at 0 degrees is its own reference record.
        if prep == 0.0:
            record = reference
        else:
            record = simulate_setting(cfg, Setting.for_angles(prep, meas))
        try:
            joint = estimate_joint(record, reference)
        except InsufficientStatisticsError as error:
            joint = str(error)
        joints[prep, meas] = joint
    return None if isinstance(joint, str) else joint


def _witness(cfg, joints, references, a: float, b: float, c: float) -> SEstimate | None:
    # Joints in witness order: plus-a then minus-b, plus-b then minus-c,
    # plus-a then minus-c; errors combine in quadrature.  The first joint
    # without coincidences (None) makes the node a hole and ends it.
    j_ab = _joint(cfg, joints, references, a, b)
    j_bc = j_ab and _joint(cfg, joints, references, b, c)
    j_ac = j_bc and _joint(cfg, joints, references, a, c)
    if j_ac is None:
        return None
    value = j_ab.value + j_bc.value - j_ac.value
    std_error = math.sqrt(j_ab.std_error**2 + j_bc.std_error**2 + j_ac.std_error**2)
    return SEstimate(value=value, std_error=std_error)


def estimate_S(cfg: ExperimentConfig, triple: AngleTriple) -> SEstimate:
    """Witness estimate at the given orientations from simulated counts.

    Runs the bench for the three preparation/analysis pairs plus their
    zero-angle references, combines the joint estimates, and propagates
    the three errors in quadrature.
    """
    cfg = _instance("cfg", cfg, ExperimentConfig)
    triple = _instance("triple", triple, AngleTriple)
    joints = {}
    estimate = _witness(cfg, joints, {}, *triple.as_tuple())
    if estimate is None:
        # The witness stops at its first failing joint, the one message cached.
        raise InsufficientStatisticsError(next(j for j in joints.values() if isinstance(j, str)))
    return estimate


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

    The preparation angle runs from 0 in steps of ``cfg.p2_step`` and the
    analyzer in steps of twice ``cfg.hwp_step``, each to its last node at
    or below 180.  Surface nodes fix ``theta_a`` (defaulting to the grid
    node nearest the optimum); the profile additionally fixes theta_b.
    Every required setting is simulated once and each joint estimated
    once, and results are independent of evaluation order.

    Rows, the profile's too, run sorted by preparation.  Beyond its result
    the scan holds theta_a's joints, one zero-angle reference per analyzer
    and the joints of the preparation it is on: memory that grows with the
    analyzer axis, not the grid.
    """
    cfg = _instance("cfg", cfg, ExperimentConfig)
    theta_a = _number("theta_a", theta_a)
    theta_b_profile = _number("theta_b_profile", theta_b_profile, 0.0, 180.0)
    steps = (cfg.p2_step, 2.0 * cfg.hwp_step)
    # Each axis takes nodes i * step, i < size, and drops those past 180.
    # theta_b's axis below compares every preparation node with every
    # analyzer node, so that product is the grid to bound.
    sizes = [np.ceil((180.0 + 0.5 * step) / step) for step in steps]
    _check_grid_size(sizes[0] * sizes[1])
    axes = [np.arange(size) * step for size, step in zip(sizes, steps)]
    prep_axis, theta_c_axis = (nodes[nodes <= 180.0] for nodes in axes)
    # theta_b serves as both preparation and analysis angle, so its axis
    # is the part of the preparation grid that the analyzer can reach.
    theta_b_axis = np.array(
        [angle for angle in prep_axis if np.any(np.abs(theta_c_axis - angle) < 1e-9)]
    )

    # Rows that prepare alike (0 and 180 among them) run back to back, so
    # each joint is estimated once though only two preparations' are kept.
    rows = (*theta_b_axis, theta_b_profile)
    prep_a = canonical_degrees(theta_a)
    joints, references = {}, {}
    estimates = [None] * len(rows)
    theory = np.empty((len(rows), theta_c_axis.size))
    for i, tb in sorted(enumerate(rows), key=lambda row: canonical_degrees(row[1])):
        kept = (prep_a, canonical_degrees(tb))
        joints = {key: joint for key, joint in joints.items() if key[0] in kept}
        estimates[i] = [_witness(cfg, joints, references, theta_a, tb, tc) for tc in theta_c_axis]
        theory[i] = [s_quantum(AngleTriple(theta_a, tb, tc)) for tc in theta_c_axis]

    return FullScanResult(
        theta_a=theta_a,
        theta_b_profile=theta_b_profile,
        theta_b_axis=theta_b_axis,
        theta_c_axis=theta_c_axis,
        surface=estimates[:-1],
        profile=estimates[-1],
        surface_theory=theory[:-1],
        profile_theory=theory[-1],
    )


def estimate_to_json(estimate: SEstimate) -> str:
    estimate = _instance("estimate", estimate, SEstimate)
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
        (*_estimate_columns(est), value) for est, value in zip(estimates, theory.flat)
    )
    header = [*names, "s_sim", "std_error", "sigma", "s_theory"]
    return _csv(header, [axis.tolist() for axis in axes], numbers)


def full_scan_surface_csv(result: FullScanResult) -> str:
    """Surface nodes as rows: angles, simulated estimate, and theory.

    Nodes without coincidence data carry nan in the simulated columns.
    """
    result = _instance("result", result, FullScanResult)
    axes = (result.theta_b_axis, result.theta_c_axis)
    estimates = itertools.chain.from_iterable(result.surface)
    return _nodes_csv(["theta_b", "theta_c"], axes, estimates, result.surface_theory)


def full_scan_profile_csv(result: FullScanResult) -> str:
    """Profile nodes as rows: angle, simulated estimate, and theory.

    Nodes without coincidence data carry nan in the simulated columns.
    """
    result = _instance("result", result, FullScanResult)
    return _nodes_csv(["theta_c"], (result.theta_c_axis,), result.profile, result.profile_theory)
