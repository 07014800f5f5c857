"""Exact two-level polarization algebra for prepare-and-measure schemes.

Everything in this module is closed-form quantum mechanics on pure linear
polarization states: no sampling, no iteration, no approximation beyond
double precision.  Orientations are polarizer angles in degrees, defined
modulo 180; conversion to radians happens only inside the trigonometric
evaluations.
"""
from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from enum import IntEnum

__all__ = [
    "H",
    "V",
    "Outcome",
    "PropertySetting",
    "PureState",
    "canonical_degrees",
    "conditional_probability",
    "eigenstate",
    "joint_probability",
    "marginal_probability",
    "transition_probability",
]

# Pure double-precision arithmetic throughout, so identities hold to
# round-off and nothing looser is ever needed.
PROBABILITY_ATOL = 1e-12
_LARGEST = sys.float_info.max
#: Settings kept by the cache below: a 0.1 degree grid has 1,800 orientations.
_CACHE_SIZE = 4096


def _number(name, value, low=-_LARGEST, high=_LARGEST, strict=False, integer=False):
    """Check one number argument; return it as a float, or an int with ``integer``.

    Accepts a real number (an integer with ``integer``) other than a bool,
    finite as a float, in [low, high], or (low, high] when ``strict``.
    Anything else raises ValueError naming ``name``.
    """
    # For hot loops: floats (np.float64 too) and, in integer mode, exact ints
    # come first, and no parameter is keyword-only, which would slow every
    # call in CPython.
    if isinstance(value, float) and not integer:
        number = float(value)
    elif integer and value.__class__ is int:
        number = value
    elif isinstance(value, numbers.Integral if integer else numbers.Real) and not isinstance(
        value, bool
    ):
        try:
            number = int(value) if integer else float(value)
        except OverflowError:  # an int too large for a float
            number = math.inf
    else:
        kind = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    # Finite bounds, the defaults included, also reject nan and infinities.
    if (low < number if strict else low <= number) and number <= high:
        return number
    if not abs(number) <= _LARGEST:
        raise ValueError(f"{name} must be finite, got {value!r}")
    interval = f"{'(' if strict else '['}{low:g}, {f'{high:g}]' if high < _LARGEST else 'inf)'}"
    rule = f"must be an integer in {interval}, got" if integer else f"out of {interval}:"
    raise ValueError(f"{name} {rule} {number!r}")


def _instance(name, value, cls):
    """Check that an argument is a ``cls``; return it, else raise ValueError naming ``name``."""
    if isinstance(value, cls):
        return value
    raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")


def canonical_degrees(value: float) -> float:
    """Map an orientation in degrees to its representative in [0, 180).

    Idempotent, and invariant under adding any multiple of 180.
    """
    rem = float(value) % 180.0
    # x % 180.0 can round up to exactly 180.0 for tiny negative x.
    return 0.0 if rem >= 180.0 else rem


class Outcome(IntEnum):
    """Eigenvalue of a dichotomic polarization property."""

    PLUS = 1
    MINUS = -1


@dataclass(frozen=True)
class PropertySetting:
    """Dichotomic observable whose +1 eigenstate lies along ``orientation``.

    ``orientation`` is a polarizer angle in degrees, stored canonically in
    [0, 180).  The -1 eigenstate lies along the orthogonal direction, 90
    degrees away; both are built on first use and held for
    :func:`eigenstate`.
    """

    orientation: float

    def __post_init__(self) -> None:
        degrees = canonical_degrees(_number("orientation", self.orientation))
        object.__setattr__(self, "orientation", degrees)

    @functools.cached_property
    def _eigenstates(self) -> tuple[PureState, PureState]:
        # Not a field, so dataclasses.fields and asdict see the orientation only.
        theta = math.radians(self.orientation)
        cos, sin = math.cos(theta), math.sin(theta)
        return PureState(cos, sin), PureState(sin, -cos)

    @classmethod
    def at(cls, degrees: float) -> "PropertySetting":
        """The shared setting at ``degrees``, checked and made canonical as by the constructor."""
        return _property_at(canonical_degrees(_number("orientation", degrees)))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _property_at(degrees: float) -> PropertySetting:
    # Keyed on a checked, canonical orientation; frozen, so safe to share.
    return PropertySetting(degrees)


@dataclass(frozen=True)
class PureState:
    """Normalized linear polarization state ``amp_h |H> + amp_v |V>``.

    Both amplitudes must be real numbers, not complex; they are stored as ``float``.
    """

    amp_h: float
    amp_v: float

    def __post_init__(self) -> None:
        for name in ("amp_h", "amp_v"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        norm = self.amp_h * self.amp_h + self.amp_v * self.amp_v
        if not abs(norm - 1.0) <= PROBABILITY_ATOL:
            raise ValueError(f"state must be normalized, got |amp|^2 = {norm!r}")


#: Horizontal and vertical basis states.
H = PureState(1.0, 0.0)
V = PureState(0.0, 1.0)

#: A projective filter event: which property, and which of its two outcomes.
Projection = tuple[PropertySetting, Outcome]


def eigenstate(prop: PropertySetting, outcome: Outcome) -> PureState:
    """Eigenstate of a linear-polarization property for the given outcome.

    For orientation theta the +1 eigenstate is (cos theta, sin theta) and
    the -1 eigenstate is (sin theta, -cos theta); the two are orthogonal,
    and ``prop`` holds both.  ``outcome`` must be an Outcome, else ValueError.
    """
    plus, minus = _instance("prop", prop, PropertySetting)._eigenstates
    return plus if _instance("outcome", outcome, Outcome) is Outcome.PLUS else minus


def _projected(name: str, projection: Projection) -> PureState:
    # A Projection's eigenstate: its shape is checked here, its items by eigenstate.
    if isinstance(projection, tuple) and len(projection) == 2:
        return eigenstate(*projection)
    raise ValueError(f"{name} must be a (PropertySetting, Outcome) pair, got {projection!r}")


def _born(s1: PureState, s2: PureState) -> float:
    return (s1.amp_h * s2.amp_h + s1.amp_v * s2.amp_v) ** 2


def transition_probability(s1: PureState, s2: PureState) -> float:
    """Born probability <s1|s2>^2 of two real states, symmetric in its arguments."""
    return _born(_instance("s1", s1, PureState), _instance("s2", s2, PureState))


def conditional_probability(meas: Projection, prep: Projection) -> float:
    """Probability of the measurement outcome given the prepared eigenstate.

    For measuring minus at theta_m on a plus preparation at theta_p this
    equals sin^2(theta_m - theta_p).
    """
    return _born(_projected("meas", meas), _projected("prep", prep))


def marginal_probability(initial: PureState, prep: Projection) -> float:
    """Probability that ``initial`` passes the preparation projector.

    The conventional choice of input state is :data:`H`, for which a plus
    preparation at theta_p passes with probability cos^2(theta_p).
    """
    return _born(_projected("prep", prep), _instance("initial", initial, PureState))


def joint_probability(initial: PureState, first: Projection, second: Projection) -> float:
    """Probability of preparing ``first`` and then measuring ``second``.

    Chain rule for the two sequential projections: marginal of the
    preparation times the conditional of the measurement given it.  The
    stage order matters; swapping ``first`` and ``second`` generally
    changes the value.
    """
    return marginal_probability(initial, first) * conditional_probability(second, first)
