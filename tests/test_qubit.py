"""Unit tests for the polarization algebra.

Expected probabilities are frozen from the closed trigonometric forms
(sin^2 / cos^2 of the orientation differences), which the implementation
never uses directly: it works through eigenvector overlaps, so the two
routes check each other.
"""
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmlab import qubit
from pmlab.qubit import (
    H,
    V,
    Outcome,
    PropertySetting,
    PureState,
    canonical_degrees,
    conditional_probability,
    eigenstate,
    joint_probability,
    marginal_probability,
    transition_probability,
)

ATOL = 1e-12

# sin^2(30) * cos^2(20) and sin^2(30) * sin^2(50), in degrees.
JOINT_20_THEN_50 = 0.2207555553898722
JOINT_50_THEN_20 = 0.14670602220836626


def plus(deg: float):
    return (PropertySetting.at(deg), Outcome.PLUS)


def minus(deg: float):
    return (PropertySetting.at(deg), Outcome.MINUS)


class TestCanonicalDegrees:
    def test_representative_range(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-1000.0, 1000.0, size=500):
            assert 0.0 <= canonical_degrees(x) < 180.0

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for x in rng.uniform(-1000.0, 1000.0, size=500):
            once = canonical_degrees(x)
            assert canonical_degrees(once) == once

    def test_period_exact_on_representable_angles(self):
        # Multiples of 0.25 survive the +180 shift without rounding.
        for x in np.arange(-720.0, 720.0, 0.25):
            assert canonical_degrees(x + 180.0) == canonical_degrees(x)

    def test_period_for_arbitrary_angles(self):
        rng = np.random.default_rng(9)
        for x in rng.uniform(-360.0, 360.0, size=500):
            assert canonical_degrees(x + 180.0) == pytest.approx(
                canonical_degrees(x), abs=1e-9
            ) or abs(canonical_degrees(x + 180.0) - canonical_degrees(x)) > 179.0

    def test_tiny_negative_does_not_escape_range(self):
        # -1e-15 % 180.0 rounds to 180.0; the canonical form must not.
        assert canonical_degrees(-1e-15) == 0.0

    def test_exact_landmarks(self):
        assert canonical_degrees(180.0) == 0.0
        assert canonical_degrees(360.0) == 0.0
        assert canonical_degrees(-90.0) == 90.0
        assert canonical_degrees(157.0) == 157.0


class TestTypes:
    def test_angle_canonicalizes(self):
        assert PropertySetting(190.0).orientation == 10.0
        assert PropertySetting(-10.0).orientation == 170.0

    def test_angle_rejects_non_finite(self):
        with pytest.raises(ValueError, match="orientation must be finite"):
            PropertySetting(math.inf)

    def test_outcome_has_exactly_two_values(self):
        assert {o.value for o in Outcome} == {1, -1}

    def test_pure_state_requires_normalization(self):
        with pytest.raises(ValueError):
            PureState(1.0, 1.0)
        with pytest.raises(ValueError, match="must be normalized"):
            PureState(1e200, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                PureState(bad, 0.0)
            with pytest.raises(ValueError):
                PureState(1.0, bad)
        PureState(math.sqrt(0.5), math.sqrt(0.5))

    @pytest.mark.parametrize("bad", [0.8j, complex(0.8, 0.0), np.complex128(0.8)])
    def test_pure_state_rejects_complex_amplitudes(self, bad):
        with pytest.raises(ValueError, match="amp_v must be a real number"):
            PureState(0.6, bad)
        with pytest.raises(ValueError, match="amp_h must be a real number"):
            PureState(bad, 0.6)

    def test_property_setting_orientation_is_canonical(self):
        assert PropertySetting.at(200.0).orientation == 20.0

    def test_property_settings_and_eigenstates_are_shared(self):
        prop = PropertySetting.at(20.0)
        assert PropertySetting.at(200.0) is prop
        assert eigenstate(PropertySetting.at(-160.0), Outcome.MINUS) is eigenstate(
            prop, Outcome.MINUS
        )
        assert 0 < qubit._property_at.cache_info().maxsize < 10**5

    def test_eigenstates_are_built_with_the_setting(self):
        prop = PropertySetting(200.0)
        assert eigenstate(prop, Outcome.PLUS) is prop._eigenstates[0]
        assert eigenstate(prop, Outcome.MINUS) == eigenstate(
            PropertySetting.at(20.0), Outcome.MINUS
        )
        assert prop == PropertySetting.at(20.0) and prop is not PropertySetting.at(20.0)
        assert repr(prop) == "PropertySetting(orientation=20.0)"

    def test_cached_eigenstates_are_not_fields(self):
        assert [f.name for f in dataclasses.fields(PropertySetting)] == ["orientation"]
        assert dataclasses.asdict(PropertySetting.at(30.0)) == {"orientation": 30.0}

    @pytest.mark.parametrize("degrees", [5.0, 20, np.float64(200.0), -160.0])
    def test_constructor_takes_degrees_as_a_float(self, degrees):
        prop = PropertySetting(degrees)
        assert type(prop.orientation) is float and prop == PropertySetting.at(degrees)

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda: transition_probability(1, H), "s1"),
            (lambda: transition_probability(H, 2), "s2"),
            (lambda: marginal_probability("H", (PropertySetting.at(0.0), Outcome.PLUS)), "initial"),
            (lambda: marginal_probability(H, 5), "prep"),
            (lambda: marginal_probability(H, (PropertySetting.at(0.0), 1)), "outcome"),
            (lambda: marginal_probability(H, (0.0, Outcome.PLUS)), "prop"),
            (lambda: marginal_probability(H, [PropertySetting.at(0.0), Outcome.PLUS]), "prep"),
            (lambda: conditional_probability(5, (PropertySetting.at(0.0), Outcome.PLUS)), "meas"),
            (lambda: conditional_probability((PropertySetting.at(0.0), Outcome.PLUS), ()), "prep"),
            (lambda: eigenstate(30.0, Outcome.PLUS), "prop"),
        ],
    )
    def test_wrong_argument_type_names_the_argument(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "20", True, None, [20.0]])
    def test_bad_orientation_raises_before_the_cache(self, bad):
        before = qubit._property_at.cache_info()
        with pytest.raises(ValueError):
            PropertySetting.at(bad)
        after = qubit._property_at.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


class TestEigenstate:
    def test_plus_at_zero_is_horizontal(self):
        state = eigenstate(PropertySetting.at(0.0), Outcome.PLUS)
        assert state.amp_h == pytest.approx(1.0, abs=ATOL)
        assert state.amp_v == pytest.approx(0.0, abs=ATOL)

    def test_plus_at_ninety_is_vertical(self):
        state = eigenstate(PropertySetting.at(90.0), Outcome.PLUS)
        assert abs(state.amp_h) == pytest.approx(0.0, abs=ATOL)
        assert state.amp_v == pytest.approx(1.0, abs=ATOL)

    def test_minus_at_fortyfive(self):
        state = eigenstate(PropertySetting.at(45.0), Outcome.MINUS)
        assert state.amp_h == pytest.approx(math.sqrt(0.5), abs=ATOL)
        assert state.amp_v == pytest.approx(-math.sqrt(0.5), abs=ATOL)

    @pytest.mark.parametrize(
        "bad", [0, 2, -2, True, False, 1.0, "1", None, pytest.param(10**400, id="10**400")]
    )
    def test_rejects_other_outcomes(self, bad):
        prop = PropertySetting.at(30.0)
        held = prop._eigenstates
        with pytest.raises(ValueError):
            eigenstate(prop, bad)
        assert prop._eigenstates is held

    @pytest.mark.parametrize("integer", [1, -1, np.int64(1), np.int64(-1)])
    def test_integer_outcomes_are_rejected(self, integer):
        # Only an Outcome selects an eigenstate, also where it equals the integer.
        prop = PropertySetting.at(30.0)
        with pytest.raises(ValueError, match="^outcome must be a"):
            eigenstate(prop, integer)
        with pytest.raises(ValueError, match="^outcome must be a"):
            conditional_probability((prop, integer), (prop, Outcome.PLUS))

    def test_outputs_normalized_and_orthogonal(self):
        rng = np.random.default_rng(11)
        for deg in rng.uniform(0.0, 180.0, size=200):
            prop = PropertySetting.at(deg)
            up = eigenstate(prop, Outcome.PLUS)
            down = eigenstate(prop, Outcome.MINUS)
            assert transition_probability(up, down) == pytest.approx(0.0, abs=ATOL)
            assert transition_probability(up, up) == pytest.approx(1.0, abs=ATOL)


def boxed_transition_probability(s1: PureState, s2: PureState) -> float:
    """The complex Born rule |<s1|s2>|^2, every amplitude boxed into complex first."""
    overlap = (
        complex(s1.amp_h).conjugate() * complex(s2.amp_h)
        + complex(s1.amp_v).conjugate() * complex(s2.amp_v)
    )
    return overlap.real**2 + overlap.imag**2


DEGREES = st.floats(-360.0, 360.0)
STATES = st.one_of(
    st.sampled_from([H, V]),
    st.builds(
        lambda deg, outcome: eigenstate(PropertySetting.at(deg), outcome),
        DEGREES,
        st.sampled_from(Outcome),
    ),
    st.builds(
        lambda deg: PureState(math.cos(math.radians(deg)), math.sin(math.radians(deg))),
        DEGREES,
    ),
)


class TestTransitionProbability:
    @given(s1=STATES, s2=STATES)
    def test_bit_identical_to_boxed_formula(self, s1, s2):
        p = transition_probability(s1, s2)
        assert type(p) is float
        assert p.hex() == boxed_transition_probability(s1, s2).hex()

    @pytest.mark.parametrize(
        "amps",
        [(1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5)), (np.float64(0.6), np.float64(-0.8))],
    )
    def test_real_amplitudes_are_stored_as_float(self, amps):
        state = PureState(*amps)
        assert type(state.amp_h) is float and type(state.amp_v) is float
        assert (state.amp_h, state.amp_v) == tuple(map(float, amps))
        p = transition_probability(state, eigenstate(PropertySetting.at(30.0), Outcome.PLUS))
        assert type(p) is float

    def test_identity_and_orthogonal(self):
        assert transition_probability(H, H) == pytest.approx(1.0, abs=ATOL)
        assert transition_probability(H, V) == pytest.approx(0.0, abs=ATOL)

    def test_diagonal_half(self):
        diag = eigenstate(PropertySetting.at(45.0), Outcome.PLUS)
        assert transition_probability(H, diag) == pytest.approx(0.5, abs=ATOL)

    def test_symmetric(self):
        rng = np.random.default_rng(12)
        states = [
            eigenstate(PropertySetting.at(deg), out)
            for deg in rng.uniform(0.0, 180.0, size=50)
            for out in (Outcome.PLUS, Outcome.MINUS)
        ]
        states.append(PureState(0.6, -0.8))
        states.append(PureState(0.28, math.sqrt(1 - 0.28**2)))
        for s1 in states[:10]:
            for s2 in states:
                assert transition_probability(s1, s2) == pytest.approx(
                    transition_probability(s2, s1), abs=ATOL
                )

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d1, d2 = rng.uniform(0.0, 180.0, size=2)
            p = transition_probability(
                eigenstate(PropertySetting.at(d1), Outcome.PLUS),
                eigenstate(PropertySetting.at(d2), Outcome.MINUS),
            )
            assert -ATOL <= p <= 1.0 + ATOL


class TestConditionalProbability:
    def test_fortyfive_degrees_apart(self):
        assert conditional_probability(minus(45.0), plus(0.0)) == pytest.approx(0.5, abs=ATOL)

    def test_same_orientation_opposite_outcomes(self):
        assert conditional_probability(minus(30.0), plus(30.0)) == pytest.approx(0.0, abs=ATOL)

    def test_thirty_degrees_apart(self):
        # sin^2(30 deg) by the closed form.
        assert conditional_probability(minus(50.0), plus(20.0)) == pytest.approx(0.25, abs=ATOL)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            tp, tm = rng.uniform(0.0, 180.0, size=2)
            expect = math.sin(math.radians(tm - tp)) ** 2
            assert conditional_probability(minus(tm), plus(tp)) == pytest.approx(
                expect, abs=ATOL
            )

    def test_outcomes_complete(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            tp, tm = rng.uniform(0.0, 180.0, size=2)
            prep = plus(tp)
            total = conditional_probability(minus(tm), prep) + conditional_probability(
                (PropertySetting.at(tm), Outcome.PLUS), prep
            )
            assert total == pytest.approx(1.0, abs=ATOL)


class TestMarginalProbability:
    def test_aligned(self):
        assert marginal_probability(H, plus(0.0)) == pytest.approx(1.0, abs=ATOL)

    def test_crossed(self):
        assert marginal_probability(H, plus(90.0)) == pytest.approx(0.0, abs=ATOL)

    def test_sixty(self):
        # cos^2(60 deg)
        assert marginal_probability(H, plus(60.0)) == pytest.approx(0.25, abs=ATOL)


class TestJointProbability:
    def test_zero_then_fortyfive(self):
        assert joint_probability(H, plus(0.0), minus(45.0)) == pytest.approx(0.5, abs=ATOL)

    def test_twenty_then_fifty(self):
        assert joint_probability(H, plus(20.0), minus(50.0)) == pytest.approx(
            JOINT_20_THEN_50, abs=ATOL
        )

    def test_fifty_then_twenty_differs(self):
        # Reversed stage order: the marginal becomes sin^2(50 deg).
        assert joint_probability(H, minus(50.0), plus(20.0)) == pytest.approx(
            JOINT_50_THEN_20, abs=ATOL
        )

    def test_order_asymmetry_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            tp, tm = rng.uniform(0.0, 180.0, size=2)
            forward = joint_probability(H, plus(tp), minus(tm))
            backward = joint_probability(H, minus(tm), plus(tp))
            gap = math.sin(math.radians(tm - tp)) ** 2 * (
                math.cos(math.radians(tp)) ** 2 - math.sin(math.radians(tm)) ** 2
            )
            assert forward - backward == pytest.approx(gap, abs=ATOL)

    def test_order_symmetric_on_equality_loci(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            tp = rng.uniform(0.0, 180.0)
            for tm in (tp, tp + 180.0, 90.0 - tp, 90.0 + tp):
                forward = joint_probability(H, plus(tp), minus(tm))
                backward = joint_probability(H, minus(tm), plus(tp))
                assert forward == pytest.approx(backward, abs=ATOL)

    def test_asymmetry_off_the_loci(self):
        assert joint_probability(H, plus(20.0), minus(50.0)) != pytest.approx(
            joint_probability(H, minus(50.0), plus(20.0)), abs=1e-3
        )


class TestPeriodicity:
    def test_probabilities_invariant_under_half_turn(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            tp, tm = rng.uniform(0.0, 180.0, size=2)
            base = joint_probability(H, plus(tp), minus(tm))
            assert joint_probability(H, plus(tp + 180.0), minus(tm)) == pytest.approx(
                base, abs=ATOL
            )
            assert joint_probability(H, plus(tp), minus(tm + 180.0)) == pytest.approx(
                base, abs=ATOL
            )
