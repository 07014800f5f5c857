"""Unit tests for the classical ensemble model and feasibility fitter.

The independent oracle here is plain enumeration over sign tuples,
written out in the tests without touching the module's own indicator
machinery.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlab.classical import (
    ALL_STATES,
    PAIR_AB,
    PAIR_AC,
    PAIR_BC,
    ClassicalEnsemble,
    GeneralizedState,
    JointTriple,
    Property,
    atom_joint,
    classical_bound_holds,
    ensemble_joint,
    enumerate_vertices,
    fit_classical,
    joint_triple,
    random_ensemble,
    s_classical,
)
from pmlab.qubit import Outcome

P, M = Outcome.PLUS, Outcome.MINUS

# Witness components of the quantum optimum orientations, from the closed
# trigonometric forms; they break the classical bound by a wide margin.
QUANTUM_P_AB = 0.2581256482414399
QUANTUM_P_BC = 0.15763301212073777
QUANTUM_P_AC = 0.8191895636797903


def reference_joint(ens: ClassicalEnsemble, pair) -> float:
    """Weight times the atom indicator, summed over all eight states in order."""
    return sum(w * atom_joint(state, pair) for state, w in ens.weights.items())


# Ensembles for the bit-exact properties: Dirichlet draws from any seed,
# and normalized raw weights, which hit exact zeros and point masses.
ensembles = st.one_of(
    st.integers(0, 2**63 - 1).map(lambda seed: random_ensemble(np.random.default_rng(seed))),
    st.lists(st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0.0, 1.0), min_size=8, max_size=8)
    .filter(lambda raw: sum(raw) > 0.0)
    .map(lambda raw: ClassicalEnsemble.from_weights(np.array(raw) / sum(raw))),
)


def oracle_vertex_witness(alpha: int, beta: int, gamma: int) -> int:
    """Brute-force witness of a definite assignment from raw signs."""
    p_ab = 1 if (alpha, beta) == (1, -1) else 0
    p_bc = 1 if (beta, gamma) == (1, -1) else 0
    p_ac = 1 if (alpha, gamma) == (1, -1) else 0
    return p_ab + p_bc - p_ac


class TestGeneralizedState:
    def test_exactly_eight_distinct(self):
        assert len(ALL_STATES) == 8
        assert len(set(ALL_STATES)) == 8

    def test_outcome_lookup(self):
        state = GeneralizedState(P, M, M)
        assert state.outcome_of(Property.A) is P
        assert state.outcome_of(Property.B) is M
        assert state.outcome_of(Property.C) is M

    def test_label(self):
        assert GeneralizedState(P, M, M).label() == "(a+ b- c-)"


class TestAtomJoint:
    def test_direct_match(self):
        state = GeneralizedState(P, M, M)
        assert atom_joint(state, ((Property.A, P), (Property.B, M))) == 1.0

    def test_mismatch(self):
        state = GeneralizedState(P, M, M)
        assert atom_joint(state, ((Property.B, P), (Property.C, M))) == 0.0

    def test_third_property_irrelevant(self):
        state = GeneralizedState(M, P, M)
        assert atom_joint(state, ((Property.B, P), (Property.C, M))) == 1.0

    def test_rejects_repeated_property(self):
        state = GeneralizedState(P, P, P)
        with pytest.raises(ValueError):
            atom_joint(state, ((Property.A, P), (Property.A, M)))

    def test_matches_sign_oracle(self):
        for state in ALL_STATES:
            signs = {"a": int(state.alpha), "b": int(state.beta), "c": int(state.gamma)}
            for (x, y) in itertools.permutations("abc", 2):
                px = Property(x)
                py = Property(y)
                expect = 1.0 if signs[x] == 1 and signs[y] == -1 else 0.0
                assert atom_joint(state, ((px, P), (py, M))) == expect


class TestClassicalEnsemble:
    def test_point_mass_and_uniform(self):
        pm_ens = ClassicalEnsemble.point_mass(ALL_STATES[0])
        assert pm_ens.weights[ALL_STATES[0]] == 1.0
        uniform = ClassicalEnsemble.uniform()
        assert sum(uniform.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            ClassicalEnsemble({ALL_STATES[0]: 0.5})  # sums to 0.5
        with pytest.raises(ValueError):
            ClassicalEnsemble({ALL_STATES[0]: 1.5, ALL_STATES[1]: -0.5})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ClassicalEnsemble({"not a state": 1.0})

    def test_from_weights_needs_eight(self):
        with pytest.raises(ValueError):
            ClassicalEnsemble.from_weights([1.0])

    def test_rejects_out_of_range_canonical_weights(self):
        weights = dict(zip(ALL_STATES, [1.5, -0.5] + [0.0] * 6))
        with pytest.raises(ValueError, match=r"weight for \(a\+ b\+ c\+\) out of \[0, 1\]"):
            ClassicalEnsemble(weights)
        with pytest.raises(ValueError, match="must sum to 1"):
            ClassicalEnsemble(dict(zip(ALL_STATES, [0.5] + [0.0] * 7)))

    def test_canonical_mapping_is_copied_not_shared(self):
        weights = dict(zip(ALL_STATES, [0.25, 0.75] + [0.0] * 6))
        ens = ClassicalEnsemble(weights)
        weights[ALL_STATES[0]] = 1.0
        assert ens.weights[ALL_STATES[0]] == 0.25

    def test_weights_become_plain_floats_in_canonical_order(self):
        for ens in (
            ClassicalEnsemble(dict(zip(reversed(ALL_STATES), [0.0] * 7 + [1.0]))),
            ClassicalEnsemble(dict(zip(ALL_STATES, [np.float64(1.0)] + [0.0] * 7))),
            ClassicalEnsemble(dict(zip(ALL_STATES, [1] + [0] * 7))),
            ClassicalEnsemble.from_weights(np.eye(8)[0]),
        ):
            assert tuple(ens.weights) == ALL_STATES
            assert all(type(w) is float for w in ens.weights.values())
            assert ens.weights[ALL_STATES[0]] == 1.0

    def test_weight_vector_order(self):
        ens = ClassicalEnsemble.point_mass(ALL_STATES[3])
        vec = ens.weight_vector()
        assert vec[3] == 1.0 and vec.sum() == 1.0


class TestEnsembleJoint:
    def test_point_mass(self):
        ens = ClassicalEnsemble.point_mass(GeneralizedState(P, M, M))
        assert ensemble_joint(ens, PAIR_AC) == 1.0

    def test_uniform_quarter(self):
        # 2 of the 8 assignments carry (a+, b-).
        assert ensemble_joint(ClassicalEnsemble.uniform(), PAIR_AB) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_all_minus_point_mass(self):
        ens = ClassicalEnsemble.point_mass(GeneralizedState(M, M, M))
        assert ensemble_joint(ens, PAIR_AB) == 0.0
        assert ensemble_joint(ens, PAIR_BC) == 0.0
        assert ensemble_joint(ens, PAIR_AC) == 0.0

    def test_order_symmetric(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            ens = random_ensemble(rng)
            for (x, y) in itertools.permutations((Property.A, Property.B, Property.C), 2):
                pair = ((x, P), (y, M))
                swapped = ((y, M), (x, P))
                assert ensemble_joint(ens, pair) == ensemble_joint(ens, swapped)

    def test_rejects_repeated_property(self):
        with pytest.raises(ValueError, match="two distinct properties"):
            ensemble_joint(ClassicalEnsemble.uniform(), ((Property.A, P), (Property.A, M)))

    @settings(max_examples=300, deadline=None)
    @given(ens=ensembles)
    def test_bit_identical_to_the_indicator_sum(self, ens):
        for (x, y) in itertools.permutations((Property.A, Property.B, Property.C), 2):
            for pair in itertools.product(((x, P), (x, M)), ((y, P), (y, M))):
                assert ensemble_joint(ens, pair) == reference_joint(ens, pair)


class TestWitness:
    @settings(max_examples=300, deadline=None)
    @given(ens=ensembles)
    def test_bit_identical_to_the_indicator_sums(self, ens):
        p_ab, p_bc, p_ac = (reference_joint(ens, p) for p in (PAIR_AB, PAIR_BC, PAIR_AC))
        assert s_classical(ens) == p_ab + p_bc - p_ac
        assert joint_triple(ens) == JointTriple(p_ab=p_ab, p_bc=p_bc, p_ac=p_ac)

    def test_vertex_values(self):
        values = [value for _, value in enumerate_vertices()]
        assert values == [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]

    def test_vertices_match_sign_oracle(self):
        for state, value in enumerate_vertices():
            assert value == oracle_vertex_witness(
                int(state.alpha), int(state.beta), int(state.gamma)
            )

    def test_the_two_saturating_assignments(self):
        saturating = {state for state, value in enumerate_vertices() if value == 1.0}
        assert saturating == {GeneralizedState(P, M, P), GeneralizedState(M, P, M)}

    def test_point_mass_examples(self):
        assert s_classical(ClassicalEnsemble.point_mass(GeneralizedState(P, M, M))) == 0.0
        assert s_classical(ClassicalEnsemble.point_mass(GeneralizedState(P, M, P))) == 1.0

    def test_uniform(self):
        assert s_classical(ClassicalEnsemble.uniform()) == pytest.approx(0.25, abs=1e-12)

    def test_random_ensembles_stay_in_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(2000):
            value = s_classical(random_ensemble(rng))
            assert -1e-9 <= value <= 1.0 + 1e-9


class TestBoundCheck:
    def test_holds(self):
        assert classical_bound_holds(JointTriple(p_ab=0.3, p_bc=0.3, p_ac=0.5))

    def test_violated_at_quantum_optimum(self):
        assert not classical_bound_holds(
            JointTriple(p_ab=0.2582, p_bc=0.1576, p_ac=0.8190)
        )

    def test_boundary_equality(self):
        assert classical_bound_holds(JointTriple(p_ab=0.6, p_bc=0.0, p_ac=0.6))

    def test_triple_validates_range(self):
        with pytest.raises(ValueError):
            JointTriple(p_ab=1.5, p_bc=0.0, p_ac=0.0)
        with pytest.raises(ValueError):
            JointTriple(p_ab=0.5, p_bc=-0.1, p_ac=0.0)


class TestFitClassical:
    def test_extreme_feasible_triple(self):
        ens = fit_classical(JointTriple(p_ab=1.0, p_bc=0.0, p_ac=1.0))
        assert ens is not None
        refit = joint_triple(ens)
        assert refit.p_ab == pytest.approx(1.0, abs=1e-6)
        assert refit.p_bc == pytest.approx(0.0, abs=1e-6)
        assert refit.p_ac == pytest.approx(1.0, abs=1e-6)

    def test_all_zero_triple(self):
        ens = fit_classical(JointTriple(p_ab=0.0, p_bc=0.0, p_ac=0.0))
        assert ens is not None

    def test_quantum_optimum_infeasible(self):
        triple = JointTriple(p_ab=QUANTUM_P_AB, p_bc=QUANTUM_P_BC, p_ac=QUANTUM_P_AC)
        assert fit_classical(triple) is None

    def test_infeasible_even_when_bound_holds(self):
        # p_ab + p_bc > 1 cannot be reached: no assignment carries both.
        assert fit_classical(JointTriple(p_ab=0.9, p_bc=0.9, p_ac=0.9)) is None

    def test_roundtrip_on_random_ensembles(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            target = joint_triple(random_ensemble(rng))
            fitted = fit_classical(target)
            assert fitted is not None
            refit = joint_triple(fitted)
            assert abs(refit.p_ab - target.p_ab) < 1e-6
            assert abs(refit.p_bc - target.p_bc) < 1e-6
            assert abs(refit.p_ac - target.p_ac) < 1e-6

    def test_returned_ensembles_satisfy_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            fitted = fit_classical(joint_triple(random_ensemble(rng)))
            assert fitted is not None
            assert classical_bound_holds(joint_triple(fitted))

    def test_clamps_negligible_weights(self):
        ens = fit_classical(JointTriple(p_ab=1.0, p_bc=0.0, p_ac=1.0))
        assert ens is not None
        for weight in ens.weights.values():
            assert weight == 0.0 or weight >= 1e-12
        assert sum(ens.weights.values()) == pytest.approx(1.0, abs=1e-12)
