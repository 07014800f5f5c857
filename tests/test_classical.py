"""Unit tests for the classical ensemble model and feasibility fitter.

The independent oracle here is plain enumeration over sign tuples,
written out in the tests without touching the module's own indicator
machinery.
"""
import functools
import hashlib
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pmlab import classical
from pmlab.classical import (
    ALL_STATES,
    FIT_TOLERANCE,
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


def closed_form_distance(t: JointTriple) -> float:
    """L-infinity distance of a triple in [0, 1]^3 from the classical polytope.

    The hull of the eight assignments is {p >= 0, p_ac <= p_ab + p_bc,
    p_ab + p_bc <= 1} (Fine, PRL 48, 291, 1982).
    """
    return max(0.0, (t.p_ac - t.p_ab - t.p_bc) / 3.0, (t.p_ab + t.p_bc - 1.0) / 2.0)


# The oracle LP, over the eight weights and the worst-case deviation d:
# minimize d subject to -d <= (indicator row . weights) - target <= d for
# each pair and weights summing to 1, every variable at linprog's default
# bounds [0, inf).  HiGHS solves it independently of fit_classical's solve.
_LP_COST = np.array([0.0] * len(ALL_STATES) + [1.0])
_LP_A_UB = np.array(
    [
        [sign * atom_joint(state, pair) for state in ALL_STATES] + [-1.0]
        for sign in (1.0, -1.0)
        for pair in (PAIR_AB, PAIR_BC, PAIR_AC)
    ]
)
_LP_A_EQ = np.array([[1.0] * len(ALL_STATES) + [0.0]])


# Triples anywhere in the cube: uniform, on a 0.01 lattice, and corners.
unit_probability = (
    st.floats(0.0, 1.0) | st.integers(0, 100).map(lambda k: k / 100) | st.sampled_from([0.0, 1.0])
)
unit_triples = st.tuples(unit_probability, unit_probability, unit_probability)


@st.composite
def facet_triples(draw):
    """Triples at FIT_TOLERANCE +- 1e-9 from the polytope, on either facet."""
    distance = FIT_TOLERANCE + draw(st.sampled_from([-1e-9, 1e-9]))
    if draw(st.booleans()):
        # p_ac - p_ab - p_bc = 3 distance, with p_ab + p_bc well below 1.
        p_ab, p_bc = draw(st.floats(0.0, 0.45)), draw(st.floats(0.0, 0.45))
        return p_ab, p_bc, p_ab + p_bc + 3.0 * distance
    # p_ab + p_bc - 1 = 2 distance; then any p_ac is inside the other facet.
    p_ab = draw(st.floats(2.0 * distance, 1.0))
    return p_ab, 1.0 + 2.0 * distance - p_ab, draw(st.floats(0.0, 1.0))


def triples_near_the_polytope(test):
    """Run ``test(self, triple)`` over unit and facet triples.

    Both facets at FIT_TOLERANCE - 1e-9 and + 1e-9 are examples on every run.
    """
    for triple in [
        (0.2, 0.3, 0.5 + 3.0 * (FIT_TOLERANCE - 1e-9)),
        (0.2, 0.3, 0.5 + 3.0 * (FIT_TOLERANCE + 1e-9)),
        (0.6, 0.4 + 2.0 * (FIT_TOLERANCE - 1e-9), 0.5),
        (0.6, 0.4 + 2.0 * (FIT_TOLERANCE + 1e-9), 0.5),
    ]:
        test = example(triple=triple)(test)
    test = given(triple=st.one_of(unit_triples, facet_triples()))(test)
    return settings(max_examples=400, deadline=None)(test)


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

    @pytest.mark.parametrize(
        "outcomes,name",
        [((1, -1, 1), "alpha"), ((P, "-", M), "beta"), ((P, M, np.int64(1)), "gamma")],
    )
    def test_holds_only_outcomes(self, outcomes, name):
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            GeneralizedState(*outcomes)


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
        mixed = {"x": 0.0, ALL_STATES[2]: 1.0, "y": 0.0}
        with pytest.raises(ValueError, match=r"unknown states: \['x', 'y'\]$"):
            ClassicalEnsemble(mixed)

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

    @pytest.mark.parametrize(
        "pair",
        [
            ((Property.A, 1), (Property.B, -1)),
            ((Property.A, P), (Property.B, np.int64(-1))),
            ((Property.A, P),),
            ((Property.A, P), ("b", M)),
            "ab",
        ],
    )
    def test_rejects_pairs_that_are_not_property_outcome_requests(self, pair):
        # The integer pair once matched no state through ``is`` and gave 0.0.
        state = GeneralizedState(P, M, P)
        assert atom_joint(state, PAIR_AB) == 1.0
        with pytest.raises(ValueError, match="^pair must be two"):
            atom_joint(state, pair)
        with pytest.raises(ValueError, match="^pair must be two"):
            ensemble_joint(ClassicalEnsemble.point_mass(state), pair)

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


class TestRandomEnsemble:
    def test_weights_are_numpy_dirichlet_bit_for_bit(self):
        # Eight exponentials over their running sum, draw for draw the
        # gamma(1) variates numpy's dirichlet scales at unit concentration.
        alpha = np.ones(len(ALL_STATES))
        for seed in range(1000):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                weights = np.array(list(random_ensemble(rng).weights.values()))
                assert weights.tobytes() == oracle.dirichlet(alpha).tobytes(), seed

    def test_simplex_adds_in_order(self):
        # The running sum stays at 1.0, so the scale is exactly 1; math.fsum
        # reaches 1 + 2**-50 and numpy's pairwise sum 1 + 3 * 2**-52 instead.
        draws = [1.0] + [2.0**-53] * 7
        assert functools.reduce(operator.add, draws) == 1.0 != math.fsum(draws)
        assert classical._simplex(draws) == draws
        columns = classical._simplex([np.full(3, draw) for draw in draws])
        assert np.array(columns).tobytes() == np.array([[draw] * 3 for draw in draws]).tobytes()


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

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -1.0, -1e-300, True, False, "0.1", None]
    )
    def test_rejects_bad_tolerance(self, bad):
        triple = JointTriple(p_ab=QUANTUM_P_AB, p_bc=QUANTUM_P_BC, p_ac=QUANTUM_P_AC)
        with pytest.raises(ValueError, match="tolerance"):
            fit_classical(triple, tolerance=bad)

    def test_zero_and_integer_tolerances_are_numbers(self):
        assert fit_classical(JointTriple(p_ab=1.0, p_bc=0.0, p_ac=1.0), tolerance=0) is not None
        assert fit_classical(JointTriple(p_ab=0.9, p_bc=0.9, p_ac=0.9), tolerance=1) is not None

    @triples_near_the_polytope
    def test_verdict_is_the_closed_form_distance(self, triple):
        t = JointTriple(*triple)
        assert (fit_classical(t) is None) == (closed_form_distance(t) > FIT_TOLERANCE)

    @triples_near_the_polytope
    def test_lp_optimum_is_the_closed_form_distance(self, triple):
        # An LP solver, run on every triple, finds the same distance that
        # fit_classical's verdict computes in closed form.
        t = np.array(triple)
        result = linprog(
            _LP_COST,
            A_ub=_LP_A_UB,
            b_ub=np.concatenate([t, -t]),
            A_eq=_LP_A_EQ,
            b_eq=[1.0],
            method="highs",
        )
        assert result.success
        distance = closed_form_distance(JointTriple(*triple))
        # HiGHS takes a point within its primal feasibility tolerance, 1e-7,
        # as feasible: (6e-8, 1, 0) lies 3e-8 outside and the LP reports 0.
        assert abs(result.fun - distance) <= 1e-12 or (result.fun == 0.0 and distance <= 1e-7)

    @pytest.mark.parametrize("tolerance", [0.0, 1e-9, 5e-8, 6e-8, 1e-7, 1e-6, 1e-4])
    # Fitted by HiGHS, these two missed by 8e-8 and 1e-7 at tolerance 5e-8
    # and 6e-8, against d(t) of 4e-8 and 5e-8.
    @example(triple=(8e-8, 1.0, 0.0))
    @example(triple=(1e-7, 1.0, 0.5))
    # A bare nnls call stops at its iteration limit on these two.
    @example(triple=(1e-20, 0.0, 5e-324))
    @example(triple=(0.0, 0.0, 5e-324))
    # A weight of 1e-7, which a clamp at 1e-6 would drop.
    @example(triple=(1e-7, 0.5, 0.5))
    @triples_near_the_polytope
    def test_refit_reproduces_the_triple_to_the_documented_bound(self, tolerance, triple):
        # The ensemble lands d(t) away, up to rounding and eight weights
        # dropped below WEIGHT_CLAMP.
        t = JointTriple(*triple)
        ens = fit_classical(t, tolerance)
        if ens is not None:
            refit = joint_triple(ens)
            deviations = (refit.p_ab - t.p_ab, refit.p_bc - t.p_bc, refit.p_ac - t.p_ac)
            assert max(map(abs, deviations)) <= closed_form_distance(t) + 1e-11

    def test_infeasible_triples_never_reach_the_lp(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("nnls called")

        monkeypatch.setattr("scipy.optimize.nnls", no_solve)
        triples = [JointTriple(*triple) for triple in FIT_PIN_TRIPLES]
        infeasible = [t for t in triples if closed_form_distance(t) > FIT_TOLERANCE]
        assert len(infeasible) == 26
        quantum = JointTriple(p_ab=QUANTUM_P_AB, p_bc=QUANTUM_P_BC, p_ac=QUANTUM_P_AC)
        for t in [*infeasible, quantum]:
            assert fit_classical(t) is None
        # A feasible triple still gets its ensemble from the solver.
        with pytest.raises(AssertionError, match="nnls called"):
            fit_classical(JointTriple(0.3, 0.2, 0.4))

    def test_weights_and_verdicts_pinned(self):
        digest = hashlib.sha256()
        for triple in FIT_PIN_TRIPLES:
            ens = fit_classical(JointTriple(*triple))
            cells = ["None"] if ens is None else [w.hex() for w in ens.weights.values()]
            digest.update(" ".join([*map(float.hex, triple), *cells]).encode() + b"\n")
        assert digest.hexdigest() == FIT_SHA256


def _fit_pin_triples():
    rng = np.random.default_rng(26)
    inside = [joint_triple(random_ensemble(rng)) for _ in range(20)]
    return [
        (0.3, 0.2, 0.4),
        (0.1, 0.2, 0.25),
        (0.9, 0.9, 0.9),
        (0.1, 0.1, 0.5),
        (QUANTUM_P_AB, QUANTUM_P_BC, QUANTUM_P_AC),
        *itertools.product((0.0, 0.5, 1.0), repeat=3),
        *((t.p_ab, t.p_bc, t.p_ac) for t in inside),
        *map(tuple, rng.random((20, 3)).tolist()),
    ]


# Feasible and infeasible triples, the corners and midpoints of the cube,
# fitted ensembles' own triples and uniform random triples: 72 in all, 26
# infeasible.  The digest covers every returned weight bit for bit and
# each None.  It holds for one nnls build (scipy 1.17.1): a feasible
# triple has many weightings, and another build may pick a different one.
# Re-taken when nnls replaced the LP; the verdicts did not change.
FIT_PIN_TRIPLES = _fit_pin_triples()
FIT_SHA256 = "c2b91f8a044678601abb272dafad9c12cfd4cfecab6d1c7553b6f0a8f8703d32"
