"""Classical side of the quantumness criterion.

A classical system carries definite outcomes for all three dichotomic
properties at once; an ensemble is a probability weighting over the eight
possible assignments.  This module evaluates pairwise joint probabilities
for such ensembles, checks the bound they must obey, verifies the bound by
vertex enumeration, and decides by linear programming whether a given
probability triple is reachable classically at all.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np
from scipy.optimize import linprog

from .qubit import Outcome

#: Ensemble weights must sum to one this tightly.
WEIGHT_SUM_ATOL = 1e-9
#: Slack allowed when checking the bound on a probability triple.
BOUND_EPSILON = 1e-9
#: A triple is classical if some ensemble reproduces it this closely.
FIT_TOLERANCE = 1e-6
#: Weights below this are cosmetic noise and get clamped to zero.
WEIGHT_CLAMP = 1e-12


class Property(Enum):
    """The three dichotomic properties a single system carries."""

    A = "a"
    B = "b"
    C = "c"


@dataclass(frozen=True)
class GeneralizedState:
    """A simultaneous outcome assignment to all three properties."""

    alpha: Outcome
    beta: Outcome
    gamma: Outcome

    def outcome_of(self, prop: Property) -> Outcome:
        if prop is Property.A:
            return self.alpha
        if prop is Property.B:
            return self.beta
        return self.gamma

    def label(self) -> str:
        sign = {Outcome.PLUS: "+", Outcome.MINUS: "-"}
        return f"(a{sign[self.alpha]} b{sign[self.beta]} c{sign[self.gamma]})"


#: The eight assignments, in a fixed enumeration order (plus before minus).
ALL_STATES: tuple[GeneralizedState, ...] = tuple(
    GeneralizedState(a, b, g)
    for a, b, g in itertools.product((Outcome.PLUS, Outcome.MINUS), repeat=3)
)

#: One requested outcome for each of two distinct properties.
OutcomePair = tuple[tuple[Property, Outcome], tuple[Property, Outcome]]

PAIR_AB: OutcomePair = ((Property.A, Outcome.PLUS), (Property.B, Outcome.MINUS))
PAIR_BC: OutcomePair = ((Property.B, Outcome.PLUS), (Property.C, Outcome.MINUS))
PAIR_AC: OutcomePair = ((Property.A, Outcome.PLUS), (Property.C, Outcome.MINUS))


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Probability weighting over the eight generalized states."""

    weights: Mapping[GeneralizedState, float]

    def __post_init__(self) -> None:
        weights = self.weights
        if (
            type(weights) is dict
            and tuple(weights) == ALL_STATES
            and all(type(w) is float for w in weights.values())
        ):
            # Already canonical (tuple equality checks identity first):
            # copying keeps the keys' stored hashes, so none is rehashed.
            ordered = weights.copy()
        else:
            unknown = [key for key in weights if key not in ALL_STATES]
            if unknown:
                raise ValueError(f"weights keyed by unknown states: {unknown!r}")
            # Re-key in canonical state order so downstream sums are
            # deterministic regardless of how the mapping was built.
            ordered = {state: float(weights.get(state, 0.0)) for state in ALL_STATES}
        for state, w in ordered.items():
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weight for {state.label()} out of [0, 1]: {w!r}")
        total = sum(ordered.values())
        if abs(total - 1.0) > WEIGHT_SUM_ATOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", ordered)

    @classmethod
    def point_mass(cls, state: GeneralizedState) -> "ClassicalEnsemble":
        return cls({state: 1.0})

    @classmethod
    def uniform(cls) -> "ClassicalEnsemble":
        return cls({state: 1.0 / len(ALL_STATES) for state in ALL_STATES})

    @classmethod
    def from_weights(cls, values: Iterable[float]) -> "ClassicalEnsemble":
        """Build from eight weights given in ``ALL_STATES`` order."""
        vals = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if len(vals) != len(ALL_STATES):
            raise ValueError(f"expected {len(ALL_STATES)} weights, got {len(vals)}")
        return cls(dict(zip(ALL_STATES, map(float, vals))))

    def weight_vector(self) -> np.ndarray:
        return np.array([self.weights[state] for state in ALL_STATES])


@dataclass(frozen=True)
class JointTriple:
    """The three pairwise joint probabilities entering the bound."""

    p_ab: float  # plus on a, minus on b
    p_bc: float  # plus on b, minus on c
    p_ac: float  # plus on a, minus on c

    def __post_init__(self) -> None:
        for name, p in (("p_ab", self.p_ab), ("p_bc", self.p_bc), ("p_ac", self.p_ac)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {p!r}")


_SIMPLEX_ALPHA = np.ones(len(ALL_STATES))


def random_ensemble(rng: np.random.Generator) -> ClassicalEnsemble:
    """Draw an ensemble uniformly from the weight simplex."""
    return ClassicalEnsemble.from_weights(rng.dirichlet(_SIMPLEX_ALPHA))


def atom_joint(state: GeneralizedState, pair: OutcomePair) -> float:
    """Joint probability of the pair for a single definite assignment.

    1 if the state's outcomes match both requests (whatever the third
    property holds), else 0.  The two requests must name distinct
    properties.
    """
    (prop1, out1), (prop2, out2) = pair
    if prop1 is prop2:
        raise ValueError(f"pair must name two distinct properties, got {prop1} twice")
    return 1.0 if state.outcome_of(prop1) is out1 and state.outcome_of(prop2) is out2 else 0.0


def _matches(pair: OutcomePair) -> tuple[int, ...]:
    # The pair's indicator row: positions in ALL_STATES where atom_joint is 1.
    return tuple(i for i, state in enumerate(ALL_STATES) if atom_joint(state, pair))


def _joint(weights: list[float], matches: tuple[int, ...]) -> float:
    # Same value, bit for bit, as summing weight * indicator over all
    # eight states in order: the skipped terms are exact zeros.
    return sum([weights[i] for i in matches], 0.0)


_MATCH_AB, _MATCH_BC, _MATCH_AC = map(_matches, (PAIR_AB, PAIR_BC, PAIR_AC))


def ensemble_joint(ens: ClassicalEnsemble, pair: OutcomePair) -> float:
    """Weighted joint probability of the pair over the ensemble."""
    return _joint(list(ens.weights.values()), _matches(pair))


def s_classical(ens: ClassicalEnsemble) -> float:
    """The witness combination P(a+b-) + P(b+c-) - P(a+c-) for an ensemble.

    Non-negative for every ensemble; reaches 1 only on two of the eight
    vertex assignments.
    """
    w = list(ens.weights.values())
    return _joint(w, _MATCH_AB) + _joint(w, _MATCH_BC) - _joint(w, _MATCH_AC)


def joint_triple(ens: ClassicalEnsemble) -> JointTriple:
    """The three bound-relevant joints of an ensemble, as a triple."""
    w = list(ens.weights.values())
    return JointTriple(
        p_ab=_joint(w, _MATCH_AB), p_bc=_joint(w, _MATCH_BC), p_ac=_joint(w, _MATCH_AC)
    )


def classical_bound_holds(t: JointTriple, epsilon: float = BOUND_EPSILON) -> bool:
    """True iff p_ac <= p_ab + p_bc within ``epsilon``.

    Every classical ensemble satisfies this; a violation is a quantum
    signature.
    """
    return t.p_ac <= t.p_ab + t.p_bc + epsilon


def enumerate_vertices() -> list[tuple[GeneralizedState, float]]:
    """All eight definite assignments with their witness values.

    The value multiset is {0 x 6, 1 x 2}; the bound for arbitrary
    ensembles follows by convexity from this enumeration.
    """
    return [(state, s_classical(ClassicalEnsemble.point_mass(state))) for state in ALL_STATES]


# Indicator of each vertex assignment against the three pairs, in
# ALL_STATES column order; the feasible triples are the convex hull of
# these columns.
_PAIR_MATRIX = np.array(
    [[atom_joint(state, pair) for state in ALL_STATES] for pair in (PAIR_AB, PAIR_BC, PAIR_AC)]
)


def fit_classical(t: JointTriple, tolerance: float = FIT_TOLERANCE) -> ClassicalEnsemble | None:
    """Find an ensemble reproducing the triple, or None if none exists.

    Minimizes the worst-case deviation over the three joints by linear
    programming over the eight weights.  Returns an ensemble only when the
    optimal deviation is within ``tolerance`` (loose enough to absorb
    counting noise on estimated inputs); re-evaluating the triple from the
    returned ensemble reproduces the input to that accuracy.
    """
    target = np.array([t.p_ab, t.p_bc, t.p_ac])
    # Variables: eight weights plus the worst-case deviation being minimized.
    n_states = len(ALL_STATES)
    cost = np.zeros(n_states + 1)
    cost[n_states] = 1.0
    a_ub = np.vstack(
        [
            np.hstack([_PAIR_MATRIX, -np.ones((3, 1))]),
            np.hstack([-_PAIR_MATRIX, -np.ones((3, 1))]),
        ]
    )
    b_ub = np.concatenate([target, -target])
    a_eq = np.zeros((1, n_states + 1))
    a_eq[0, :n_states] = 1.0
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * (n_states + 1),
        method="highs",
    )
    if not result.success or result.fun > tolerance:
        return None
    weights = np.asarray(result.x[:n_states])
    weights = np.where(weights < WEIGHT_CLAMP, 0.0, weights)
    weights = weights / weights.sum()
    return ClassicalEnsemble.from_weights(weights)
