"""Classical side of the quantumness criterion.

A classical system carries definite outcomes for all three dichotomic
properties at once; an ensemble is a probability weighting over the eight
possible assignments.  This module evaluates pairwise joint probabilities
for such ensembles, checks the bound they must obey, verifies the bound by
vertex enumeration, and decides whether a given probability triple is
reachable classically at all.  The decision is the triple's closed-form
distance from the polytope the eight assignments span.  A triple within
tolerance is moved onto the polytope, and one non-negative least-squares
solve builds its ensemble, exact to that distance.  The solve's matrix is
built at import, but ``scipy.optimize`` loads only on the first such fit,
so a process that never builds an ensemble never pays for it.  The witness
kernel also takes one weight array per assignment, scoring many ensembles.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from collections.abc import Iterable, Mapping

import numpy as np
import scipy

from .qubit import Outcome, _instance, _number

__all__ = [
    "ALL_STATES",
    "ClassicalEnsemble",
    "GeneralizedState",
    "JointTriple",
    "Property",
    "atom_joint",
    "classical_bound_holds",
    "ensemble_joint",
    "enumerate_vertices",
    "fit_classical",
    "joint_triple",
    "random_ensemble",
    "s_classical",
]

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
    """A simultaneous outcome assignment to all three properties, each an Outcome."""

    alpha: Outcome
    beta: Outcome
    gamma: Outcome

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            _instance(name, getattr(self, name), Outcome)

    def outcome_of(self, prop: Property) -> Outcome:
        prop = _instance("prop", prop, Property)
        return {Property.A: self.alpha, Property.B: self.beta}.get(prop, self.gamma)

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

#: Every state at weight zero, in canonical order; ensembles start from a copy.
_NO_WEIGHTS = dict.fromkeys(ALL_STATES, 0.0)
_WEIGHT_NAMES = tuple(f"weight for {state.label()}" for state in ALL_STATES)


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Probability weighting over the eight generalized states."""

    weights: Mapping[GeneralizedState, float]

    def __post_init__(self) -> None:
        # Copying the canonical table keeps its order and its keys' stored
        # hashes, and update adds a key only for an unknown state.  Storing a
        # value hashes its key again, so only converted weights are rewritten.
        ordered = _NO_WEIGHTS.copy()
        ordered.update(_instance("weights", self.weights, Mapping))
        if len(ordered) > len(ALL_STATES):
            unknown = list(ordered)[len(ALL_STATES):]
            raise ValueError(f"weights keyed by unknown states: {unknown!r}")
        for (state, w), name in zip(ordered.items(), _WEIGHT_NAMES):
            if (checked := _number(name, w, 0.0, 1.0)) is not w:
                ordered[state] = checked
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
        vals = list(_instance("values", values, Iterable))
        if len(vals) != len(ALL_STATES):
            raise ValueError(f"expected {len(ALL_STATES)} weights, got {len(vals)}")
        return cls(dict(zip(ALL_STATES, vals)))


@dataclass(frozen=True)
class JointTriple:
    """The three pairwise joint probabilities entering the bound."""

    p_ab: float  # plus on a, minus on b
    p_bc: float  # plus on b, minus on c
    p_ac: float  # plus on a, minus on c

    def __post_init__(self) -> None:
        for name in ("p_ab", "p_bc", "p_ac"):
            object.__setattr__(self, name, _number(name, getattr(self, name), 0.0, 1.0))


def _simplex(draws: list) -> list:
    # Eight draws times one over their running sum, as numpy's dirichlet at
    # unit concentration scales its gamma(1) variates.  Draws may be floats
    # or equal-length arrays.  reduce adds in order: sum compensates on
    # Python >= 3.12, and np.sum adds pairwise.
    scale = 1.0 / functools.reduce(operator.add, draws)
    return [draw * scale for draw in draws]


def random_ensemble(rng: np.random.Generator) -> ClassicalEnsemble:
    """Draw an ensemble uniformly from the weight simplex.

    The weights are eight standard exponentials over their running sum:
    bit for bit ``rng.dirichlet(np.ones(8))``, from the same draws.
    """
    rng = _instance("rng", rng, np.random.Generator)
    return ClassicalEnsemble(dict(zip(ALL_STATES, _simplex(rng.standard_exponential(8).tolist()))))


def atom_joint(state: GeneralizedState, pair: OutcomePair) -> float:
    """Joint probability of the pair for a single definite assignment.

    1 if the state's outcomes match both requests (whatever the third
    property holds), else 0.  The pair must be two (Property, Outcome)
    requests naming distinct properties, else ValueError.
    """
    state = _instance("state", state, GeneralizedState)
    match pair:
        case ((Property() as prop1, Outcome() as out1), (Property() as prop2, Outcome() as out2)):
            if prop1 is prop2:
                raise ValueError(f"pair must name two distinct properties, got {prop1} twice")
            return float(state.outcome_of(prop1) is out1 and state.outcome_of(prop2) is out2)
    raise ValueError(f"pair must be two (Property, Outcome) requests, got {pair!r}")


def _matches(pair: OutcomePair) -> tuple[int, ...]:
    # The pair's indicator row: positions in ALL_STATES where atom_joint is 1.
    return tuple(i for i, state in enumerate(ALL_STATES) if atom_joint(state, pair))


def _joint(weights: list, matches: tuple[int, ...]):
    # Same value, bit for bit, as summing weight * indicator over all
    # eight states in order: the skipped terms are exact zeros.  Weights may
    # be floats or equal-length arrays, added element by element.
    return sum([weights[i] for i in matches], 0.0)


_MATCH_AB, _MATCH_BC, _MATCH_AC = map(_matches, (PAIR_AB, PAIR_BC, PAIR_AC))


def _witness(weights: list):
    # P(a+b-) + P(b+c-) - P(a+c-) from eight weights in ALL_STATES order:
    # one ensemble's floats, or one column of many ensembles per state.
    return _joint(weights, _MATCH_AB) + _joint(weights, _MATCH_BC) - _joint(weights, _MATCH_AC)


def ensemble_joint(ens: ClassicalEnsemble, pair: OutcomePair) -> float:
    """Weighted joint probability of the pair over the ensemble."""
    ens = _instance("ens", ens, ClassicalEnsemble)
    return _joint(list(ens.weights.values()), _matches(pair))


def s_classical(ens: ClassicalEnsemble) -> float:
    """The witness combination P(a+b-) + P(b+c-) - P(a+c-) for an ensemble.

    Non-negative for every ensemble; reaches 1 only on two of the eight
    vertex assignments.  ``classical-verify`` runs the same kernel on
    weight columns of many ensembles at once, with equal values bit for bit.
    """
    return _witness(list(_instance("ens", ens, ClassicalEnsemble).weights.values()))


def joint_triple(ens: ClassicalEnsemble) -> JointTriple:
    """The three bound-relevant joints of an ensemble, as a triple."""
    w = list(_instance("ens", ens, ClassicalEnsemble).weights.values())
    return JointTriple(
        p_ab=_joint(w, _MATCH_AB), p_bc=_joint(w, _MATCH_BC), p_ac=_joint(w, _MATCH_AC)
    )


def classical_bound_holds(t: JointTriple, epsilon: float = BOUND_EPSILON) -> bool:
    """True iff p_ac <= p_ab + p_bc within ``epsilon``.

    Every classical ensemble satisfies this; a violation is a quantum
    signature.
    """
    epsilon = _number("epsilon", epsilon, 0.0)
    t = _instance("t", t, JointTriple)
    return t.p_ac <= t.p_ab + t.p_bc + epsilon


def enumerate_vertices() -> list[tuple[GeneralizedState, float]]:
    """All eight definite assignments with their witness values.

    The value multiset is {0 x 6, 1 x 2}; the bound for arbitrary
    ensembles follows by convexity from this enumeration.
    """
    return [(state, s_classical(ClassicalEnsemble.point_mass(state))) for state in ALL_STATES]


# The fit's linear system over the eight weights: one indicator row per
# pair, then the all-ones row that makes the weights sum to 1.
_FIT_MATRIX = np.array(
    [
        [float(i in matches) for i in range(len(ALL_STATES))]
        for matches in (_MATCH_AB, _MATCH_BC, _MATCH_AC, range(len(ALL_STATES)))
    ]
)
_TINY = np.finfo(float).tiny


def _onto_hull(t: JointTriple) -> tuple[float, list[float]]:
    # d(t), and the hull point d(t) away on the one facet t violates, if
    # any.  None violates both: p_ac > p_ab + p_bc > 1 needs p_ac > 1.
    over_ac, over_sum = (t.p_ac - t.p_ab - t.p_bc) / 3.0, (t.p_ab + t.p_bc - 1.0) / 2.0
    if over_ac > 0.0:
        return over_ac, [t.p_ab + over_ac, t.p_bc + over_ac, t.p_ac - over_ac]
    if over_sum > 0.0:
        return over_sum, [t.p_ab - over_sum, t.p_bc - over_sum, t.p_ac]
    return 0.0, [t.p_ab, t.p_bc, t.p_ac]


def fit_classical(t: JointTriple, tolerance: float = FIT_TOLERANCE) -> ClassicalEnsemble | None:
    """Find an ensemble reproducing the triple, or None if none exists.

    The eight assignments span the polytope {p >= 0, p_ac <= p_ab + p_bc,
    p_ab + p_bc <= 1} (Fine, PRL 48, 291, 1982), so the smallest
    worst-case deviation any ensemble reaches over the three joints is the
    closed-form L-infinity distance
    ``d(t) = max(0, (p_ac - p_ab - p_bc)/3, (p_ab + p_bc - 1)/2)``.
    The verdict is ``d(t) <= tolerance`` (loose enough to absorb counting
    noise on estimated inputs); a triple farther out returns None at once.
    Any other triple moves by ``d(t)`` onto the facet it violates, if any,
    and ``scipy.optimize.nnls`` finds eight non-negative weights summing to
    1 that give it back: the ensemble reproduces the input to ``d(t)``, up
    to rounding and weights clamped below ``WEIGHT_CLAMP``.  The first such
    call imports ``scipy.optimize`` (about half a second), which no other
    path loads.  ``tolerance`` must be a finite non-negative number and
    ``t`` a JointTriple, else ValueError.
    """
    tolerance = _number("tolerance", tolerance, 0.0)
    distance, point = _onto_hull(_instance("t", t, JointTriple))
    if distance > tolerance:
        return None
    target = np.array([*point, 1.0])
    # nnls can stop at its iteration limit on subnormal targets such as
    # (1e-20, 0, 5e-324); flushing them to 0 moves the target by < 2.3e-308.
    target[target < _TINY] = 0.0
    # SciPy's package __getattr__ imports scipy.optimize on first access.
    weights, _ = scipy.optimize.nnls(_FIT_MATRIX, target)
    weights = np.where(weights < WEIGHT_CLAMP, 0.0, weights)
    return ClassicalEnsemble.from_weights((weights / weights.sum()).tolist())
