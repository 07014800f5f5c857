"""The library-wide number rule, checked at every public entry point.

A number argument must be a real number (an integer where one is asked
for) that is not a bool and is finite as a float; anything else raises
ValueError at the boundary, before any work is done.
"""
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmlab
from pmlab import (
    ALL_STATES,
    AngleTriple,
    ClassicalEnsemble,
    ConfigError,
    CountRecord,
    EstimatedProbability,
    ExperimentConfig,
    GeneralizedState,
    H,
    InsufficientStatisticsError,
    JointTriple,
    Outcome,
    Property,
    PropertySetting,
    PureState,
    ScanGrid,
    SEstimate,
    Setting,
    SLandscape,
    accidental_estimate,
    atom_joint,
    classical_bound_holds,
    conditional_probability,
    eigenstate,
    ensemble_joint,
    estimate_S,
    estimate_joint,
    export_surface,
    fit_classical,
    grid_scan,
    joint_triple,
    marginal_probability,
    minimize_s,
    parse_surface,
    random_ensemble,
    run_full_scan,
    s_classical,
    s_quantum,
    simulate_setting,
    transition_probability,
)
from pmlab.bench import estimate_to_json, full_scan_profile_csv, full_scan_surface_csv
from pmlab.classical import PAIR_AB

COARSE = ExperimentConfig(p2_step=30.0, hwp_step=15.0)
RECORD = simulate_setting(COARSE, Setting(20.0, 25.0))
REFERENCE = simulate_setting(COARSE, Setting(0.0, 25.0))
SETTING = Setting(0.0, 0.0)
TRIPLE = JointTriple(0.3, 0.2, 0.4)
GRID = ScanGrid.full_range(90.0)
PREP = (PropertySetting.at(30.0), Outcome.PLUS)
INT_PAIR = ((Property.A, 1), (Property.B, -1))
LONG_HEADER = "theta_a,theta_b,theta_c,S"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: AngleTriple("1", True, 0), id="AngleTriple-str-bool"),
        pytest.param(lambda: ScanGrid(0, "180", 6), id="ScanGrid-str-stop"),
        pytest.param(lambda: ScanGrid(0, 180, True), id="ScanGrid-bool-step"),
        pytest.param(lambda: grid_scan(GRID, GRID, "90"), id="grid_scan-str-fixed-axis"),
        pytest.param(lambda: PropertySetting(True), id="PropertySetting-bool"),
        pytest.param(lambda: PropertySetting("1"), id="PropertySetting-str"),
        pytest.param(lambda: PropertySetting.at("1"), id="PropertySetting.at-str"),
        pytest.param(lambda: PureState(math.nan, 0.0), id="PureState-nan"),
        pytest.param(lambda: PureState("1", 0.0), id="PureState-str"),
        pytest.param(lambda: PureState(True, False), id="PureState-bool"),
        pytest.param(lambda: Setting(0, "10"), id="Setting-str"),
        pytest.param(lambda: Setting(0, True), id="Setting-bool"),
        pytest.param(lambda: Setting(0, None), id="Setting-None"),
        pytest.param(lambda: Setting.for_angles(0, "10"), id="for_angles-str"),
        pytest.param(lambda: run_full_scan(COARSE, theta_b_profile="10"), id="full_scan-str"),
        pytest.param(lambda: run_full_scan(COARSE, theta_b_profile=True), id="full_scan-bool"),
        pytest.param(lambda: run_full_scan(COARSE, theta_a="156"), id="full_scan-str-theta_a"),
        pytest.param(lambda: JointTriple(True, 0, 0), id="JointTriple-bool"),
        pytest.param(lambda: JointTriple("0.5", 0, 0), id="JointTriple-str"),
        pytest.param(lambda: minimize_s(GRID, tolerance=True), id="minimize_s-bool-tol"),
        pytest.param(lambda: minimize_s(GRID, tolerance="0.1"), id="minimize_s-str-tol"),
        pytest.param(lambda: minimize_s(6.0), id="minimize_s-float-grid"),
        pytest.param(lambda: ClassicalEnsemble({ALL_STATES[0]: "1"}), id="ensemble-str"),
        pytest.param(lambda: ClassicalEnsemble({ALL_STATES[0]: True}), id="ensemble-bool"),
        pytest.param(lambda: ClassicalEnsemble.from_weights(["1"] + [0] * 7), id="weights-str"),
        pytest.param(lambda: ClassicalEnsemble.from_weights([True] + [0] * 7), id="weights-bool"),
        pytest.param(
            lambda: parse_surface('{"axes": [["1"], [true], [0]], "values": ["0.5"]}', "json"),
            id="parse_surface-json-str-bool",
        ),
        pytest.param(
            lambda: SLandscape((np.zeros((1, 1)), np.zeros(1), np.zeros(1)), np.zeros(1)),
            id="SLandscape-2d-axis",
        ),
        pytest.param(lambda: fit_classical((0.1, 0.2, 0.3)), id="fit_classical-tuple"),
        pytest.param(lambda: fit_classical(None), id="fit_classical-None"),
        pytest.param(lambda: classical_bound_holds((0.1, 0.2, 0.3)), id="bound-tuple"),
        pytest.param(lambda: classical_bound_holds(TRIPLE, math.nan), id="bound-nan-epsilon"),
        pytest.param(lambda: classical_bound_holds(TRIPLE, "0"), id="bound-str-epsilon"),
        pytest.param(
            lambda: estimate_joint(RECORD, REFERENCE, subtract_window=-1.0),
            id="estimate_joint-negative-window",
        ),
        pytest.param(lambda: accidental_estimate(RECORD, "1e-9"), id="accidental-str-window"),
        pytest.param(lambda: EstimatedProbability(0.5, math.inf), id="estimate-inf-error"),
        pytest.param(lambda: EstimatedProbability("0.5", 0.1), id="estimate-str-value"),
        pytest.param(lambda: SEstimate(math.nan, 0.1), id="SEstimate-nan-value"),
        pytest.param(lambda: SEstimate(-0.4, "0.02"), id="SEstimate-str-error"),
        pytest.param(lambda: CountRecord("x", 1, 1, 1, 1, SETTING, 1.0), id="CountRecord-str"),
        pytest.param(lambda: CountRecord(1, 1, -1, 1, 1, SETTING, 1.0), id="CountRecord-negative"),
        pytest.param(lambda: CountRecord(1, 1, 1, 1.5, 1, SETTING, 1.0), id="CountRecord-float"),
        pytest.param(lambda: CountRecord(1, 1, 1, 1, True, SETTING, 1.0), id="CountRecord-bool"),
        pytest.param(lambda: CountRecord(1, 1, 1, 1, 1, (0, 0), 1.0), id="CountRecord-setting"),
        pytest.param(
            lambda: accidental_estimate(CountRecord(1, 1, 1, 1, 1, SETTING, 0), 1e-9),
            id="accidental-zero-duration",
        ),
        pytest.param(lambda: parse_surface("foo,S\n1,2\n"), id="parse_surface-unknown-axis"),
        pytest.param(lambda: parse_surface("theta_c,S,X\n1,2,3\n"), id="parse_surface-extra-col"),
        pytest.param(lambda: parse_surface("theta_c,Q\n1,2\n"), id="parse_surface-not-S"),
        pytest.param(
            lambda: parse_surface("theta_a/theta_a,1,2\n1,2,3\n"), id="parse_surface-one-axis-twice"
        ),
        pytest.param(
            lambda: parse_surface("theta_c/theta_a,1,2\n1,2,3\n"), id="parse_surface-axes-reversed"
        ),
        pytest.param(
            lambda: parse_surface(f"{LONG_HEADER}\n0,0,0,1\n0,1,0,2\n1,0,0,3\n0,0,0,4\n"),
            id="parse_surface-long-node-twice-one-missing",
        ),
        pytest.param(
            lambda: parse_surface(f"{LONG_HEADER}\n0,0,0,1\n1,0,0,2\n0,1,0,3\n1,1,0,4\n"),
            id="parse_surface-long-not-row-major",
        ),
        # One node rule: no layout may list a node twice on an axis.
        pytest.param(
            lambda: parse_surface("theta_c,S\n5,1\n5,2\n"), id="parse_surface-1d-node-twice"
        ),
        pytest.param(
            lambda: parse_surface("theta_b/theta_c,1,1\n0,1,2\n"),
            id="parse_surface-matrix-column-twice",
        ),
        pytest.param(
            lambda: parse_surface("theta_b/theta_c,1,2\n0,1,2\n0,3,4\n"),
            id="parse_surface-matrix-row-twice",
        ),
        pytest.param(
            lambda: parse_surface(f"{LONG_HEADER}\n0,0,5,1\n0,0,5,2\n"),
            id="parse_surface-long-node-twice",
        ),
        pytest.param(
            lambda: parse_surface('{"axes": [[0],[0],[5,5]], "values": [1,2]}', "json"),
            id="parse_surface-json-node-twice",
        ),
        # export_surface would write either landscape as a document parse_surface rejects.
        pytest.param(
            lambda: SLandscape((np.zeros(1), np.zeros(1), np.array([5.0, 5.0])), np.ones(2)),
            id="SLandscape-node-twice",
        ),
        pytest.param(
            lambda: grid_scan(0.0, 0.0, ScanGrid(1e16, 1e16 + 4, 1)),
            id="grid_scan-nodes-round-together",
        ),
        # Distinct nodes that parse_surface would read back as one node.
        pytest.param(
            lambda: export_surface(
                SLandscape((np.zeros(1), np.zeros(1), np.array([0.0, 1e-7])), np.ones(2)), "csv"
            ),
            id="export_surface-csv-nodes-equal-at-6-decimals",
        ),
        # An SLandscape holds numpy arrays of the floats both documents hold.
        pytest.param(lambda: SLandscape(([0.0], [0.0], [0.0]), np.ones(1)), id="SLandscape-lists"),
        pytest.param(
            lambda: SLandscape((np.zeros(1), np.zeros(1), np.arange(2)), np.ones(2)),
            id="SLandscape-int64-axis",
        ),
        pytest.param(
            lambda: SLandscape((np.zeros(1), np.zeros(1), np.zeros(1)), np.ones(1, dtype=np.int32)),
            id="SLandscape-int32-values",
        ),
        pytest.param(
            lambda: SLandscape((np.zeros(1), np.zeros(1), np.array([True])), np.ones(1)),
            id="SLandscape-bool-axis",
        ),
        pytest.param(
            lambda: SLandscape((np.zeros(1), np.zeros(1), np.arange(2.0)), np.array([True, False])),
            id="SLandscape-bool-values",
        ),
        pytest.param(
            lambda: SLandscape((np.zeros(1), np.zeros(1), np.array(["0"])), np.ones(1)),
            id="SLandscape-str-axis",
        ),
        # JSON cannot write a longdouble, so no landscape holds one.
        pytest.param(
            lambda: SLandscape((np.zeros(1), np.zeros(1), np.zeros(1)), np.ones(1, np.longdouble)),
            id="SLandscape-longdouble-values",
        ),
        pytest.param(lambda: parse_surface("[" * 100_000, "json"), id="parse_surface-json-deep"),
        pytest.param(lambda: parse_surface(None), id="parse_surface-None"),
        # An argument that should be one of the library's records, or a generator.
        pytest.param(lambda: run_full_scan("cfg"), id="run_full_scan-str-config"),
        pytest.param(lambda: estimate_S(COARSE, (1, 2, 3)), id="estimate_S-tuple-triple"),
        pytest.param(lambda: simulate_setting(COARSE, (1, 2)), id="simulate_setting-tuple"),
        pytest.param(lambda: simulate_setting("cfg", SETTING), id="simulate_setting-str-config"),
        pytest.param(lambda: s_classical("x"), id="s_classical-str"),
        pytest.param(lambda: joint_triple("x"), id="joint_triple-str"),
        pytest.param(lambda: ensemble_joint("x", PAIR_AB), id="ensemble_joint-str"),
        pytest.param(lambda: estimate_joint("a", "b"), id="estimate_joint-str-record"),
        pytest.param(lambda: estimate_joint(RECORD, "b"), id="estimate_joint-str-reference"),
        pytest.param(lambda: accidental_estimate("a", 1e-9), id="accidental-str-record"),
        pytest.param(lambda: estimate_to_json("x"), id="estimate_to_json-str"),
        pytest.param(lambda: full_scan_surface_csv("x"), id="surface_csv-str"),
        pytest.param(lambda: full_scan_profile_csv("x"), id="profile_csv-str"),
        pytest.param(lambda: s_quantum((1, 2, 3)), id="s_quantum-tuple"),
        pytest.param(lambda: export_surface("x"), id="export_surface-str"),
        pytest.param(lambda: random_ensemble(None), id="random_ensemble-None"),
        pytest.param(lambda: ClassicalEnsemble(5), id="ClassicalEnsemble-int"),
        pytest.param(lambda: ClassicalEnsemble.from_weights(5), id="from_weights-int"),
        pytest.param(lambda: atom_joint("x", PAIR_AB), id="atom_joint-str-state"),
        # Outcomes are Outcome members, amplitudes real; an equal integer is not an Outcome.
        pytest.param(lambda: atom_joint(ALL_STATES[0], INT_PAIR), id="atom_joint-int-outcomes"),
        pytest.param(
            lambda: ensemble_joint(ClassicalEnsemble.uniform(), INT_PAIR),
            id="ensemble_joint-int-outcomes",
        ),
        pytest.param(lambda: GeneralizedState(1, -1, 1), id="GeneralizedState-int"),
        pytest.param(lambda: ALL_STATES[0].outcome_of("a"), id="outcome_of-str"),
        pytest.param(lambda: ALL_STATES[0].outcome_of(None), id="outcome_of-None"),
        pytest.param(lambda: eigenstate(PropertySetting(30), 1), id="eigenstate-int-outcome"),
        pytest.param(lambda: PureState(0.6, 0.8j), id="PureState-complex"),
        # Each qubit argument that should be a state, a setting or a projection.
        pytest.param(lambda: eigenstate("x", Outcome.PLUS), id="eigenstate-str-prop"),
        pytest.param(lambda: transition_probability(1, 2), id="transition-int-states"),
        pytest.param(lambda: transition_probability(H, "V"), id="transition-str-state"),
        pytest.param(lambda: marginal_probability("H", PREP), id="marginal-str-initial"),
        pytest.param(lambda: marginal_probability(H, 5), id="marginal-int-prep"),
        pytest.param(lambda: conditional_probability(5, PREP), id="conditional-int-meas"),
        pytest.param(lambda: conditional_probability(PREP, (PREP,)), id="conditional-short-prep"),
        pytest.param(lambda: parse_surface(True, "json"), id="parse_surface-bool-json"),
        pytest.param(lambda: ExperimentConfig.from_mapping([]), id="from_mapping-list"),
        pytest.param(lambda: ExperimentConfig.from_json("[" * 100_000), id="from_json-deep-list"),
        pytest.param(
            lambda: ExperimentConfig.from_json('{"a":' * 100_000), id="from_json-deep-object"
        ),
        pytest.param(
            lambda: ExperimentConfig.from_mapping({1: 0.0, "x": 0.0}), id="from_mapping-int-key"
        ),
        # Fields each in range whose products numpy's Poisson sampler refuses.
        *(
            pytest.param(lambda fields=fields: ExperimentConfig.from_mapping(fields), id=name)
            for name, fields in [
                ("config-heralded-mean", {"heralded_rate": 1e19}),
                ("config-long-integration", {"integration_time": 1e300}),
                ("config-dark-mean", {"dark_rate_d1": 1e300}),
                ("config-wide-window", {"coincidence_window": 1e300}),
                ("config-accidental-mean", {"heralded_rate": 1e18, "coincidence_window": 1.0}),
            ]
        ),
    ],
)
def test_hole_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


# Config documents raise the bench's ValueError subclass, which the table
# above cannot tell from another ValueError.
@pytest.mark.parametrize(
    "document",
    [
        pytest.param('{"rng_seed": 1' + "0" * 5000 + "}", id="from_json-over-long-int"),
        pytest.param(None, id="from_json-None"),
    ],
)
def test_config_document_hole_is_a_config_error(document):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(document)


def test_int_config_fields_are_stored_as_floats():
    cfg = ExperimentConfig(heralded_rate=50_000, rng_seed=np.int64(3))
    assert type(cfg.heralded_rate) is float and type(cfg.rng_seed) is int
    assert '"heralded_rate": 50000.0' in cfg.to_json()


def test_json_integers_are_numbers():
    land = parse_surface('{"axes": [[0], [0], [6, 12]], "values": [1, -0.5]}', "json")
    assert land.axes[2].tolist() == [6.0, 12.0] and land.values.tolist() == [1.0, -0.5]


# The draws the entry points must survive: every JSON scalar, plus the
# non-finite floats and an int too large for a float.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
)


def numbers_or(valid):
    """A scalar draw, or a valid value so that later arguments get checked too."""
    return st.one_of(SCALARS, st.just(valid))


FIELDS = st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)])

# Each public name that takes numbers, with strategies for its arguments;
# any argument that is not a number is a fixed valid object.
NUMERIC = {
    "AngleTriple": (AngleTriple, [numbers_or(10.0)] * 3),
    "ClassicalEnsemble": (
        lambda a, b: ClassicalEnsemble({ALL_STATES[0]: a, ALL_STATES[5]: b}),
        [numbers_or(0.5)] * 2,
    ),
    "ClassicalEnsemble.from_weights": (
        lambda a, b: ClassicalEnsemble.from_weights([a, b] + [0.0] * 6),
        [numbers_or(0.5)] * 2,
    ),
    # Counts must be integers >= 0 and the duration positive.
    "CountRecord": (
        lambda n, t: CountRecord(n, n, n, n, n, SETTING, t),
        [numbers_or(10), numbers_or(1.0)],
    ),
    "EstimatedProbability": (EstimatedProbability, [numbers_or(0.5), numbers_or(0.1)]),
    "ExperimentConfig": (lambda name, value: ExperimentConfig(**{name: value}), [FIELDS, SCALARS]),
    "ExperimentConfig.ideal": (ExperimentConfig.ideal, [numbers_or(1e4), numbers_or(1)]),
    "ExperimentConfig.from_mapping": (
        lambda name, value: ExperimentConfig.from_mapping({name: value}),
        [FIELDS, SCALARS],
    ),
    "JointTriple": (JointTriple, [numbers_or(0.3)] * 3),
    "Outcome": (Outcome, [SCALARS]),
    "PropertySetting": (PropertySetting, [SCALARS]),
    "PropertySetting.at": (PropertySetting.at, [SCALARS]),
    "PureState": (PureState, [numbers_or(1.0), numbers_or(0.0)]),
    "ScanGrid": (ScanGrid, [numbers_or(0.0), numbers_or(180.0), numbers_or(90.0)]),
    "SEstimate": (SEstimate, [numbers_or(-0.4), numbers_or(0.02)]),
    "Setting": (Setting, [numbers_or(20.0), numbers_or(25.0)]),
    "Setting.for_angles": (Setting.for_angles, [numbers_or(20.0), numbers_or(50.0)]),
    "accidental_estimate": (lambda w: accidental_estimate(RECORD, w), [SCALARS]),
    "classical_bound_holds": (lambda e: classical_bound_holds(TRIPLE, e), [SCALARS]),
    "estimate_joint": (
        lambda w: estimate_joint(RECORD, REFERENCE, subtract_window=w),
        [st.one_of(SCALARS, st.just(None))],
    ),
    "eigenstate": (lambda outcome: eigenstate(PropertySetting.at(20.0), outcome), [SCALARS]),
    "fit_classical": (lambda tol: fit_classical(TRIPLE, tol), [SCALARS]),
    "grid_scan": (grid_scan, [numbers_or(GRID)] * 3),
    # One seed node keeps the refinement short at any tolerance.
    "minimize_s": (
        lambda tol, starts: minimize_s(ScanGrid(60.0, 60.0, 90.0), tol, starts),
        [numbers_or(0.01), numbers_or(5)],
    ),
    "run_full_scan": (
        lambda a, b: run_full_scan(COARSE, a, b),
        [numbers_or(150.0), numbers_or(120.0)],
    ),
}

# Public names that take no number argument: constants, exceptions, enums
# and records of other objects, functions of states, ensembles, settings,
# landscapes or documents, and result containers the library builds.
# canonical_degrees is the unchecked arithmetic behind every angle check.
NOT_NUMERIC = {
    "ALL_STATES", "ConfigError", "FullScanResult", "GeneralizedState", "H",
    "InsufficientStatisticsError", "Optimum", "Property", "SLandscape",
    "V", "atom_joint", "canonical_degrees", "conditional_probability", "ensemble_joint",
    "enumerate_vertices", "estimate_S", "export_surface", "joint_probability", "joint_triple",
    "marginal_probability", "parse_surface", "random_ensemble", "s_classical", "s_quantum",
    "simulate_setting", "transition_probability",
}  # fmt: skip


def test_every_public_name_is_classified():
    numeric = {name.split(".")[0] for name in NUMERIC}
    assert numeric.isdisjoint(NOT_NUMERIC)
    assert numeric | NOT_NUMERIC == set(pmlab.__all__)


#: The modules whose ``__all__`` lists pmlab re-exports.
API_MODULES = (pmlab.bench, pmlab.classical, pmlab.landscape, pmlab.qubit)


@pytest.mark.parametrize("module", API_MODULES, ids=lambda module: module.__name__)
def test_module_lists_only_what_it_defines(module):
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)


def test_module_lists_partition_the_package_list():
    names = [name for module in API_MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(pmlab.__all__)


#: Entry points that document InsufficientStatisticsError for valid input.
MAY_LACK_STATISTICS = {"estimate_joint"}


@pytest.mark.parametrize("name", sorted(NUMERIC))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_entry_point_returns_or_raises_value_error(name, data):
    call, strategies = NUMERIC[name]
    args = [data.draw(strategy) for strategy in strategies]
    allowed = ValueError
    if name in MAY_LACK_STATISTICS:
        allowed = (ValueError, InsufficientStatisticsError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except allowed:
            pass
