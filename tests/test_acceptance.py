"""Acceptance suite: every primary exit criterion, one test each.

Each test prints a single PASS line once its assertions hold (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are
pinned here and nowhere else.
"""
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pmlab.bench import ExperimentConfig, estimate_S, run_full_scan
from pmlab.classical import (
    ClassicalEnsemble,
    JointTriple,
    enumerate_vertices,
    fit_classical,
    joint_triple,
    random_ensemble,
    s_classical,
)
from pmlab.landscape import AngleTriple, ScanGrid, minimize_s, s_quantum
from pmlab.qubit import H, Outcome, PropertySetting, joint_probability

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# The two degenerate minimizers in [0, 180)^3 (second is the mirror image
# of the first through 90 degrees on every axis).
TARGET_ARGMIN = (157.0, 123.5, 77.5)
MIRROR_ARGMIN = (23.0, 56.5, 102.5)


def report(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def plus(deg):
    return (PropertySetting.at(deg), Outcome.PLUS)


def minus(deg):
    return (PropertySetting.at(deg), Outcome.MINUS)


def angles_match(found, target, tol=1.0):
    return all(min(abs(f - t), 180.0 - abs(f - t)) <= tol for f, t in zip(found, target))


def test_criterion_quantum_minimum():
    started = time.perf_counter()
    opt = minimize_s(ScanGrid.full_range(6.0), tolerance=0.01)
    elapsed = time.perf_counter() - started

    assert opt.s_min == pytest.approx(-0.403, abs=0.0005)
    found = opt.argmin.as_tuple()
    assert angles_match(found, TARGET_ARGMIN) or angles_match(found, MIRROR_ARGMIN)
    assert elapsed < 5.0
    report(
        f"quantum minimum: s_min={opt.s_min:.6f} at {tuple(round(x, 2) for x in found)} "
        f"in {elapsed:.2f}s"
    )


def test_criterion_witness_spot_checks():
    value = s_quantum(AngleTriple(157.0, 123.5, 77.5))
    assert value == pytest.approx(-0.403, abs=0.0005)

    rng = np.random.default_rng(101)
    for theta in rng.uniform(0.0, 180.0, size=100):
        assert s_quantum(AngleTriple(theta, theta, theta)) == 0.0
    report(f"spot checks: s(157, 123.5, 77.5)={value:.6f}; diagonal is exactly zero")


def test_criterion_classical_bound():
    started = time.perf_counter()
    values = [value for _, value in enumerate_vertices()]
    assert values == [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]

    rng = np.random.default_rng(102)
    lo, hi = math.inf, -math.inf
    for _ in range(100_000):
        value = s_classical(random_ensemble(rng))
        lo = min(lo, value)
        hi = max(hi, value)
    elapsed = time.perf_counter() - started
    assert lo >= 0.0 - 1e-9
    assert hi <= 1.0 + 1e-9
    assert elapsed < 10.0
    report(
        f"classical bound: vertices {values}; 100000 ensembles in "
        f"[{lo:.3e}, {hi:.6f}] in {elapsed:.1f}s"
    )


def test_criterion_cross_module_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        a, b, c = rng.uniform(0.0, 180.0, size=3)
        closed_form = s_quantum(AngleTriple(a, b, c))
        via_joints = (
            joint_probability(H, plus(a), minus(b))
            + joint_probability(H, plus(b), minus(c))
            - joint_probability(H, plus(a), minus(c))
        )
        worst = max(worst, abs(closed_form - via_joints))
    assert worst <= 1e-12
    report(f"cross-module equivalence: 1000 triples, worst gap {worst:.2e}")


def test_criterion_order_asymmetry():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        tp, tm = rng.uniform(0.0, 180.0, size=2)
        forward = joint_probability(H, plus(tp), minus(tm))
        backward = joint_probability(H, minus(tm), plus(tp))
        gap = math.sin(math.radians(tm - tp)) ** 2 * (
            math.cos(math.radians(tp)) ** 2 - math.sin(math.radians(tm)) ** 2
        )
        worst = max(worst, abs((forward - backward) - gap))
    assert worst <= 1e-12

    # Equality loci: same orientation, and cos^2(prep) = sin^2(meas).
    for tp in np.linspace(0.0, 179.0, 41):
        for tm in (tp, tp + 180.0, 90.0 - tp, 90.0 + tp):
            forward = joint_probability(H, plus(tp), minus(tm))
            backward = joint_probability(H, minus(tm), plus(tp))
            assert abs(forward - backward) <= 1e-12
    report(f"order asymmetry: identity within {worst:.2e}; equality loci confirmed")


def test_criterion_classicality_fitter():
    quantum_triple = JointTriple(p_ab=0.2582, p_bc=0.1576, p_ac=0.8190)
    assert fit_classical(quantum_triple) is None

    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        target = joint_triple(random_ensemble(rng))
        fitted = fit_classical(target)
        assert fitted is not None
        refit = joint_triple(fitted)
        worst = max(
            worst,
            abs(refit.p_ab - target.p_ab),
            abs(refit.p_bc - target.p_bc),
            abs(refit.p_ac - target.p_ac),
        )
    assert worst < 1e-6
    report(
        f"classicality fitter: quantum triple infeasible; 1000 ensemble triples "
        f"refit within {worst:.2e}"
    )


def test_criterion_monte_carlo_calibration():
    optimum = AngleTriple(157.0, 123.5, 77.5)
    truth = s_quantum(optimum)

    # Single high-statistics run against the quoted value.
    est = estimate_S(ExperimentConfig.ideal(1e6, rng_seed=2026), optimum)
    assert est.std_error < 0.005
    assert abs(est.value - (-0.403)) <= 5.0 * est.std_error

    # Standardized residuals against the analytic witness over 100 seeds.
    residuals = []
    for seed in range(100):
        e = estimate_S(ExperimentConfig.ideal(1e6, rng_seed=seed), optimum)
        residuals.append((e.value - truth) / e.std_error)
    residuals = np.array(residuals)
    mean = residuals.mean()
    var = residuals.var(ddof=1)
    assert -0.3 <= mean <= 0.3
    assert 0.6 <= var <= 1.6

    # Error scales as one over the square root of integration time.
    short = estimate_S(ExperimentConfig.ideal(1e4, rng_seed=3, integration_time=1.0), optimum)
    long = estimate_S(ExperimentConfig.ideal(1e4, rng_seed=3, integration_time=100.0), optimum)
    ratio = short.std_error / long.std_error
    assert 8.0 <= ratio <= 12.0  # within 20% of sqrt(100)

    # A noisier bench reproduces the reported violation of -0.39 +/- 0.03,
    # as a calibration over seeds rather than one draw: every error bar
    # sits near 0.03, the mean estimate is compatible with -0.39, and most
    # single runs fall within one combined sigma of it.
    noisy = [
        estimate_S(ExperimentConfig.ideal(2100, rng_seed=seed), optimum) for seed in range(200)
    ]
    noisy_values = np.array([e.value for e in noisy])
    noisy_errors = np.array([e.std_error for e in noisy])
    assert np.all((0.025 <= noisy_errors) & (noisy_errors <= 0.035))
    noisy_mean = noisy_values.mean()
    mean_error = noisy_values.std(ddof=1) / math.sqrt(len(noisy))
    assert abs(noisy_mean - (-0.39)) <= math.hypot(0.03, mean_error)
    inside = np.mean(np.abs(noisy_values - (-0.39)) <= np.hypot(noisy_errors, 0.03))
    assert inside >= 0.75
    report(
        "monte carlo calibration: "
        f"est={est.value:.4f}+-{est.std_error:.4f} (truth {truth:.4f}); "
        f"residual mean={mean:.2f} var={var:.2f}; time scaling ratio={ratio:.2f}; "
        f"noisy mean={noisy_mean:.4f}, {inside:.1%} of 200 seeds within -0.39+-0.03"
    )


def test_criterion_profile_reconstruction():
    result = run_full_scan(ExperimentConfig.ideal(1e6, rng_seed=5))
    values = np.array([est.value for est in result.profile])
    errors = np.array([est.std_error for est in result.profile])

    minimum_node = result.theta_c_axis[int(np.argmin(values))]
    assert minimum_node == 78.0

    deviation = np.abs(values - result.profile_theory) / np.where(errors > 0, errors, 1.0)
    within = float(np.mean(deviation <= 3.0))
    assert within >= 0.95
    report(
        f"profile reconstruction: minimum at theta_c={minimum_node:g}, "
        f"{within:.0%} of nodes within 3 sigma"
    )


def _run_cli(args, cwd=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "pmlab", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


def test_criterion_cli_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(ExperimentConfig.ideal(2000.0, rng_seed=5).to_json(), encoding="utf-8")
    coarse_path = tmp_path / "coarse.json"
    coarse_path.write_text(
        ExperimentConfig.ideal(5e4, rng_seed=11, p2_step=30.0, hwp_step=15.0).to_json(),
        encoding="utf-8",
    )

    invocations = [
        ["simulate", "--config", str(config_path)],
        ["simulate", "--config", str(config_path), "--format", "json"],
        ["classical-verify", "--samples", "300", "--seed", "42"],
        ["optimize", "--step", "30", "--tol", "0.05"],
        ["scan", "--fix-a", "156", "--fix-b", "126", "--step", "6"],
        ["fit", "--p-ab", "0.2582", "--p-bc", "0.1576", "--p-ac", "0.8190"],
    ]
    for args in invocations:
        first = _run_cli(args)
        second = _run_cli(args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout, f"stdout differs for {args}"

    # File outputs must match byte for byte as well.
    _run_cli(["full-scan", "--config", str(coarse_path), "--out", str(tmp_path / "a")])
    _run_cli(["full-scan", "--config", str(coarse_path), "--out", str(tmp_path / "b")])
    for name in ("surface.csv", "profile.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report("cli determinism: repeated invocations byte-identical (stdout and files)")
