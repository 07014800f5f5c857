"""The three benchmark workloads, their seeded inputs and their output checks.

Every input is drawn from ``random.Random`` keyed by workload, seed and
operation index, so a seed fixes the whole operation stream and any
prefix of it.  The checks use oracles written here, not pmlab's own
code: the witness from the prepare-then-measure joints
``cos^2(prep) sin^2(meas - prep)``, and the classical polytope in closed
form, ``{p >= 0, p_ac <= p_ab + p_bc, p_ab + p_bc <= 1}``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import pmlab.bench
import pmlab.classical
import pmlab.cli
import pmlab.landscape
import pmlab.qubit
import tracing

S_MIN = -0.4034
OPTIMUM = (157.0, 123.5, 77.5)
MIRROR = tuple(180.0 - x for x in OPTIMUM)
#: Half a unit in the sixth decimal: what a value written with 6 decimals
#: may differ by after reading it back.
CSV_SLACK = 5e-7 + 1e-12
CHILD_TIMEOUT_S = 120
#: A surface node may lack data only where the bench expects fewer true
#: coincidences than this (Poisson chance of none: e^-30).
HOLE_COUNTS = 30.0


def joint(prep, meas):
    """P(pass the polarizer at ``prep``, then exit minus at ``meas``), degrees."""
    p, m = np.radians(prep), np.radians(meas)
    return np.cos(p) ** 2 * np.sin(m - p) ** 2


def witness(a, b, c):
    return joint(a, b) + joint(b, c) - joint(a, c)


def expected_coincidences(theta_prep):
    """Mean true coincidences for a setting prepared at ``theta_prep``, default bench."""
    cfg = pmlab.bench.ExperimentConfig()
    per_pass = cfg.heralded_rate * cfg.integration_time * cfg.eff_d3 * min(cfg.eff_d1, cfg.eff_d2)
    return per_pass * np.cos(np.radians(theta_prep)) ** 2


def classically_feasible(p_ab: float, p_bc: float, p_ac: float) -> bool:
    return min(p_ab, p_bc, p_ac) >= 0.0 and p_ac <= p_ab + p_bc and p_ab + p_bc <= 1.0


# Vertices of the classical polytope in (p_ab, p_bc, p_ac).
_HULL_POINTS = ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1))
#: Sampled triples stay this far from every facet, so the verdict cannot
#: hinge on the fitter's tolerance.
FACET_MARGIN = 1e-3


def _round9(triple):
    return tuple(round(p, 9) for p in triple)


def inside_triple(rng: random.Random) -> tuple[float, float, float]:
    while True:
        weights = [rng.expovariate(1.0) for _ in _HULL_POINTS]
        total = sum(weights)
        triple = _round9(
            sum(w * pt[k] for w, pt in zip(weights, _HULL_POINTS)) / total for k in range(3)
        )
        p_ab, p_bc, p_ac = triple
        if min(p_ab, p_bc, p_ac, p_ab + p_bc - p_ac, 1.0 - p_ab - p_bc) >= FACET_MARGIN:
            return triple


def outside_triple(rng: random.Random) -> tuple[float, float, float]:
    violation = rng.uniform(2 * FACET_MARGIN, 0.3)
    if rng.random() < 0.5:  # p_ac above p_ab + p_bc
        p_ab = rng.uniform(0.0, 0.35)
        p_bc = rng.uniform(0.0, 0.35)
        return _round9((p_ab, p_bc, p_ab + p_bc + violation))
    p_ab = rng.uniform(violation, 1.0)  # p_ab + p_bc above 1
    return _round9((p_ab, 1.0 + violation - p_ab, rng.uniform(0.0, 1.0)))


def quantum_triple() -> tuple[float, float, float]:
    a, b, c = OPTIMUM
    return _round9((float(joint(a, b)), float(joint(b, c)), float(joint(a, c))))


def near_optimum(angles, slack: float = 0.5) -> bool:
    return any(
        all(abs(x - y) <= slack for x, y in zip(angles, target)) for target in (OPTIMUM, MIRROR)
    )


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def check_full_scan(surface: str, profile: str, theta_a: float, theta_b: float,
                    n_nodes: int, fit_profile: bool) -> list[str]:
    """Row counts, data holes, theory columns and the profile minimum.

    Holes sit where the preparation is (nearly) orthogonal to the input:
    only at theta_b = 90 on the 6 degree grid, within 2.3 degrees of it on
    the 1 degree grid at the default rates.
    """
    failures = []
    surface_rows = [line.split(",") for line in surface.splitlines()[1:]]
    profile_rows = [line.split(",") for line in profile.splitlines()[1:]]
    if surface.splitlines()[0] != "theta_b,theta_c,s_sim,std_error,sigma,s_theory":
        failures.append("surface header")
    if len(surface_rows) != n_nodes * n_nodes or len(profile_rows) != n_nodes:
        return failures + [f"row counts {len(surface_rows)}, {len(profile_rows)} for {n_nodes} nodes"]
    cells = np.array(surface_rows, dtype=float)
    holes = np.isnan(cells[:, 2])
    if np.any(expected_coincidences(cells[holes, 0]) >= HOLE_COUNTS):
        failures.append("surface nodes without data where coincidences are expected")
    if np.any(np.isnan(cells[~holes, 2:5])):
        failures.append("partial nan row")
    theory = witness(theta_a, cells[:, 0], cells[:, 1])
    if np.max(np.abs(cells[:, 5] - theory)) > CSV_SLACK:
        failures.append("surface s_theory differs from the witness")
    prof = np.array(profile_rows, dtype=float)
    if np.any(np.isnan(prof)):
        failures.append("profile has nan")
    elif np.max(np.abs(prof[:, 4] - witness(theta_a, theta_b, prof[:, 0]))) > CSV_SLACK:
        failures.append("profile s_theory differs from the witness")
    elif fit_profile:
        # Vertex of a parabola through the simulated profile near 78 degrees:
        # steadier than the raw argmin, which counting noise moves by degrees.
        window = np.abs(prof[:, 0] - 78.0) <= 20.0
        a2, a1, _ = np.polyfit(prof[window, 0], prof[window, 1], 2)
        vertex = -a1 / (2.0 * a2)
        if not (a2 > 0 and abs(vertex - 78.0) <= 2.0):
            failures.append(f"profile minimum at theta_c = {vertex:.2f}, not near 78")
    return failures


class Workload:
    """One stream of operations: ``input(i)`` is op i, ``input(-1)`` the warm-up."""

    name = ""
    in_process = True  # False when operations run in child processes
    trace_ops = 1  # operations in the traced sample
    min_ops = 1

    def __init__(self, seed: int, tiny: bool, out_dir: Path, src: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir
        self.src = src
        out_dir.mkdir(parents=True, exist_ok=True)

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}:")

    def run(self, inp):
        return self.run_in_process(inp)

    def named_metrics(self, times: list[float]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


class CliSession(Workload):
    """Fresh ``python -m pmlab`` processes drawn from all six subcommands."""

    name = "cli-session"
    in_process = False
    trace_ops = 36
    SUBCOMMANDS = tracing.CLI_SUBCOMMANDS

    def __init__(self, *args) -> None:
        super().__init__(*args)
        if self.tiny:
            self.min_ops = 12  # two blocks: every subcommand, and a tail with ten beyond
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def input(self, i: int) -> dict:
        if i < 0:
            sub = "fit"
        else:
            order = list(self.SUBCOMMANDS)
            random.Random(f"{self.name}:{self.seed}:block:{i // 6}").shuffle(order)
            sub = order[i % 6]
        rng = self.rng(i)
        inp = {"sub": sub, "i": i}
        if sub == "fit":
            pick = rng.random()
            triple = quantum_triple() if i < 0 or pick < 0.2 else (
                inside_triple(rng) if pick < 0.6 else outside_triple(rng))
            inp["triple"] = triple
            inp["argv"] = ["fit"] + [
                x for flag, p in zip(("--p-ab", "--p-bc", "--p-ac"), triple)
                for x in (flag, f"{p:.9f}")
            ]
        elif sub == "simulate":
            # Preparations a and b stay clear of 90 degrees, where nothing passes.
            a, b = (round(rng.choice((rng.uniform(0, 75), rng.uniform(105, 180))), 1)
                    for _ in range(2))
            c = round(rng.uniform(0, 180), 1)
            inp["angles"] = (a, b, c)
            inp["format"] = rng.choice(("text", "json"))
            config = self._config(i, heralded_rate=rng.choice((2e4, 5e4, 1e5)),
                                  rng_seed=rng.randrange(2**31))
            inp["argv"] = ["simulate", "--config", config, "--theta-a", str(a),
                           "--theta-b", str(b), "--theta-c", str(c), "--format", inp["format"]]
        elif sub == "optimize":
            inp["argv"] = ["optimize", "--step", "6"]
        elif sub == "scan":
            a, b = (rng.randrange(360) / 2 for _ in range(2))
            inp["fixed"] = (a, b)
            inp["format"] = rng.choice(("csv", "json"))
            inp["argv"] = ["scan", "--fix-a", str(a), "--fix-b", str(b), "--step", "1",
                           "--format", inp["format"]]
        elif sub == "classical-verify":
            inp["argv"] = ["classical-verify", "--samples", "1000",
                           "--seed", str(rng.randrange(2**31))]
        else:
            config = self._config(i, rng_seed=rng.randrange(2**31))
            inp["dir"] = self.out_dir / "full-scan"
            shutil.rmtree(inp["dir"], ignore_errors=True)
            inp["argv"] = ["full-scan", "--config", config, "--out", str(inp["dir"])]
        return inp

    def _config(self, i: int, **fields) -> str:
        path = self.out_dir / f"config-{i}.json"
        path.write_text(json.dumps(fields), encoding="utf-8")
        return str(path)

    def run(self, inp):
        proc = subprocess.run(
            [sys.executable, "-m", "pmlab", *inp["argv"]],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pmlab.cli.main(list(inp["argv"]))
        return code, out.getvalue(), err.getvalue()

    def check(self, inp, output) -> tuple[list[str], str]:
        code, out, err = output
        sub = inp["sub"]
        files = b""
        try:
            failures = getattr(self, "_check_" + sub.replace("-", "_"))(inp, code, out)
            if sub == "full-scan" and not failures:
                files = b"".join((inp["dir"] / name).read_bytes()
                                 for name in ("surface.csv", "profile.csv"))
        except (ValueError, IndexError, KeyError, OSError) as exc:
            failures = [f"unreadable output: {exc!r}"]
        if err:
            failures.append(f"stderr: {err.strip()[:200]}")
        # full-scan names its output files; keep the digest independent of the checkout.
        out = out.replace(str(self.out_dir), "<out>")
        return [f"{sub} op {inp['i']}: {f}" for f in failures], digest(code, out, files)

    def _check_fit(self, inp, code, out):
        feasible = classically_feasible(*inp["triple"])
        if code != (0 if feasible else 4):
            return [f"exit {code} for a {'feasible' if feasible else 'infeasible'} triple"]
        if not feasible:
            return [] if out == "INFEASIBLE (quantum-signature)\n" else ["infeasible output"]
        lines = out.splitlines()
        weights = [float(line.rsplit("=", 1)[1]) for line in lines if "weight =" in line]
        refit = [float(part.split("=")[1]) for part in lines[-1].split(":")[1].split(",")]
        failures = []
        if abs(sum(weights) - 1.0) > 1e-6:
            failures.append(f"weights sum to {sum(weights)}")
        if max(abs(x - y) for x, y in zip(refit, inp["triple"])) > 2e-6:
            failures.append("reproduced triple differs from the input")
        return failures

    def _check_simulate(self, inp, code, out):
        if code != 0:
            return [f"exit {code}"]
        if inp["format"] == "json":
            payload = json.loads(out)
            value, error = payload["value"], payload["std_error"]
        else:
            value, error = (float(line.split("=")[1]) for line in out.splitlines()[:2])
        truth = float(witness(*inp["angles"]))
        if not (error > 0 and abs(value - truth) <= 6.0 * error + 1e-6):
            return [f"S = {value} +- {error}, witness {truth}"]
        return []

    def _check_optimize(self, inp, code, out):
        if code != 0:
            return [f"exit {code}"]
        lines = out.splitlines()
        s_min = float(lines[0].split("=")[1])
        argmin = [float(part.split("=")[1]) for part in lines[2].split(":")[1].split(",")]
        if abs(s_min - S_MIN) > 5e-4 or not near_optimum(argmin):
            return [f"minimum {s_min} at {argmin}"]
        return []

    def _check_scan(self, inp, code, out):
        if code != 0:
            return [f"exit {code}"]
        a, b = inp["fixed"]
        if inp["format"] == "json":
            payload = json.loads(out)
            angles = np.array(payload["axes"][2])
            values = np.array(payload["values"])
            slack = 1e-12
        else:
            lines = out.splitlines()
            if lines[0] != "theta_c,S":
                return ["csv header"]
            angles, values = np.array([line.split(",") for line in lines[1:]], dtype=float).T
            slack = CSV_SLACK
        if not np.array_equal(angles, np.arange(181.0)):
            return ["scan axis"]
        if np.max(np.abs(values - witness(a, b, angles))) > slack:
            return ["scan values differ from the witness"]
        return []

    def _check_classical_verify(self, inp, code, out):
        if code != 0:
            return [f"exit {code}"]
        lines = out.splitlines()
        vertices = sorted(float(v) for v in lines[0].split(":")[1].split(","))
        lo, hi = (float(v) for v in lines[-2].split("[")[1].rstrip("]").split(","))
        failures = []
        if vertices != [0.0] * 6 + [1.0] * 2:
            failures.append(f"vertex values {vertices}")
        if lo < -1e-9 or hi > 1.0 + 1e-9 or lines[-3] != "random ensembles sampled: 1000":
            failures.append(f"sampled range [{lo}, {hi}]")
        return failures

    def _check_full_scan(self, inp, code, out):
        if code != 0:
            return [f"exit {code}"]
        return check_full_scan(
            (inp["dir"] / "surface.csv").read_text(), (inp["dir"] / "profile.csv").read_text(),
            156.0, 126.0, 31, fit_profile=False,
        )

    def named_metrics(self, times):
        named = {"cli_p50_s": (statistics.median(times), "s")}
        tail = tail_percentile(times)
        if tail is not None:
            value, rank = tail
            named["cli_tail_s"] = (value, "s")
            named["cli_tail_percentile"] = (rank, "%")
        return named


class Acquisition(Workload):
    """In-process acquisitions on the 1 degree grid, each with both CSVs written."""

    name = "acquisition"
    trace_ops = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # p2_step 1 / hwp_step 0.5 puts 181 nodes on each axis.
        self.steps, self.axis_nodes = ((2.0, 1.0), 91) if self.tiny else ((1.0, 0.5), 181)

    @property
    def nodes_per_op(self) -> int:
        return self.axis_nodes * self.axis_nodes + self.axis_nodes

    def input(self, i: int) -> dict:
        # Warm-ups share one input, so their CSV bytes must be identical.
        return {"i": i, "rng_seed": self.rng(i).randrange(2**31)}

    def run_in_process(self, inp):
        cfg = pmlab.bench.ExperimentConfig(
            p2_step=self.steps[0], hwp_step=self.steps[1], rng_seed=inp["rng_seed"]
        )
        result = pmlab.bench.run_full_scan(cfg)
        surface = pmlab.bench.full_scan_surface_csv(result)
        profile = pmlab.bench.full_scan_profile_csv(result)
        (self.out_dir / "surface.csv").write_text(surface, encoding="utf-8")
        (self.out_dir / "profile.csv").write_text(profile, encoding="utf-8")
        return result, surface, profile

    def check(self, inp, output):
        result, surface, profile = output
        failures = check_full_scan(surface, profile, 156.0, 126.0, self.axis_nodes,
                                   fit_profile=True)
        if not failures:
            written = np.array([line.split(",")[2] for line in surface.splitlines()[1:]],
                               dtype=float)
            held = np.array([np.nan if est is None else est.value
                             for row in result.surface for est in row])
            if not np.array_equal(np.isnan(written), np.isnan(held)) or np.nanmax(
                    np.abs(written - held)) > CSV_SLACK:
                failures.append("surface CSV does not round-trip the estimates")
        return [f"acquisition op {inp['i']}: {f}" for f in failures], digest(surface, profile)

    def named_metrics(self, times):
        return {
            "acq_scan_p50_s": (statistics.median(times), "s"),
            "acq_nodes_per_s": (self.nodes_per_op * len(times) / sum(times), "nodes/s"),
        }


class Analysis(Workload):
    """In-process rounds reproducing the paper's headline numbers."""

    name = "analysis"
    trace_ops = 2
    #: (seed-grid step, tolerance, starts) for the multistart minimizer.
    MINIMIZE = ((6.0, 1e-3, 10), (4.0, 5e-4, 10), (5.0, 1e-3, 20),
                (9.0, 1e-4, 30), (10.0, 1e-3, 40), (12.0, 1e-4, 60))

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Full cube step, classical ensembles, fits on each side of the hull.
        self.grid_step, self.ensembles, self.fits = (12.0, 1000, 10) if self.tiny else (
            4.0, 10_000, 100)
        self.minimize = self.MINIMIZE[:2] if self.tiny else self.MINIMIZE
        # The propagated errors run slightly large (residual variance near
        # 0.85), so 400 seeds keep a chance failure of the [0.5, 2] check
        # below 1e-8 per round; 50 seeds would fail about one round in fifty.
        self.calibration_seeds = 400

    def input(self, i: int) -> dict:
        rng = self.rng(i)
        minimize = list(self.minimize)
        rng.shuffle(minimize)
        triples = [inside_triple(rng) for _ in range(self.fits)]
        triples += [outside_triple(rng) for _ in range(self.fits)]
        triples.append(quantum_triple())
        return {
            "i": i,
            "minimize": minimize,
            "ensemble_seed": rng.randrange(2**63),
            "triples": triples,
            "calibration": rng.sample(range(2**31), self.calibration_seeds),
        }

    def run_in_process(self, inp):
        landscape, classical, bench = pmlab.landscape, pmlab.classical, pmlab.bench
        optima = []
        for step, tol, starts in inp["minimize"]:
            opt = landscape.minimize_s(landscape.ScanGrid.full_range(step), tolerance=tol,
                                       starts=starts)
            optima.append((opt.s_min, opt.argmin.as_tuple(), opt.evaluations,
                           landscape.s_quantum(opt.argmin)))
        grid = landscape.ScanGrid.full_range(self.grid_step)
        land = landscape.grid_scan(grid, grid, grid)
        csv_doc = landscape.export_surface(land, "csv")
        json_doc = landscape.export_surface(land, "json")
        from_csv = landscape.parse_surface(csv_doc, "csv")
        from_json = landscape.parse_surface(json_doc, "json")

        rng = np.random.default_rng(inp["ensemble_seed"])
        ensembles = [classical.random_ensemble(rng) for _ in range(self.ensembles)]
        sampled = [classical.s_classical(ens) for ens in ensembles]
        vertices = [value for _, value in classical.enumerate_vertices()]

        fits = [classical.fit_classical(classical.JointTriple(*t)) for t in inp["triples"]]

        optimum = landscape.AngleTriple(*OPTIMUM)
        calibration = [
            bench.estimate_S(bench.ExperimentConfig.ideal(1e6, rng_seed=s), optimum)
            for s in inp["calibration"]
        ]
        return {
            "optima": optima, "land": land, "csv": csv_doc, "json": json_doc,
            "from_csv": from_csv, "from_json": from_json, "ensembles": ensembles,
            "sampled": sampled, "vertices": vertices, "fits": fits,
            "calibration": [(e.value, e.std_error) for e in calibration],
        }

    def check(self, inp, out):
        failures = []
        for (step, tol, _), (s_min, argmin, _, at_argmin) in zip(inp["minimize"], out["optima"]):
            if abs(s_min - S_MIN) > 5e-4 or not near_optimum(argmin) or abs(
                    at_argmin - s_min) > 1e-12:
                failures.append(f"minimize step {step} tol {tol}: {s_min} at {argmin}")

        land = out["land"]
        axes = np.meshgrid(*land.axes, indexing="ij")
        if np.max(np.abs(land.values - witness(*(ax.ravel() for ax in axes)))) > 1e-12:
            failures.append("grid_scan differs from the witness")
        parsed = out["from_csv"]
        if parsed.values.shape != land.values.shape or np.max(
                np.abs(parsed.values - land.values)) > CSV_SLACK or any(
                np.max(np.abs(p - q)) > CSV_SLACK for p, q in zip(parsed.axes, land.axes)):
            failures.append("CSV round-trip")
        exact = out["from_json"]
        if not (np.array_equal(exact.values, land.values)
                and all(np.array_equal(p, q) for p, q in zip(exact.axes, land.axes))):
            failures.append("JSON round-trip is not exact")

        sampled = np.array(out["sampled"])
        if sampled.min() < -1e-9 or sampled.max() > 1.0 + 1e-9:
            failures.append(f"classical S outside [0, 1]: [{sampled.min()}, {sampled.max()}]")
        states = pmlab.classical.ALL_STATES
        plus, minus = pmlab.qubit.Outcome.PLUS, pmlab.qubit.Outcome.MINUS
        indicator = np.array([
            [s.alpha is plus and s.beta is minus for s in states],
            [s.beta is plus and s.gamma is minus for s in states],
            [s.alpha is plus and s.gamma is minus for s in states],
        ], dtype=float)
        weights = np.array([[ens.weights[s] for s in states] for ens in out["ensembles"]])
        if np.max(np.abs(weights @ (indicator[0] + indicator[1] - indicator[2]) - sampled)) > 1e-12:
            failures.append("s_classical differs from the weighted vertex values")
        if sorted(out["vertices"]) != [0.0] * 6 + [1.0] * 2:
            failures.append(f"vertex values {out['vertices']}")

        for triple, ens in zip(inp["triples"], out["fits"]):
            if (ens is not None) != classically_feasible(*triple):
                failures.append(f"fit verdict for {triple}")
            elif ens is not None:
                w = np.array([ens.weights[s] for s in states])
                if w.min() < 0 or abs(w.sum() - 1) > 1e-9 or np.max(
                        np.abs(indicator @ w - triple)) > 1e-6 + 1e-9:
                    failures.append(f"fitted ensemble does not reproduce {triple}")

        truth = float(witness(*OPTIMUM))
        z = [(value - truth) / error for value, error in out["calibration"]]
        variance = statistics.variance(z)
        if not 0.5 <= variance <= 2.0:
            failures.append(f"calibration residual variance {variance:.3f}")

        record = json.dumps({
            "optima": out["optima"], "sampled": out["sampled"],
            "fits": [None if e is None else [e.weights[s] for s in states] for e in out["fits"]],
            "calibration": out["calibration"],
        })
        return ([f"analysis op {inp['i']}: {f}" for f in failures],
                digest(out["csv"], out["json"], record))

    def named_metrics(self, times):
        return {
            "analysis_round_p50_s": (statistics.median(times), "s"),
            "analysis_rounds_per_s": (len(times) / sum(times), "rounds/s"),
        }


def tail_percentile(times: list[float]) -> tuple[float, float] | None:
    """The highest sample with at least ten samples above it, and its rank in %."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    return ordered[-11], 100.0 * (len(times) - 10) / len(times)


WORKLOADS = {cls.name: cls for cls in (CliSession, Acquisition, Analysis)}
