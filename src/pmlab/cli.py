"""Command-line front end.

Subcommands cover the full toolkit: landscape scans and export, global
minimization, classical-bound verification, triple feasibility fitting,
and the seeded virtual bench.  All output is deterministic for a fixed
seed; machine formats are selected with --format.

Exit codes: 0 success, 1 I/O failure, 2 bad flags or config, 3 classical
bound violated (implementation bug), 4 infeasible triple, 5 insufficient
statistics.  Subcommands return 0, 3 or 4 and raise on failure; ``main``
alone maps the exceptions to codes 1, 2 and 5.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench, classical, landscape, qubit

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_BOUND_VIOLATION = 3
EXIT_INFEASIBLE = 4
EXIT_NO_STATS = 5


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(path: str | None) -> bench.ExperimentConfig:
    if path is None:
        return bench.ExperimentConfig()
    try:
        document = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise bench.ConfigError(f"cannot read config {path}: {exc}") from exc
    return bench.ExperimentConfig.from_json(document)


def _cmd_scan(args: argparse.Namespace) -> int:
    grid = landscape.ScanGrid.full_range(args.step)
    axis_a = args.fix_a if args.fix_a is not None else grid
    axis_b = args.fix_b if args.fix_b is not None else grid
    land = landscape.grid_scan(axis_a, axis_b, grid)
    document = landscape.export_surface(land, args.format)
    if args.out is None:
        sys.stdout.write(document)
    else:
        Path(args.out).write_text(document, encoding="utf-8")
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    opt = landscape.minimize_s(landscape.ScanGrid.full_range(args.step), tolerance=args.tol)
    print(f"s_min = {opt.s_min:.6f}")
    print(f"evaluations = {opt.evaluations}")
    a, b, c = opt.argmin.as_tuple()
    print(f"argmin: theta_a = {a:.4f}, theta_b = {b:.4f}, theta_c = {c:.4f}")
    print(f"degenerate minima found: {len(opt.candidates)}")
    for cand in opt.candidates:
        ca, cb, cc = cand.as_tuple()
        print(f"  theta_a = {ca:.4f}, theta_b = {cb:.4f}, theta_c = {cc:.4f}")
    return EXIT_OK


#: Ensembles drawn per array pass: 16,384 rows of eight float64 weights, 1 MiB.
_CHUNK = 16_384


def _sampled_witness(rng: np.random.Generator, samples: int):
    """Yield the witness of ``samples`` random ensembles, one array per chunk.

    Bit for bit and in order, ``s_classical(random_ensemble(rng))`` per sample.
    """
    for start in range(0, samples, _CHUNK):
        weights = rng.dirichlet(classical._SIMPLEX_ALPHA, size=min(_CHUNK, samples - start))
        yield classical._witness(list(weights.T))


def _cmd_classical_verify(args: argparse.Namespace) -> int:
    qubit._number("--samples", args.samples, 1, integer=True)
    qubit._number("--seed", args.seed, 0, integer=True)
    vertices = classical.enumerate_vertices()
    print("vertex witness values: " + ", ".join(f"{value:g}" for _, value in vertices))
    for state, value in vertices:
        print(f"  {state.label()}  S = {value:g}")

    vertex_values = [value for _, value in vertices]
    lo, hi = min(vertex_values), max(vertex_values)
    for values in _sampled_witness(np.random.default_rng(args.seed), args.samples):
        lo = min(lo, values.min())
        hi = max(hi, values.max())
    print(f"random ensembles sampled: {args.samples}")
    print(f"observed S range: [{lo:.9f}, {hi:.9f}]")

    tol = classical.BOUND_EPSILON
    if lo < -tol or hi > 1.0 + tol:
        print("BOUND VIOLATED")
        return EXIT_BOUND_VIOLATION
    print("bound satisfied: 0 <= S <= 1 for every ensemble")
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    triple = classical.JointTriple(p_ab=args.p_ab, p_bc=args.p_bc, p_ac=args.p_ac)
    ensemble = classical.fit_classical(triple)
    if ensemble is None:
        print("INFEASIBLE (quantum-signature)")
        return EXIT_INFEASIBLE
    print("feasible ensemble:")
    for state, weight in ensemble.weights.items():
        if weight > 0.0:
            print(f"  {state.label()}  weight = {weight:.9f}")
    refit = classical.joint_triple(ensemble)
    print(
        f"reproduced triple: p_ab = {refit.p_ab:.9f}, "
        f"p_bc = {refit.p_bc:.9f}, p_ac = {refit.p_ac:.9f}"
    )
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    triple = landscape.AngleTriple(args.theta_a, args.theta_b, args.theta_c)
    estimate = bench.estimate_S(cfg, triple)
    if args.format == "json":
        sys.stdout.write(bench.estimate_to_json(estimate))
    else:
        print(f"S = {estimate.value:.6f}")
        print(f"std_error = {estimate.std_error:.6f}")
        print(f"sigma_violation = {estimate.sigma_violation:.3f}")
    return EXIT_OK


def _cmd_full_scan(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    result = bench.run_full_scan(cfg, theta_a=args.theta_a, theta_b_profile=args.theta_b)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "surface.csv").write_text(bench.full_scan_surface_csv(result), encoding="utf-8")
    (out_dir / "profile.csv").write_text(bench.full_scan_profile_csv(result), encoding="utf-8")
    print(f"wrote {out_dir / 'surface.csv'}")
    print(f"wrote {out_dir / 'profile.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmlab",
        description="Prepare-and-measure polarization toolkit: landscape scans, "
        "global minimization, classical-bound checks, and a virtual counting bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="export the witness landscape on a grid")
    p_scan.add_argument("--fix-a", type=float, default=None, metavar="DEG")
    p_scan.add_argument("--fix-b", type=float, default=None, metavar="DEG")
    p_scan.add_argument("--step", type=float, default=6.0, metavar="DEG")
    p_scan.add_argument("--out", default=None, metavar="FILE")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.set_defaults(func=_cmd_scan)

    p_opt = sub.add_parser("optimize", help="find the global witness minimum")
    p_opt.add_argument("--step", type=float, default=6.0, metavar="DEG")
    p_opt.add_argument("--tol", type=float, default=0.01, metavar="DEG")
    p_opt.set_defaults(func=_cmd_optimize)

    p_ver = sub.add_parser(
        "classical-verify", help="verify the classical bound by enumeration and sampling"
    )
    p_ver.add_argument("--samples", type=int, default=10000, metavar="N")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_classical_verify)

    p_fit = sub.add_parser("fit", help="fit a classical ensemble to a probability triple")
    p_fit.add_argument("--p-ab", type=float, required=True, metavar="P")
    p_fit.add_argument("--p-bc", type=float, required=True, metavar="P")
    p_fit.add_argument("--p-ac", type=float, required=True, metavar="P")
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="estimate the witness on the virtual bench")
    p_sim.add_argument("--config", default=None, metavar="FILE")
    p_sim.add_argument("--theta-a", type=float, default=157.0, metavar="DEG")
    p_sim.add_argument("--theta-b", type=float, default=123.5, metavar="DEG")
    p_sim.add_argument("--theta-c", type=float, default=77.5, metavar="DEG")
    p_sim.add_argument("--format", choices=("text", "json"), default="text")
    p_sim.set_defaults(func=_cmd_simulate)

    p_full = sub.add_parser(
        "full-scan", help="simulate the full acquisition and write surface/profile files"
    )
    p_full.add_argument("--config", default=None, metavar="FILE")
    p_full.add_argument("--out", required=True, metavar="DIR")
    p_full.add_argument("--theta-a", type=float, default=156.0, metavar="DEG")
    p_full.add_argument("--theta-b", type=float, default=126.0, metavar="DEG")
    p_full.set_defaults(func=_cmd_full_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except bench.InsufficientStatisticsError as exc:
        return _fail(str(exc), EXIT_NO_STATS)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_IO)
