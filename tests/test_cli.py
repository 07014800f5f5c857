"""Unit tests for the command-line front end: outputs and exit codes."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlab import classical, cli
from pmlab.bench import ExperimentConfig


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    cfg = ExperimentConfig.ideal(2000.0, rng_seed=5, **overrides)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    return str(path)


class TestScan:
    def test_profile_minimum_row(self, capsys):
        code, out, _ = run(capsys, "scan", "--fix-a", "156", "--fix-b", "126", "--step", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta_c,S"
        rows = [line.split(",") for line in lines[1:]]
        best = min(rows, key=lambda r: float(r[1]))
        assert float(best[0]) == 78.0

    def test_full_cube_row_count(self, capsys):
        code, out, _ = run(capsys, "scan", "--step", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta_a,theta_b,theta_c,S"
        assert len(lines) == 1 + 31**3

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--fix-a", "156", "--fix-b", "126", "--step", "30", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["axes"][0] == [156.0]
        assert len(payload["values"]) == 7

    def test_zero_step_rejected(self, capsys):
        code, _, err = run(capsys, "scan", "--step", "0")
        assert code == 2
        assert "step" in err

    def test_step_over_node_cap_rejected(self, capsys):
        code, out, err = run(capsys, "scan", "--step", "0.01")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "exceeds the cap" in err

    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "profile.csv"
        code, out, _ = run(
            capsys, "scan", "--fix-a", "156", "--fix-b", "126", "--step", "30",
            "--out", str(out_file),
        )
        assert code == 0 and out == ""
        assert out_file.read_text(encoding="utf-8").startswith("theta_c,S\n")

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        code, _, err = run(
            capsys, "scan", "--step", "30", "--out", str(blocker / "sub" / "x.csv")
        )
        assert code == 1

    def test_non_finite_fixed_angle_rejected(self, capsys, recwarn):
        code, out, err = run(capsys, "scan", "--fix-b", "inf", "--step", "90")
        assert code == 2 and out == ""
        assert err == "error: theta_b must be finite, got inf\n"
        assert len(recwarn) == 0


class TestOptimize:
    def test_reports_minimum(self, capsys):
        code, out, _ = run(capsys, "optimize", "--step", "6", "--tol", "0.01")
        assert code == 0
        s_min = float(out.split("s_min = ")[1].split("\n")[0])
        assert s_min == pytest.approx(-0.403, abs=5e-4)
        assert "argmin:" in out and "evaluations" in out

    def test_coarse_seed_agrees(self, capsys):
        _, out6, _ = run(capsys, "optimize", "--step", "6", "--tol", "0.01")
        _, out90, _ = run(capsys, "optimize", "--step", "90", "--tol", "0.01")
        s6 = float(out6.split("s_min = ")[1].split("\n")[0])
        s90 = float(out90.split("s_min = ")[1].split("\n")[0])
        assert s90 == pytest.approx(s6, abs=1e-3)

    # The two mirror minima tie to about 1e-11, so which one is listed first
    # and how many trials the (theta_a, theta_b) search takes follow the last bits.
    @pytest.mark.parametrize(
        "step, expected",
        [
            pytest.param(
                "6",
                "s_min = -0.403431\n"
                "evaluations = 1737\n"
                "argmin: theta_a = 157.0195, theta_b = 123.5039, theta_c = 77.5479\n"
                "degenerate minima found: 2\n"
                "  theta_a = 157.0195, theta_b = 123.5039, theta_c = 77.5479\n"
                "  theta_a = 22.9805, theta_b = 56.4961, theta_c = 102.4521\n",
                id="step-6",
            ),
            pytest.param(
                "30",
                "s_min = -0.403431\n"
                "evaluations = 769\n"
                "argmin: theta_a = 22.9834, theta_b = 56.4990, theta_c = 102.4562\n"
                "degenerate minima found: 2\n"
                "  theta_a = 22.9834, theta_b = 56.4990, theta_c = 102.4562\n"
                "  theta_a = 157.0166, theta_b = 123.5010, theta_c = 77.5438\n",
                id="step-30",
            ),
        ],
    )
    def test_golden_stdout(self, capsys, step, expected):
        assert run(capsys, "optimize", "--step", step) == (0, expected, "")

    def test_bad_tolerance(self, capsys):
        for value in ("-1", "nan", "inf"):
            code, out, err = run(capsys, "optimize", "--tol", value)
            assert code == 2 and out == ""
            assert err.startswith("error: tolerance") and err.count("\n") == 1

    def test_step_over_node_cap_rejected(self, capsys):
        code, _, err = run(capsys, "optimize", "--step", "0.01")
        assert code == 2 and "exceeds the cap" in err


class TestClassicalVerify:
    def test_reports_vertices_and_range(self, capsys):
        code, out, _ = run(capsys, "classical-verify", "--samples", "500", "--seed", "42")
        assert code == 0
        assert "vertex witness values: 0, 0, 1, 0, 0, 1, 0, 0" in out
        assert "bound satisfied" in out

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "classical-verify", "--samples", "50", "--seed", "7")
        _, out2, _ = run(capsys, "classical-verify", "--samples", "50", "--seed", "7")
        assert out1 == out2

    def test_rejects_no_samples(self, capsys):
        code, _, _ = run(capsys, "classical-verify", "--samples", "0")
        assert code == 2

    def test_rejects_negative_seed_before_printing(self, capsys):
        code, out, err = run(capsys, "classical-verify", "--seed", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error: --seed ") and err.count("\n") == 1

    def test_violation_exit_code(self, capsys, monkeypatch):
        # Force impossible witness values, in [-2, -1], to exercise the failure path.
        monkeypatch.setattr(cli.classical, "_witness", lambda weights: weights[0] - 2.0)
        code, out, _ = run(capsys, "classical-verify", "--samples", "10", "--seed", "1")
        assert code == 3
        assert "BOUND VIOLATED" in out

    @pytest.mark.parametrize("bad", [-1e-6, 1.0 + 1e-6])
    @pytest.mark.parametrize("full_chunk", [True, False])
    def test_one_bad_sample_is_a_violation(self, capsys, monkeypatch, bad, full_chunk):
        # Every sampled value in bounds but one, the last of the full first
        # chunk or of the three-sample second chunk.
        def witness(weights, vertex_witness=cli.classical._witness):
            if isinstance(weights[0], float):  # the vertex enumeration
                return vertex_witness(weights)
            values = np.full(len(weights[0]), 0.5)
            if (len(values) == cli._CHUNK) == full_chunk:
                values[-1] = bad
            return values

        monkeypatch.setattr(cli.classical, "_witness", witness)
        samples = str(cli._CHUNK + 3)
        code, out, _ = run(capsys, "classical-verify", "--samples", samples, "--seed", "1")
        assert code == 3
        assert "BOUND VIOLATED" in out


def sampled_values(seed, samples):
    """The array pass's witness values, one per sample, as a list of floats."""
    chunks = list(cli._sampled_witness(np.random.default_rng(seed), samples))
    assert all(0 < len(chunk) <= cli._CHUNK for chunk in chunks)
    return np.concatenate(chunks).tolist()


def looped_values(seed, samples):
    """The public per-sample loop's witness values, one per sample."""
    rng = np.random.default_rng(seed)
    return [classical.s_classical(classical.random_ensemble(rng)) for _ in range(samples)]


# The printed range starts from the vertex values 0 and 1, so stdout
# cannot show a changed stream; each sample's value is compared instead.
# A longer loop's prefix is the shorter loop, so one loop per seed serves
# every sample count.
@pytest.mark.parametrize("seed", [0, 42, 2**31 - 1])
def test_array_pass_equals_the_per_sample_loop(seed):
    chunk = cli._CHUNK
    looped = looped_values(seed, 2 * chunk + 3)
    for samples in (1, 50, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        assert sampled_values(seed, samples) == looped[:samples], samples


@pytest.mark.parametrize("chunk", [1, 7])
def test_array_pass_does_not_depend_on_the_chunk(monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    looped = looped_values(5, 300)
    for samples in (1, chunk, chunk + 1, 2 * chunk + 3, 300):
        assert sampled_values(5, samples) == looped[:samples], samples


class TestFit:
    def test_feasible_triple(self, capsys):
        code, out, _ = run(capsys, "fit", "--p-ab", "1", "--p-bc", "0", "--p-ac", "1")
        assert code == 0
        assert "(a+ b- c-)" in out

    def test_quantum_optimum_infeasible(self, capsys):
        code, out, _ = run(
            capsys, "fit", "--p-ab", "0.2582", "--p-bc", "0.1576", "--p-ac", "0.8190"
        )
        assert code == 4
        assert "INFEASIBLE (quantum-signature)" in out

    def test_out_of_range_rejected(self, capsys):
        code, _, err = run(capsys, "fit", "--p-ab", "1.5", "--p-bc", "0", "--p-ac", "0")
        assert code == 2


class TestSimulate:
    def test_text_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--config", write_config(tmp_path))
        assert code == 0
        assert out.startswith("S = ")
        assert "std_error = " in out and "sigma_violation = " in out

    def test_json_output(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "simulate", "--config", write_config(tmp_path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"value", "std_error", "sigma_violation"}
        assert payload["value"] < 0

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        config = write_config(tmp_path)
        _, out1, _ = run(capsys, "simulate", "--config", config)
        _, out2, _ = run(capsys, "simulate", "--config", config)
        assert out1 == out2

    def test_zero_rate_is_insufficient_statistics(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps(
                {
                    "heralded_rate": 0.0,
                    "dark_rate_d1": 0.0,
                    "dark_rate_d2": 0.0,
                    "dark_rate_d3": 0.0,
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == 5

    def test_unknown_config_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"voltage": 5}', encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "unknown config fields" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "document",
        [
            '{"heralded_rate": NaN}',
            '{"heralded_rate": Infinity}',
            '{"heralded_rate": "5"}',
            '{"rng_seed": true}',
        ],
    )
    def test_bad_config_value_is_usage_error(self, capsys, tmp_path, document):
        path = tmp_path / "bad.json"
        path.write_text(document, encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_deeply_nested_config_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "document,named",
        [
            ({"heralded_rate": 1e19}, "heralded_rate * integration_time"),
            ({"integration_time": 1e300}, "heralded_rate * integration_time"),
            ({"dark_rate_d1": 1e300}, "dark_rate_d1 * integration_time"),
            ({"coincidence_window": 1e300}, "coincidence_window"),
            ({"heralded_rate": 1e18, "coincidence_window": 1.0}, "coincidence_window"),
        ],
    )
    def test_mean_too_large_to_sample_is_usage_error(self, capsys, tmp_path, document, named):
        # Each field is in range, but numpy's Poisson sampler would refuse a
        # product of them.
        path = tmp_path / "big.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and named in err and "Poisson" in err

    def test_large_rates_below_the_bound_still_run(self, capsys, tmp_path):
        path = tmp_path / "fast.json"
        path.write_text('{"heralded_rate": 1e12}', encoding="utf-8")
        assert run(capsys, "simulate", "--config", str(path))[0] == 0
        path.write_text('{"heralded_rate": 1e15, "p2_step": 30, "hwp_step": 15}', encoding="utf-8")
        assert run(capsys, "full-scan", "--config", str(path), "--out", str(tmp_path))[0] == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_angle_is_usage_error(self, capsys, value):
        code, out, err = run(capsys, "simulate", "--theta-a", value)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "theta_a" in err

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from([f.name for f in fields(ExperimentConfig)]),
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=5),
        )
    )
    def test_any_scalar_config_ends_in_a_documented_code(self, tmp_path_factory, document):
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["simulate", "--config", str(path)])
        assert code in (0, 2, 5)


class TestFullScan:
    def coarse_config(self, tmp_path):
        cfg = ExperimentConfig.ideal(5e4, rng_seed=11, p2_step=30.0, hwp_step=15.0)
        path = tmp_path / "coarse.json"
        path.write_text(cfg.to_json(), encoding="utf-8")
        return str(path)

    def test_writes_surface_and_profile(self, capsys, tmp_path):
        out_dir = tmp_path / "scan_out"
        code, out, _ = run(
            capsys, "full-scan", "--config", self.coarse_config(tmp_path),
            "--out", str(out_dir),
        )
        assert code == 0
        surface = (out_dir / "surface.csv").read_text(encoding="utf-8")
        profile = (out_dir / "profile.csv").read_text(encoding="utf-8")
        assert surface.startswith("theta_b,theta_c,s_sim,std_error,sigma,s_theory\n")
        assert profile.startswith("theta_c,s_sim,std_error,sigma,s_theory\n")
        assert len(profile.strip().split("\n")) == 1 + 7

    def test_profile_without_coincidences_is_written_as_holes(self, capsys, tmp_path):
        out_dir = tmp_path / "scan_out"
        code, out, err = run(
            capsys, "full-scan", "--config", self.coarse_config(tmp_path),
            "--theta-b", "90", "--out", str(out_dir),
        )
        assert code == 0 and err == ""
        assert out == f"wrote {out_dir / 'surface.csv'}\nwrote {out_dir / 'profile.csv'}\n"
        rows = (out_dir / "profile.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 7
        assert all(row.split(",")[1:4] == ["nan"] * 3 for row in rows)

    def test_deterministic_files(self, capsys, tmp_path):
        config = self.coarse_config(tmp_path)
        run(capsys, "full-scan", "--config", config, "--out", str(tmp_path / "a"))
        run(capsys, "full-scan", "--config", config, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "surface.csv").read_bytes() == (
            tmp_path / "b" / "surface.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "profile.csv").read_bytes() == (
            tmp_path / "b" / "profile.csv"
        ).read_bytes()

    def test_blocked_output_dir_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file", encoding="utf-8")
        code, _, _ = run(
            capsys, "full-scan", "--config", self.coarse_config(tmp_path),
            "--out", str(blocker / "sub"),
        )
        assert code == 1

    def test_grid_over_node_cap_is_usage_error(self, capsys, tmp_path):
        cfg = ExperimentConfig.ideal(5e4, p2_step=0.01, hwp_step=0.005)
        path = tmp_path / "fine.json"
        path.write_text(cfg.to_json(), encoding="utf-8")
        code, out, err = run(capsys, "full-scan", "--config", str(path), "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert "exceeds the cap" in err

    @pytest.mark.parametrize(
        "flag,value,name",
        [("--theta-a", "nan", "theta_a"), ("--theta-b", "200", "theta_b_profile")],
    )
    def test_bad_angle_is_usage_error(self, capsys, tmp_path, flag, value, name):
        code, out, err = run(capsys, "full-scan", flag, value, "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name} ") and err.count("\n") == 1
        assert not (tmp_path / "surface.csv").exists()

    def test_steps_not_dividing_180_stop_at_175(self, capsys, tmp_path):
        cfg = ExperimentConfig(p2_step=7.0, hwp_step=3.5)
        path = tmp_path / "odd.json"
        path.write_text(cfg.to_json(), encoding="utf-8")
        code, _, err = run(capsys, "full-scan", "--config", str(path), "--out", str(tmp_path))
        assert code == 0 and err == ""
        surface = (tmp_path / "surface.csv").read_text(encoding="utf-8").splitlines()
        profile = (tmp_path / "profile.csv").read_text(encoding="utf-8").splitlines()
        assert surface[-1].startswith("175.000000,175.000000,")
        assert profile[-1].startswith("175.000000,")

    def test_missing_out_flag_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "full-scan", "--config", self.coarse_config(tmp_path))
        assert code == 2


class TestParser:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert cli.main([]) == 2


#: The float flags of every subcommand that takes them.
FLOAT_FLAGS = {
    "scan": ("--fix-a", "--fix-b", "--step"),
    "optimize": ("--step", "--tol"),
    "fit": ("--p-ab", "--p-bc", "--p-ac"),
    "simulate": ("--theta-a", "--theta-b", "--theta-c"),
    "full-scan": ("--theta-a", "--theta-b"),
}
# Grid steps come from a short list so that no example builds a large grid.
STEPS = [90.0, 45.0, 30.0, 7.0, math.nan]
# Plain float draws reach nan and +-inf too rarely to test them every run.
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def float_flag_sets(draw):
    command = draw(st.sampled_from(sorted(FLOAT_FLAGS)))
    argv, values = [command], []
    for flag in FLOAT_FLAGS[command]:
        if flag == "--step":
            value = draw(st.sampled_from(STEPS))
        elif command == "fit" or draw(st.booleans()):
            value = draw(FLOATS)
        else:
            continue
        # "--flag=value" keeps argparse from reading "-inf" as an option.
        argv.append(f"{flag}={value!r}")
        values.append(value)
    return argv, values


class TestFloatFlags:
    @settings(max_examples=100, deadline=None)
    @given(float_flag_sets())
    def test_any_float_flags_end_in_a_documented_code(self, tmp_path_factory, flags):
        argv, values = flags
        if argv[0] == "full-scan":
            argv = argv + ["--out", str(tmp_path_factory.mktemp("full-scan"))]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
        assert code in (0, 2, 3, 4, 5)
        assert [str(w.message) for w in caught] == []
        if not all(math.isfinite(value) for value in values):
            assert code == 2


# Run in a fresh interpreter: this test process already holds scipy.optimize.
LAZY_LP_SCRIPT = """
import contextlib, io, sys
from pmlab import cli
from pmlab.classical import JointTriple, fit_classical

config, out = sys.argv[1:]
assert "scipy.optimize" not in sys.modules, "imported by pmlab.cli"
runs = [
    (["optimize", "--step", "30"], 0),
    (["scan", "--step", "30"], 0),
    (["simulate"], 0),
    (["classical-verify", "--samples", "10"], 0),
    (["full-scan", "--config", config, "--out", out], 0),
    (["fit", "--p-ab", "0.2582", "--p-bc", "0.1576", "--p-ac", "0.8190"], 4),
]
for argv, expected in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == expected, (argv, code)
    assert "scipy.optimize" not in sys.modules, f"imported by {argv[0]}"
fit_classical(JointTriple(0.3, 0.2, 0.4))
assert "scipy.optimize" in sys.modules, "not imported by a feasible fit"
"""


def test_only_a_feasible_fit_imports_the_lp(tmp_path):
    config = tmp_path / "coarse.json"
    config.write_text(
        ExperimentConfig.ideal(5e4, rng_seed=11, p2_step=30.0, hwp_step=15.0).to_json(),
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_LP_SCRIPT, str(config), str(tmp_path / "scan_out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
