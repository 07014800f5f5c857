"""Unit tests for the witness landscape: scanning, minimization, export.

Grid expectations were frozen from an independent enumeration of the
closed form at the quoted nodes.
"""
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlab import landscape
from pmlab.landscape import (
    AXIS_NAMES,
    AngleTriple,
    Optimum,
    ScanGrid,
    SLandscape,
    export_surface,
    grid_scan,
    minimize_s,
    parse_surface,
    s_quantum,
)
from pmlab.landscape import _s_array
from pmlab.qubit import H, Outcome, PropertySetting, joint_probability

# Frozen closed-form values at the quoted orientations.
S_AT_REPORTED_OPTIMUM = -0.40343090331761267  # (157, 123.5, 77.5)
S_AT_GRID_OPTIMUM = -0.3990453973709251  # (156, 126, 78)
# True minimum and its two degenerate locations in [0, 180)^3, found by
# an independent fine scan plus simplex polish.
S_GLOBAL_MIN = -0.4034311988535186
ARGMIN_REPORTED = (157.0213, 123.5107, 77.5534)
ARGMIN_MIRRORED = (22.9787, 56.4893, 102.4466)


def plus(deg):
    return (PropertySetting.at(deg), Outcome.PLUS)


def minus(deg):
    return (PropertySetting.at(deg), Outcome.MINUS)


def witness_via_joints(a: float, b: float, c: float) -> float:
    """Cross-module route: chain-rule joints instead of the closed form."""
    return (
        joint_probability(H, plus(a), minus(b))
        + joint_probability(H, plus(b), minus(c))
        - joint_probability(H, plus(a), minus(c))
    )


class TestAngleTriple:
    def test_canonicalizes(self):
        t = AngleTriple(190.0, -10.0, 360.0)
        assert t.as_tuple() == (10.0, 170.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, bad):
        with pytest.raises(ValueError, match="theta_b must be finite"):
            AngleTriple(157.0, bad, 77.5)


class TestScanGrid:
    def test_nodes_inclusive(self):
        nodes = ScanGrid(0.0, 180.0, 6.0).nodes()
        assert nodes.size == 31
        assert nodes[0] == 0.0 and nodes[-1] == 180.0

    def test_single_node_grid(self):
        assert ScanGrid(0.0, 0.0, 6.0).nodes().tolist() == [0.0]

    def test_integer_arguments_coerce_to_float_nodes(self):
        nodes = ScanGrid(0, 180, 45).nodes()
        assert nodes.dtype == np.float64
        assert nodes.tolist() == [0.0, 45.0, 90.0, 135.0, 180.0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ScanGrid(0.0, 180.0, 0.0)
        with pytest.raises(ValueError):
            ScanGrid(0.0, 180.0, -6.0)
        with pytest.raises(ValueError):
            ScanGrid(10.0, 0.0, 6.0)
        with pytest.raises(ValueError):
            ScanGrid(0.0, 10.0, 6.0)  # span not a multiple of step
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                ScanGrid(0.0, 180.0, bad)
            with pytest.raises(ValueError, match="must be finite"):
                ScanGrid(0.0, bad, 6.0)
        for tiny in (1e-9, 5e-324):
            with pytest.raises(ValueError, match="exceeds the cap"):
                ScanGrid.full_range(tiny)

    def test_grid_scan_rejects_non_finite_fixed_angles(self, recwarn):
        grid = ScanGrid.full_range(90.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="theta_a must be finite"):
                grid_scan(bad, grid, grid)
            with pytest.raises(ValueError, match="theta_b must be finite"):
                grid_scan(156.0, bad, grid)
            with pytest.raises(ValueError, match="theta_c must be finite"):
                grid_scan(156.0, 126.0, bad)
        # Refused before evaluation, so numpy never sees the bad angle.
        assert len(recwarn) == 0


class TestSQuantum:
    def test_reported_optimum_value(self):
        assert s_quantum(AngleTriple(157.0, 123.5, 77.5)) == pytest.approx(
            S_AT_REPORTED_OPTIMUM, abs=1e-12
        )

    def test_reported_optimum_near_minus_0403(self):
        assert s_quantum(AngleTriple(157.0, 123.5, 77.5)) == pytest.approx(-0.403, abs=5e-4)

    def test_neighboring_grid_node(self):
        assert s_quantum(AngleTriple(156.0, 126.0, 78.0)) == pytest.approx(-0.399, abs=1e-3)

    def test_zero_at_origin(self):
        assert s_quantum(AngleTriple(0.0, 0.0, 0.0)) == 0.0

    def test_zero_line_exact(self):
        rng = np.random.default_rng(31)
        for theta in rng.uniform(0.0, 180.0, size=200):
            assert s_quantum(AngleTriple(theta, theta, theta)) == 0.0

    def test_periodicity(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a, b, c = rng.uniform(0.0, 180.0, size=3)
            base = s_quantum(AngleTriple(a, b, c))
            assert s_quantum(AngleTriple(a + 180.0, b, c)) == pytest.approx(base, abs=1e-12)
            assert s_quantum(AngleTriple(a, b + 180.0, c)) == pytest.approx(base, abs=1e-12)
            assert s_quantum(AngleTriple(a, b, c + 180.0)) == pytest.approx(base, abs=1e-12)

    def test_matches_joint_probability_route(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            a, b, c = rng.uniform(0.0, 180.0, size=3)
            assert s_quantum(AngleTriple(a, b, c)) == pytest.approx(
                witness_via_joints(a, b, c), abs=1e-12
            )

    # Anywhere in and outside [0, 180), with extra weight just around the
    # angles where the closed form's factors vanish.
    angles = st.floats(-540.0, 540.0) | st.builds(
        float.__add__,
        st.sampled_from([-90.0, 0.0, 90.0, 180.0, 270.0]),
        st.sampled_from([0.0, 5e-324]) | st.floats(-1e-6, 1e-6),
    )

    @settings(max_examples=500, deadline=None)
    @given(a=angles, b=angles, c=angles)
    def test_kernels_match_the_chain_rule_joints(self, a, b, c):
        reference = witness_via_joints(a, b, c)
        assert abs(s_quantum(AngleTriple(a, b, c)) - reference) <= 1e-12
        assert abs(float(_s_array(a, b, c)) - reference) <= 1e-12


class TestGridScan:
    def test_single_node(self):
        land = grid_scan(0.0, 0.0, 0.0)
        assert land.values.tolist() == [0.0]
        assert land.shape == (1, 1, 1)

    def test_row_major_order(self):
        grid = ScanGrid(0.0, 6.0, 6.0)
        land = grid_scan(grid, grid, grid)
        nodes = grid.nodes()
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                for k, c in enumerate(nodes):
                    flat = (i * 2 + j) * 2 + k
                    assert land.values[flat] == pytest.approx(
                        s_quantum(AngleTriple(a, b, c)), abs=1e-12
                    )

    def test_profile_minimum_node(self):
        land = grid_scan(156.0, 126.0, ScanGrid.full_range(6.0))
        k = int(np.argmin(land.values))
        assert land.axes[2][k] == 78.0
        assert land.values[k] == pytest.approx(S_AT_GRID_OPTIMUM, abs=1e-12)

    def test_full_cube_minimum(self):
        grid = ScanGrid.full_range(6.0)
        land = grid_scan(grid, grid, grid)
        assert land.values.size == 31**3
        assert land.values.min() <= -0.39

    def test_one_degree_floor(self):
        grid = ScanGrid.full_range(1.0)
        land = grid_scan(grid, grid, grid)
        assert land.values.min() >= -0.404
        assert np.all(np.isfinite(land.values))

    def test_rejects_cube_over_node_cap(self):
        # Each axis is legal on its own; the cube is refused before it exists.
        grid = ScanGrid.full_range(0.01)
        assert grid.size == 18001
        with pytest.raises(ValueError, match="exceeds the cap"):
            grid_scan(grid, grid, grid)
        with pytest.raises(ValueError, match="exceeds the cap"):
            minimize_s(grid)
        assert grid_scan(156.0, 126.0, grid).values.size == 18001

    def test_landscape_validation(self):
        with pytest.raises(ValueError):
            SLandscape(
                axes=(np.array([0.0]), np.array([0.0]), np.array([0.0])),
                values=np.array([0.0, 1.0]),
            )
        with pytest.raises(ValueError):
            SLandscape(
                axes=(np.array([0.0]), np.array([0.0]), np.array([0.0])),
                values=np.array([np.inf]),
            )


def angles_close_mod_180(found, target, tol):
    return all(
        min(abs(f - t), 180.0 - abs(f - t)) <= tol for f, t in zip(found, target)
    )


class TestMinimizeS:
    def test_finds_global_minimum(self):
        opt = minimize_s(ScanGrid.full_range(6.0), tolerance=0.01)
        assert opt.s_min == pytest.approx(S_GLOBAL_MIN, abs=1e-5)
        assert opt.s_min == pytest.approx(-0.403, abs=5e-4)
        found = opt.argmin.as_tuple()
        assert angles_close_mod_180(found, ARGMIN_REPORTED, 1.0) or angles_close_mod_180(
            found, ARGMIN_MIRRORED, 1.0
        )

    def test_argmin_value_consistent(self):
        opt = minimize_s(ScanGrid.full_range(6.0), tolerance=0.01)
        assert opt.s_min == pytest.approx(s_quantum(opt.argmin), abs=1e-9)
        for cand in opt.candidates:
            assert s_quantum(cand) <= opt.s_min + 1e-4

    def test_not_above_coarse_grid(self):
        grid = ScanGrid.full_range(6.0)
        land = grid_scan(grid, grid, grid)
        opt = minimize_s(grid, tolerance=0.01)
        assert opt.s_min <= land.values.min() + 1e-12
        assert opt.evaluations >= land.values.size

    def test_reports_degenerate_minima(self):
        opt = minimize_s(ScanGrid.full_range(6.0), tolerance=0.01)
        assert len(opt.candidates) >= 2
        found_targets = 0
        for target in (ARGMIN_REPORTED, ARGMIN_MIRRORED):
            if any(
                angles_close_mod_180(c.as_tuple(), target, 1.0) for c in opt.candidates
            ):
                found_targets += 1
        assert found_targets == 2

    def test_coarse_seed_robustness(self):
        reference = minimize_s(ScanGrid.full_range(6.0), tolerance=0.01)
        for step in (30.0, 90.0):
            opt = minimize_s(ScanGrid.full_range(step), tolerance=0.01)
            assert opt.s_min == pytest.approx(reference.s_min, abs=1e-3)

    def test_degenerate_seed_grid(self):
        opt = minimize_s(ScanGrid(0.0, 0.0, 6.0), tolerance=0.01)
        assert opt.s_min <= 0.0

    def test_candidates_are_deduplicated_on_the_circle(self, monkeypatch):
        # Refined points at 179.97 and 0.01 degrees are one minimum.
        points = iter([(179.97, 60.0, 30.0), (0.01, 60.0, 30.0)])
        monkeypatch.setattr(landscape, "_cube_search", lambda *args: (next(points), -0.5, 1))
        opt = minimize_s(ScanGrid.full_range(90.0), starts=2)
        assert [c.as_tuple() for c in opt.candidates] == [(0.01, 60.0, 30.0)]

    def test_rejects_bad_tolerance(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance"):
                minimize_s(ScanGrid.full_range(6.0), tolerance=bad)


# sha256 of export_surface output on the 6-degree grid, recorded before the
# CSV writers were merged into one; the 2-D and cube documents include
# nodes whose values round to -0.000000 before sign normalization.
EXPORT_SHA256 = {
    "1d-csv": "fd432bf28fb8a4c35bf3a120e5d7073bdf8974bdf6b6a22ae9f475d8d661e6f5",
    "2d-csv": "1c92dcd5c53ed9d512d92aeb0c84cc291de86f45b56e7a12b72f9d99daab149b",
    "cube-csv": "fc5374fae4772d6cf2dc5ab14548aa6dfb5bf500e594702f60d3a1d39a47fb49",
    "cube-json": "1e979fd661ba389b3c2a1d867ef9c88f04050371f83a086ec226151419ccb1b1",
}


def cells_by_float(document: str) -> tuple[list[str], np.ndarray]:
    """Header cells and the body parsed the slow way, float() per cell."""
    lines = [line for line in document.split("\n") if line]
    body = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(body)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def csv_documents(draw):
    """A document in one of the three CSV layouts, cells as _fmt or repr writes them."""
    write = draw(st.sampled_from([landscape._fmt, repr]))
    number = st.floats(allow_nan=False, allow_infinity=False)
    # Distinct once written, so the cube's np.unique sees every node.
    axis = st.lists(number, min_size=2, max_size=4, unique_by=lambda x: float(write(x)))
    layout = draw(st.sampled_from(["1d", "2d", "cube"]))
    if layout == "cube":
        header, axes, width = [*AXIS_NAMES, "S"], [draw(axis) for _ in range(3)], 1
    elif layout == "2d":
        columns = draw(axis)
        header, axes, width = ["theta_b/theta_c", *map(write, columns)], [draw(axis)], len(columns)
    else:
        header, axes, width = ["theta_c", "S"], [draw(axis)], 1
    lines = [",".join(header)]
    for node in itertools.product(*axes):
        tail = draw(st.lists(number, min_size=width, max_size=width))
        lines.append(",".join(map(write, [*node, *tail])))
    return layout, "\n".join(lines) + "\n"


class TestParse:
    @settings(max_examples=300, deadline=None)
    @given(case=csv_documents())
    def test_bit_identical_to_float_per_cell(self, case):
        layout, document = case
        header, body = cells_by_float(document)
        parsed = parse_surface(document, "csv")
        if layout == "cube":
            assert same_bits(parsed.values, body[:, 3])
            for axis, column in zip(parsed.axes, body[:, :3].T):
                assert same_bits(axis, np.unique(column))
        elif layout == "2d":
            assert same_bits(parsed.values, body[:, 1:].ravel())
            assert same_bits(parsed.axes[1], body[:, 0])
            assert same_bits(parsed.axes[2], [float(cell) for cell in header[1:]])
        else:
            assert same_bits(parsed.values, body[:, 1])
            assert same_bits(parsed.axes[2], body[:, 0])

    @pytest.mark.parametrize(
        "document,message",
        [
            ("", "empty"),
            ("\n\n", "empty"),
            ("theta_c,S\n", "no data rows"),
            ("theta_c,S\n\n", "no data rows"),
            ("theta_c,S\n0.0\n6.0\n", "1 cells, the header has 2"),
            ("theta_a,theta_b,theta_c,S\n0.0,0.0,0.0,0.0,0.0\n", "5 cells, the header has 4"),
            ("theta_c,S\n0.0,0.5\n6.0\n", "number of columns changed"),
            ("theta_c,S\n0.0,#0.5\n", "could not convert"),
        ],
    )
    def test_malformed_csv_is_a_value_error_without_warnings(self, document, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                parse_surface(document, "csv")


class TestExport:
    @pytest.mark.parametrize("case", sorted(EXPORT_SHA256))
    def test_bytes_pinned(self, case):
        layout, format = case.split("-")
        grid = ScanGrid.full_range(6.0)
        axes = {"1d": (156.0, 126.0, grid), "2d": (156.0, grid, grid), "cube": (grid,) * 3}
        doc = export_surface(grid_scan(*axes[layout]), format)
        assert hashlib.sha256(doc.encode()).hexdigest() == EXPORT_SHA256[case]

    def test_four_degree_cube_bytes_pinned(self):
        # Recorded before axis labels were formatted once per axis value.
        grid = ScanGrid.full_range(4.0)
        doc = export_surface(grid_scan(grid, grid, grid), "csv")
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "357f5357f5c0bd898020d1dba36486467ab3366428700b378291a1ab018ea5d4"
        )

    def test_one_dimensional_csv(self):
        land = grid_scan(156.0, 126.0, ScanGrid.full_range(6.0))
        doc = export_surface(land, "csv")
        lines = doc.strip().split("\n")
        assert lines[0] == "theta_c,S"
        assert len(lines) == 32
        assert lines[1] == "0.000000," + f"{land.values[0]:.6f}"
        assert doc.endswith("\n") and "\r" not in doc

    def test_two_dimensional_csv_matrix(self):
        land = grid_scan(156.0, ScanGrid(0.0, 180.0, 90.0), ScanGrid(0.0, 180.0, 90.0))
        doc = export_surface(land, "csv")
        lines = doc.strip().split("\n")
        assert lines[0].startswith("theta_b/theta_c,")
        assert len(lines) == 4  # header + 3 theta_b rows
        assert len(lines[1].split(",")) == 4  # theta_b + 3 theta_c columns

    def test_full_cube_csv_long_format(self):
        grid = ScanGrid(0.0, 180.0, 90.0)
        land = grid_scan(grid, grid, grid)
        doc = export_surface(land, "csv")
        lines = doc.strip().split("\n")
        assert lines[0] == "theta_a,theta_b,theta_c,S"
        assert len(lines) == 1 + 27

    def test_csv_roundtrip_values(self):
        land = grid_scan(156.0, 126.0, ScanGrid.full_range(6.0))
        doc = export_surface(land, "csv")
        parsed = parse_surface(doc, "csv")
        assert np.allclose(parsed.values, land.values, atol=5e-7)
        assert export_surface(parsed, "csv") == doc

    def test_csv_roundtrip_matrix(self):
        land = grid_scan(156.0, ScanGrid(0.0, 180.0, 30.0), ScanGrid(0.0, 180.0, 30.0))
        doc = export_surface(land, "csv")
        parsed = parse_surface(doc, "csv")
        assert parsed.values.size == land.values.size
        assert np.allclose(parsed.values, land.values, atol=5e-7)
        assert export_surface(parsed, "csv") == doc

    def test_json_roundtrip_exact(self):
        land = grid_scan(156.0, 126.0, ScanGrid.full_range(6.0))
        doc = export_surface(land, "json")
        parsed = parse_surface(doc, "json")
        assert parsed.values.tolist() == land.values.tolist()
        for axis, original in zip(parsed.axes, land.axes):
            assert axis.tolist() == original.tolist()
        assert export_surface(parsed, "json") == doc

    def test_unknown_format(self):
        land = grid_scan(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            export_surface(land, "yaml")
        with pytest.raises(ValueError):
            parse_surface("", "yaml")
