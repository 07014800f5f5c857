"""Unit tests for the witness landscape: scanning, minimization, export.

Grid expectations were frozen from an independent enumeration of the
closed form at the quoted nodes.
"""
import functools
import hashlib
import itertools
import math
import tracemalloc
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
from pmlab.landscape import _s, _s_over_c
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
        assert abs(_s(a, b, c) - reference) <= 1e-12
        assert abs(float(_s(np.array(a), np.array(b), np.array(c), np)) - reference) <= 1e-12


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
        with pytest.raises(ValueError, match="three 1-D arrays"):
            SLandscape(axes=(np.array([0.0]), np.array([0.0])), values=np.array([0.0]))


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

    def test_default_seed_grid(self):
        # No seed grid is the 6-degree full range, at the default tolerance.
        opt = minimize_s()
        assert opt.evaluations == 1737
        assert opt.s_min == pytest.approx(-0.40343118872086664, abs=1e-12)
        targets = ((157.02, 123.50, 77.55), (22.98, 56.50, 102.45))
        for candidate, target in zip(opt.candidates, targets, strict=True):
            assert candidate.as_tuple() == pytest.approx(target, abs=0.01)

    def test_degenerate_seed_grid(self):
        opt = minimize_s(ScanGrid(0.0, 0.0, 6.0), tolerance=0.01)
        assert opt.s_min <= 0.0

    def test_candidates_are_exact_mirrors(self):
        for step in (6.0, 30.0, 36.0, 45.0, 60.0, 90.0, 180.0):
            opt = minimize_s(ScanGrid.full_range(step), tolerance=0.01)
            argmin, mirror = opt.candidates
            assert mirror == AngleTriple(*(180.0 - x for x in argmin.as_tuple()))
            assert opt.s_min == s_quantum(argmin)
            assert s_quantum(mirror) == pytest.approx(opt.s_min, abs=1e-12)

    def test_self_mirror_minimum_listed_once(self, monkeypatch):
        # A stand-in landscape whose minimum, (90, 0, 0), is its own mirror image.
        fake = lambda a, b, xp=math: ((a - 90.0) ** 2 + b**2, 1.0, 0.0)  # noqa: E731
        monkeypatch.setattr(landscape, "_s_over_c", fake)
        opt = minimize_s(ScanGrid.full_range(90.0))
        assert [c.as_tuple() for c in opt.candidates] == [(90.0, 0.0, 0.0)]

    # Anywhere in and outside [0, 180), with weight on the kink a ≡ b (mod 180).
    pairs = st.tuples(st.floats(-540.0, 540.0), st.floats(-540.0, 540.0)) | st.floats(
        -540.0, 540.0
    ).map(lambda a: (a, a + 180.0))

    @settings(max_examples=200, deadline=None)
    @given(pair=pairs)
    def test_closed_form_over_theta_c(self, pair):
        a, b = pair
        value, w_x, w_y = _s_over_c(a, b)
        assert value <= _s(a, b, np.linspace(0.0, 180.0, 18001), np).min() + 1e-12
        theta_c = math.degrees(math.atan2(w_y, w_x)) / 2
        assert abs(_s(a, b, theta_c) - value) <= 1e-12
        assert abs(float(_s_over_c(np.array(a), np.array(b), np)[0]) - value) <= 1e-12

    def test_no_node_of_a_fine_grid_lies_below(self):
        # With theta_c in closed form, a 0.1-degree (theta_a, theta_b) grid
        # stands for the whole cube; rows in blocks keep the arrays small.
        s_min = minimize_s(ScanGrid.full_range(6.0), tolerance=0.01).s_min
        nodes = ScanGrid(0.0, 179.9, 0.1).nodes()
        for rows in np.array_split(nodes, 10):
            assert _s_over_c(rows[:, None], nodes[None, :], np)[0].min() >= s_min

    @pytest.mark.parametrize("step", [36.0, 45.0, 60.0, 90.0, 180.0])
    @pytest.mark.parametrize("tolerance", [0.1, 0.05, 0.01, 0.001])
    def test_each_minimum_listed_once(self, step, tolerance):
        # The landscape has two minima, mirror images through 90 degrees.
        # Before candidates were compared by distance, a 0.1-degree rounding
        # key listed one of them twice at steps 36 (tolerance 0.01), 90 (0.1)
        # and 180 (0.1 and 0.05), all at the default starts.
        for starts in (2, 5, 10, 20):
            opt = minimize_s(ScanGrid.full_range(step), tolerance, starts)
            assert 1 <= len(opt.candidates) <= 2
            if len(opt.candidates) == 2:
                first, second = (c.as_tuple() for c in opt.candidates)
                mirrored = tuple(180.0 - x for x in second)
                assert angles_close_mod_180(first, mirrored, 0.5)

    def test_rejects_bad_tolerance(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance"):
                minimize_s(ScanGrid.full_range(6.0), tolerance=bad)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3", True, None])
    def test_rejects_bad_starts(self, bad):
        with pytest.raises(ValueError, match="starts must be an integer"):
            minimize_s(ScanGrid.full_range(90.0), starts=bad)

    def test_numpy_integer_starts(self):
        opt = minimize_s(ScanGrid.full_range(90.0), starts=np.int64(2))
        assert opt == minimize_s(ScanGrid.full_range(90.0), starts=2)


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
    # Distinct once written, so every node of the cube is a distinct row.
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


#: Half a unit in the sixth decimal, plus the float nearest the written decimal.
CSV_ATOL = 5e-7 + 1e-9


def numbers_of(dtype):
    return st.floats(-1e6, 1e6, width=np.finfo(dtype).bits)


@st.composite
def landscapes(draw):
    """An SLandscape built directly: 1 to 3 free axes, float32 or float64, either direction."""
    dtypes = st.sampled_from([np.float32, np.float64])
    axis_dtype, values_dtype = draw(dtypes), draw(dtypes)
    free = draw(st.sets(st.sampled_from(range(3)), min_size=1))
    axes = []
    for i in range(3):
        low, high = (2, 4) if i in free else (1, 1)
        # Distinct once written, so the CSV lists each node once.
        nodes = draw(
            st.lists(numbers_of(axis_dtype), min_size=low, max_size=high, unique_by=landscape._fmt)
        )
        axes.append(np.array(sorted(nodes, reverse=draw(st.booleans())), dtype=axis_dtype))
    size = math.prod(axis.size for axis in axes)
    values = draw(st.lists(numbers_of(values_dtype), min_size=size, max_size=size))
    return SLandscape(tuple(axes), np.array(values, dtype=values_dtype))


@functools.cache
def cube_lines() -> tuple[str, ...]:
    """The lines of the 4-degree cube's CSV: 97,337 of them, about 3.75 MiB."""
    grid = ScanGrid.full_range(4.0)
    return tuple(export_surface(grid_scan(grid, grid, grid), "csv").split("\n"))


#: A line of the 4-degree cube that lies past parse_surface's first block.
LATE = 20_000


def cube_with(late: str) -> str:
    """The 4-degree cube's CSV with line ``LATE`` (data row ``LATE - 1``) replaced."""
    lines = cube_lines()
    assert len("\n".join(lines[:LATE])) > 1 << 18
    return "\n".join([*lines[:LATE], late, *lines[LATE + 1 :]])


def peak_of(call):
    """The call's result and tracemalloc's peak while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_csv(header, axes, numbers) -> str:
    """The CSV conventions one line at a time: every cell to 6 decimals, unsigned zero."""

    def cell(x):
        text = f"{x:.6f}"
        return "0.000000" if text == "-0.000000" else text

    numbers = iter(numbers)
    width = len(header) - len(axes)
    lines = [",".join(header)]
    for labels in itertools.product(*axes):
        lines.append(",".join([*map(cell, labels), *(cell(next(numbers)) for _ in range(width))]))
    return "".join(line + "\n" for line in lines)


class TestParse:
    @settings(max_examples=200, deadline=None)
    @given(land=landscapes())
    def test_every_landscape_round_trips(self, land):
        parsed = parse_surface(export_surface(land, "json"), "json")
        for array, original in zip((*parsed.axes, parsed.values), (*land.axes, land.values)):
            assert same_bits(array, original)
        document = export_surface(land, "csv")
        parsed = parse_surface(document, "csv")
        free = [i for i, axis in enumerate(land.axes) if axis.size > 1]
        for i, (axis, original) in enumerate(zip(parsed.axes, land.axes)):
            if len(free) == 3 or i in free:
                assert np.allclose(axis, original, rtol=0, atol=CSV_ATOL)
            else:
                # The 1-D and matrix layouts do not record the fixed angles.
                assert axis.tolist() == [0.0]
        assert np.allclose(parsed.values, land.values, rtol=0, atol=CSV_ATOL)
        assert export_surface(parsed, "csv") == document

    @settings(max_examples=200, deadline=None)
    @given(
        free=st.sampled_from(range(3)),
        nodes=st.lists(st.floats(-3e-6, 3e-6), min_size=2, max_size=4, unique=True),
        format=st.sampled_from(["csv", "json"]),
    )
    def test_export_writes_only_documents_parse_reads(self, free, nodes, format):
        # Nodes that may meet once written to 6 decimals; JSON writes every float exactly.
        axes = [np.zeros(1)] * 3
        axes[free] = np.array(nodes)
        land = SLandscape(tuple(axes), np.ones(len(nodes)))
        try:
            document = export_surface(land, format)
        except ValueError as error:
            assert format == "csv" and AXIS_NAMES[free] in str(error)
        else:
            assert parse_surface(document, format).values.size == len(nodes)

    def test_long_layout_keeps_descending_axes(self):
        # Sorting the axes would put the value of node (10, 5, 3) on (0, 1, 2).
        axes = (np.array([10.0, 0.0]), np.array([5.0, 1.0]), np.array([3.0, 2.0]))
        land = SLandscape(axes=axes, values=np.arange(8.0))
        parsed = parse_surface(export_surface(land, "csv"), "csv")
        assert [axis.tolist() for axis in parsed.axes] == [axis.tolist() for axis in axes]
        assert parsed.values.tolist() == land.values.tolist()

    @settings(max_examples=300, deadline=None)
    @given(case=csv_documents())
    def test_bit_identical_to_float_per_cell(self, case):
        layout, document = case
        header, body = cells_by_float(document)
        parsed = parse_surface(document, "csv")
        if layout == "cube":
            assert same_bits(parsed.values, body[:, 3])
            # Each axis in order of first appearance, as drawn, unsorted.
            for axis, column in zip(parsed.axes, body[:, :3].T):
                assert same_bits(axis, list(dict.fromkeys(column.tolist())))
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
            ("theta_c,S\ninfinity,2\n", "axes must be non-empty and finite"),
            ("theta_c,S\n1e400,2\n", "axes must be non-empty and finite"),
            ("theta_b/theta_c,nan\n0.0,0.5\n", "axes must be non-empty and finite"),
            # Past the first block, named by the row numpy counts in the document.
            pytest.param(
                cube_with(cube_lines()[LATE].rsplit(",", 1)[0]),
                f"number of columns changed from 4 to 3 at row {LATE}",
                id="ragged-row-past-the-first-block",
            ),
            pytest.param(
                cube_with(cube_lines()[LATE].rsplit(",", 1)[0] + ",#0.5"),
                f"could not convert string '#0.5' to float64 at row {LATE - 1}, column 4",
                id="bad-cell-past-the-first-block",
            ),
        ],
    )
    def test_malformed_csv_is_a_value_error_without_warnings(self, document, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                parse_surface(document, "csv")

    def test_blank_lines_past_the_first_block_are_skipped(self):
        # Three blocks' worth of newlines, so at least one block holds no row.
        document = cube_with("\n" * (3 << 18) + cube_lines()[LATE])
        expected = parse_surface("\n".join(cube_lines()), "csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = parse_surface(document, "csv")
        for array, original in zip(parsed.axes, expected.axes):
            assert same_bits(array, original)
        assert same_bits(parsed.values, expected.values)

    @pytest.mark.parametrize("layout", ["1d", "2d", "cube"])
    def test_parsed_arrays_own_their_data(self, layout):
        # Views would keep the whole parse buffer alive with the landscape.
        grid = ScanGrid.full_range(30.0)
        axes = {"1d": (156.0, 126.0, grid), "2d": (156.0, grid, grid), "cube": (grid,) * 3}
        parsed = parse_surface(export_surface(grid_scan(*axes[layout]), "csv"), "csv")
        assert all(array.base is None for array in (*parsed.axes, parsed.values))

    def test_parse_peak_is_bounded_by_the_document(self):
        # Lines a block at a time, not a list of every line beside a copy of the rows.
        document = "\n".join(cube_lines())
        parse_surface(document, "csv")
        _, peak = peak_of(lambda: parse_surface(document, "csv"))
        assert peak <= 2.5 * len(document)

    @pytest.mark.parametrize(
        "document,message",
        [
            ("{}", r'must be \{"axes"'),
            ("[]", r'must be \{"axes"'),
            ("null", r'must be \{"axes"'),
            ('{"axes": 1, "values": 2}', r'must be \{"axes"'),
            ('{"axes": [[0.0], [0.0]], "values": [1.0]}', r'must be \{"axes"'),
            ('{"axes": [[0.0], [0.0], 0.0], "values": [1.0]}', r'must be \{"axes"'),
            ('{"axes": [[0.0], [0.0], [0.0]], "values": 1.0}', r'must be \{"axes"'),
            ('{"values": [1.0]}', r'must be \{"axes"'),
            ('{"axes": [[0.0], [0.0], [Infinity]], "values": [1.0]}', "non-empty and finite"),
            ('{"axes": [[0.0], [0.0], []], "values": []}', "non-empty and finite"),
            ('{"axes": [[0.0], [0.0], [0.0]], "values": [NaN]}', "values must be finite"),
            ('{"axes": [[0.0], [0.0], [0.0]]', "Expecting"),
            ('{"axes": [["1"], [true], [0]], "values": ["0.5"]}', r'must be \{"axes"'),
            ('{"axes": [[0.0], [0.0], [null]], "values": [1.0]}', r'must be \{"axes"'),
            ('{"axes": [[[1]], [0], [0]], "values": [[0.5]]}', r'must be \{"axes"'),
            ('{"axes": [[0.0], [0.0], [0.0]], "values": [false]}', r'must be \{"axes"'),
            pytest.param(
                '{"axes": [[1%s], [0], [0]], "values": [0.5]}' % ("0" * 400),
                "non-empty and finite",
                id="int-beyond-float",
            ),
        ],
    )
    def test_malformed_json_is_a_value_error(self, document, message):
        with pytest.raises(ValueError, match=message):
            parse_surface(document, "json")


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

    def test_export_peak_is_bounded_by_the_document(self):
        # Values and lines a block at a time, not a list of every value.
        grid = ScanGrid.full_range(4.0)
        land = grid_scan(grid, grid, grid)
        export_surface(land, "csv")
        document, peak = peak_of(lambda: export_surface(land, "csv"))
        assert peak <= 2.3 * len(document)

    def test_json_export_peak_is_bounded_by_the_document(self):
        # Values a slice at a time, not a Python float and a fragment per value.
        grid = ScanGrid.full_range(4.0)
        land = grid_scan(grid, grid, grid)
        export_surface(land, "json")
        document, peak = peak_of(lambda: export_surface(land, "json"))
        assert peak <= 2.3 * len(document)

    @pytest.mark.parametrize("shape", [(1023,), (1024,), (1025,), (2049,), (3, 683), (25, 41)])
    @pytest.mark.parametrize("width", [1, 3])
    def test_csv_blocks_match_a_line_at_a_time_writer(self, shape, width):
        # Lines go out 1,024 to a block.  The first and the last line of each
        # block carry values that round to -0.000000 in the first and the
        # last number column, and the first label does too.
        lines = math.prod(shape)
        assert f"{-1e-9:.6f}" == f"{-4e-7:.6f}" == "-0.000000"
        numbers = np.random.default_rng(lines).uniform(-2.0, 2.0, size=(lines, width))
        edges = [i for i in range(lines) if i % 1024 in (0, 1023)]
        numbers[edges, 0] = -1e-9
        numbers[edges, -1] = -4e-7
        axes = [[-1e-9, *(0.25 * i for i in range(1, size))] for size in shape]
        header = [*(f"x{j}" for j in range(len(shape))), *(f"y{j}" for j in range(width))]
        expected = reference_csv(header, axes, numbers.flat)
        assert expected.count("\n") == 1 + lines
        assert landscape._csv(header, axes, numbers.ravel().tolist()) == expected

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
