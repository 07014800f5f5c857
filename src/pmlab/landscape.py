"""The quantum witness landscape over three polarizer orientations.

Closed-form evaluation of S(theta_a, theta_b, theta_c), grid scanning at
the bench's angular resolution, multistart global minimization, and
plot-ready CSV/JSON export of scanned surfaces.

Every CSV file the package writes, here and in the bench, goes through
``_csv``: 6 fractional digits (``CSV_DECIMALS``), never ``-0.000000``,
``nan`` for a data hole, commas, and an LF after every line.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .qubit import _instance, _number, canonical_degrees

__all__ = [
    "AngleTriple",
    "Optimum",
    "ScanGrid",
    "SLandscape",
    "export_surface",
    "grid_scan",
    "minimize_s",
    "parse_surface",
    "s_quantum",
]

AXIS_NAMES = ("theta_a", "theta_b", "theta_c")
#: Fractional digits written by the CSV exporter.
CSV_DECIMALS = 6
_CSV_SPEC = f".{CSV_DECIMALS}f"
_NEGATIVE_ZERO = f"-{0:{_CSV_SPEC}}"
#: 256 Ki characters of a CSV document and the rest of that line; the next opens on its newline.
_BLOCK = re.compile(r".{1,262144}[^\n]*", re.DOTALL)
#: Number of coarse-grid nodes used to start local refinement.
DEFAULT_STARTS = 5
#: Most nodes any one grid may hold; the 1-degree full cube has 181**3.
MAX_GRID_NODES = 10_000_000


def _check_grid_size(nodes: float) -> None:
    # Called with a node count computed before anything is allocated.
    if not nodes <= MAX_GRID_NODES:
        raise ValueError(f"grid of {nodes:.4g} nodes exceeds the cap of {MAX_GRID_NODES}")


@dataclass(frozen=True)
class AngleTriple:
    """Three polarizer orientations in degrees, each canonical in [0, 180)."""

    theta_a: float
    theta_b: float
    theta_c: float

    def __post_init__(self) -> None:
        for name in AXIS_NAMES:
            object.__setattr__(self, name, canonical_degrees(_number(name, getattr(self, name))))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta_a, self.theta_b, self.theta_c)


@dataclass(frozen=True)
class ScanGrid:
    """Inclusive angular grid: start, start+step, ..., stop (degrees).

    A zero-length grid (start == stop) is the single-node degenerate case;
    the span must otherwise be an integer number of steps.
    """

    start: float
    stop: float
    step: float = 6.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _number("start", self.start))
        object.__setattr__(self, "stop", _number("stop", self.stop, self.start))
        object.__setattr__(self, "step", _number("step", self.step, 0.0, strict=True))
        count = (self.stop - self.start) / self.step
        _check_grid_size(count + 1)
        if abs(count - round(count)) > 1e-9:
            raise ValueError(
                f"span {self.stop - self.start!r} is not a multiple of step {self.step!r}"
            )

    @classmethod
    def full_range(cls, step: float = 6.0) -> "ScanGrid":
        """The bench's acquisition range [0, 180] at the given step."""
        return cls(0.0, 180.0, step)

    @property
    def size(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    def nodes(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.size)


@dataclass(frozen=True, eq=False)
class SLandscape:
    """Witness values sampled on a rectangular grid of orientations.

    ``axes`` holds the node angles per dimension (length-1 for a fixed
    angle), each node once; ``values`` is flat, row-major over
    (theta_a, theta_b, theta_c).  All four are 1-D numpy arrays of float16,
    float32 or float64, the numbers export_surface writes and parse_surface reads.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    values: np.ndarray

    def __post_init__(self) -> None:
        # A dtype check per array, so grid_scan pays nothing per node.
        arrays = (*self.axes, self.values) if isinstance(self.axes, tuple | list) else ()
        if len(arrays) != 4 or not all(
            isinstance(array, np.ndarray) and array.ndim == 1 and array.dtype.char in "efd"
            for array in arrays
        ):
            raise ValueError("landscape axes must be three 1-D arrays, values one, float64 or less")
        expected = 1
        for name, axis in zip(AXIS_NAMES, self.axes):
            if axis.size == 0 or not np.all(np.isfinite(axis)):
                raise ValueError("landscape axes must be non-empty and finite")
            # A node listed twice would carry two values.
            if np.unique(axis).size < axis.size:
                raise ValueError(f"surface axis {name} lists a node twice")
            expected *= axis.size
        if self.values.size != expected:
            raise ValueError(f"expected {expected} values, got {self.values.size}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("landscape values must be finite")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(axis.size for axis in self.axes)  # type: ignore[return-value]


@dataclass(frozen=True)
class Optimum:
    """Result of the global minimization.

    ``s_min`` is the witness at ``argmin``.  The minimum is degenerate:
    reflecting all three angles through 90 degrees leaves the landscape
    unchanged, so ``candidates`` lists ``argmin`` and then its mirror
    image, unless the two are the same triple.
    """

    s_min: float
    evaluations: int
    candidates: tuple[AngleTriple, ...]

    @property
    def argmin(self) -> AngleTriple:
        """The first candidate, the refined point with the lowest value."""
        return self.candidates[0]


def _s(theta_a, theta_b, theta_c, xp=math):
    """The witness from degrees: floats through ``math``, arrays through ``xp=np``."""
    a, b, c = xp.radians(theta_a), xp.radians(theta_b), xp.radians(theta_c)
    cos2_a = xp.cos(a) ** 2
    return (
        xp.sin(b - a) ** 2 * cos2_a
        + xp.sin(c - b) ** 2 * xp.cos(b) ** 2
        - xp.sin(c - a) ** 2 * cos2_a
    )


def s_quantum(t: AngleTriple) -> float:
    """Quantum value of the witness at the given orientations.

    Equals the chain-rule combination of the three prepare-then-measure
    joint probabilities for a horizontally polarized input; can go
    negative, unlike any classical ensemble.
    """
    t = _instance("t", t, AngleTriple)
    return _s(t.theta_a, t.theta_b, t.theta_c)


def grid_scan(
    axis_a: ScanGrid | float,
    axis_b: ScanGrid | float,
    axis_c: ScanGrid | float,
) -> SLandscape:
    """Evaluate the witness at every node of the grid.

    Each axis is either a ScanGrid or a fixed angle in degrees, which
    becomes a length-1 axis.  Values come out flat in row-major order over
    (theta_a, theta_b, theta_c), independent of evaluation scheduling.
    """
    grids = [axis for axis in (axis_a, axis_b, axis_c) if isinstance(axis, ScanGrid)]
    _check_grid_size(math.prod(grid.size for grid in grids))
    axes = tuple(
        axis.nodes() if isinstance(axis, ScanGrid) else np.array([_number(name, axis)])
        for name, axis in zip(AXIS_NAMES, (axis_a, axis_b, axis_c))
    )
    values = _s(axes[0][:, None, None], axes[1][None, :, None], axes[2][None, None, :], np)
    return SLandscape(axes=axes, values=values.ravel(order="C"))


def _s_over_c(theta_a, theta_b, xp=math):
    """The witness minimized over theta_c in closed form, as ``(value, w_x, w_y)``.

    For fixed (a, b) the witness is cos^2 a sin^2(b-a) + (cos^2 b - cos^2 a)/2
    minus |w| cos(2c - arg w)/2, with w = cos^2 b e^{2ib} - cos^2 a e^{2ia},
    so its minimum over c is at theta_c = arg(w)/2.  Floats through
    ``math``, arrays through ``xp=np``, as in ``_s``.
    """
    a, b = xp.radians(theta_a), xp.radians(theta_b)
    cos2_a, cos2_b = xp.cos(a) ** 2, xp.cos(b) ** 2
    w_x = cos2_b * xp.cos(2 * b) - cos2_a * xp.cos(2 * a)
    w_y = cos2_b * xp.sin(2 * b) - cos2_a * xp.sin(2 * a)
    return cos2_a * xp.sin(b - a) ** 2 + (cos2_b - cos2_a - xp.hypot(w_x, w_y)) / 2, w_x, w_y


#: The 8 moves to the 3x3 neighborhood of an (a, b) point, in the order they are tried.
_MOVES = [move for move in itertools.product((-1.0, 0.0, 1.0), repeat=2) if any(move)]


def minimize_s(
    seed_grid: ScanGrid | None = None,
    tolerance: float = 0.01,
    starts: int = DEFAULT_STARTS,
) -> Optimum:
    """Global minimum of the witness by multistart refinement over (theta_a, theta_b).

    theta_c is eliminated in closed form (``_s_over_c``).  Evaluates the
    seed grid over theta_a and theta_b, then from the ``starts`` best nodes
    (ties broken by lowest row-major index) tries the 8 neighbours in
    ``_MOVES`` order, moving to each one that improves on the current point
    and trying the rest from there, and sweeps again until a sweep makes no
    move; then it halves the step, from the grid's down to the angular
    ``tolerance`` in degrees.  The refined minimum is never
    above the best seed node, so never above any node of the seed cube.
    Raises ValueError for a ``seed_grid`` that is not a ScanGrid, or whose
    square exceeds the node cap.
    """
    if not isinstance(seed_grid, ScanGrid | None):
        raise ValueError(f"seed_grid must be a ScanGrid, got {type(seed_grid).__name__}")
    tolerance = _number("tolerance", tolerance, 0.0, strict=True)
    starts = _number("starts", starts, 1, integer=True)
    if seed_grid is None:
        seed_grid = ScanGrid.full_range()
    _check_grid_size(seed_grid.size**2)

    nodes = seed_grid.nodes()
    seeds = _s_over_c(nodes[:, None], nodes[None, :], np)[0].ravel()
    evaluations = seeds.size
    refined = []
    for flat_index in np.argsort(seeds, kind="stable")[:starts]:
        ia, ib = divmod(int(flat_index), nodes.size)
        best = (float(nodes[ia]), float(nodes[ib]))
        best_value = float(seeds[flat_index])
        step = seed_grid.step
        while step >= tolerance:
            moved = True
            while moved:
                moved = False
                for da, db in _MOVES:
                    trial = (best[0] + da * step, best[1] + db * step)
                    value = _s_over_c(*trial)[0]
                    evaluations += 1
                    # Only strict improvements, so refinement never ends above its seed.
                    if value < best_value:
                        best, best_value = trial, value
                        moved = True
            step *= 0.5
        refined.append((best_value, best))

    a, b = min(refined)[1]
    _, w_x, w_y = _s_over_c(a, b)
    argmin = AngleTriple(a, b, math.degrees(math.atan2(w_y, w_x)) / 2)
    # Reflecting every angle through 90 degrees leaves the witness unchanged.
    mirror = AngleTriple(*(180.0 - angle for angle in argmin.as_tuple()))
    candidates = (argmin,) if mirror == argmin else (argmin, mirror)
    return Optimum(s_min=s_quantum(argmin), evaluations=evaluations, candidates=candidates)


def _fmt(x: float) -> str:
    text = f"{x:{_CSV_SPEC}}"
    # A hair below zero rounds to "-0.000000"; normalize the sign away.
    return text[1:] if text == _NEGATIVE_ZERO else text


def _csv(header: list[str], axes: list[list[float]], numbers: Iterable[float]) -> str:
    """The one CSV writer: header cells, then one line per node of ``axes``.

    Lines run over the product of ``axes`` in row-major order: one cell per
    axis, each axis value through _fmt once rather than once per line, then
    the next ``len(header) - len(axes)`` of ``numbers`` to CSV_DECIMALS.
    Lines go out in blocks of 1,024, each formatted by one ``%`` on a
    template of its labels, and then rid of ``-0.000000`` at once.
    """
    labels = itertools.product(*(tuple(map(_fmt, axis)) for axis in axes))
    width = len(header) - len(axes)
    numbers = iter(numbers)
    # _fmt writes no "%", so the labels go into the template as they are.
    cells = f",%{_CSV_SPEC}" * width + "\n"
    # A number never starts a line, so each signed zero follows a comma.
    signed, unsigned = "," + _NEGATIVE_ZERO, "," + _NEGATIVE_ZERO[1:]
    blocks = [",".join(header) + "\n"]
    while rows := list(itertools.islice(labels, 1024)):
        template = cells.join(map(",".join, rows)) + cells
        block = template % tuple(itertools.islice(numbers, len(rows) * width))
        blocks.append(block.replace(signed, unsigned))
    return "".join(blocks)


def _to_csv(land: SLandscape) -> str:
    free = [i for i, axis in enumerate(land.axes) if axis.size > 1]
    # Python floats a slice at a time, not a list of every value.
    values = itertools.chain.from_iterable(
        land.values[i : i + 4096].tolist() for i in range(0, land.values.size, 4096)
    )
    if len(free) == 1:
        return _csv([AXIS_NAMES[free[0]], "S"], [land.axes[free[0]].tolist()], values)
    if len(free) == 2:
        row_axis, col_axis = (land.axes[i].tolist() for i in free)
        header = [f"{AXIS_NAMES[free[0]]}/{AXIS_NAMES[free[1]]}", *map(_fmt, col_axis)]
        return _csv(header, [row_axis], values)
    # Full cube (or a single fully-fixed node): long format, row-major.
    return _csv([*AXIS_NAMES, "S"], [axis.tolist() for axis in land.axes], values)


def export_surface(land: SLandscape, format: str = "csv") -> str:
    """Render a landscape as a plot-ready document.

    CSV follows the module's conventions, with one (angle, S) row per node
    for a single free axis, a matrix with row and column angle labels for
    two, and long (a, b, c, S) rows otherwise.
    JSON carries the axes and the flat row-major values at full precision.
    Distinct CSV nodes that parse_surface would read back as one, being
    equal to 6 decimals, raise ValueError naming their axis.
    """
    land = _instance("land", land, SLandscape)
    if format == "json":
        axes = json.dumps([axis.tolist() for axis in land.axes])
        # Values a slice at a time, as json.dumps would space them, not a
        # Python float and a fragment per value all at once.
        cells = (
            ("" if i == 0 else ", ") + json.dumps(land.values[i : i + 4096].tolist())[1:-1]
            for i in range(0, land.values.size, 4096)
        )
        return "".join(['{"axes": ', axes, ', "values": [', *cells, "]}\n"])
    if format != "csv":
        raise ValueError(f"unknown export format: {format!r}")
    for name, axis in zip(AXIS_NAMES, land.axes):
        if len(set(map(float, map(_fmt, axis.tolist())))) < axis.size:
            raise ValueError(f"surface axis {name} has nodes that are equal once written")
    return _to_csv(land)


def parse_surface(document: str, format: str = "csv") -> SLandscape:
    """Parse a document produced by :func:`export_surface`.

    The 1-D and 2-D CSV layouts do not record the angles of the fixed
    axes, so those come back as single zero nodes; values and free axes
    round-trip exactly at the written precision.  CSV rows are read about
    256 KiB at a time, and the arrays returned own their data.  A CSV
    document that is empty, has a header export_surface does not write,
    has no data rows, has rows whose cell count differs from the header's,
    or has long rows whose angles are not the row-major product of their
    axes (each read in order of first appearance) raises ValueError, as do
    a JSON document that is not an object holding three axis lists and a
    values list, all of numbers, or that nests too deeply to parse; a
    document in any layout with an axis that lists a node twice; and a
    document that is not a string.
    """
    if not isinstance(document, str):
        raise ValueError(f"surface document must be a string, got {type(document).__name__}")
    if format == "json":
        try:
            payload = json.loads(document, parse_int=float)
        except RecursionError:
            raise ValueError("JSON surface document nests too deeply") from None
        # With ints read as floats (too large ones as inf), one type set per
        # list rejects strings, booleans, nulls and nested lists.
        match payload:
            case {"axes": [list(), list(), list()] as axes, "values": list() as values} if all(
                {*map(type, cells)} <= {float} for cells in (*axes, values)
            ):
                axes = tuple(np.asarray(axis, dtype=float) for axis in axes)
                return SLandscape(axes, np.asarray(values, dtype=float))
        raise ValueError('JSON surface must be {"axes": [3 lists], "values": list} of numbers')
    if format != "csv":
        raise ValueError(f"unknown export format: {format!r}")

    head = re.match(r"\n*([^\n]*)\n?", document)
    header_line, rows = head[1], head.end()
    if not header_line:
        raise ValueError("CSV surface document is empty")
    if re.compile(r"\s*\Z").match(document, rows):
        raise ValueError("CSV surface document has a header but no data rows")
    header = header_line.split(",")
    name = header[0]
    # Only the headers export_surface writes: long rows, one free axis, or
    # a matrix whose row axis comes before its column axis.
    long = header == [*AXIS_NAMES, "S"]
    pairs = {"/".join(pair) for pair in itertools.combinations(AXIS_NAMES, 2)}
    matrix = len(header) > 1 and name in pairs
    if not (long or matrix or header == [name, "S"] and name in AXIS_NAMES):
        raise ValueError(f"CSV surface header {header_line!r} is not one export_surface writes")
    # numpy's C reader parses each cell to the same double as float() and
    # skips blank lines.  One call reads every row, so its messages count rows
    # as the document does, but it is handed one _BLOCK's lines at a time.
    lines = (block[0].split("\n") for block in _BLOCK.finditer(document, rows))
    body = np.loadtxt(itertools.chain.from_iterable(lines), delimiter=",", comments=None, ndmin=2)
    if body.shape[1] != len(header):
        raise ValueError(f"CSV rows have {body.shape[1]} cells, the header has {len(header)}")
    axes = [np.zeros(1)] * 3
    if long:
        # In row-major order the leading run of the first theta_a spans one
        # theta_a node, and the leading run of theta_b within it one theta_b
        # node; each axis is read off the grid those runs give, and every
        # label column must equal its axis broadcast over the grid.
        span_a = int(np.argmax(body[:, 0] != body[0, 0])) or len(body)
        span_b = int(np.argmax(body[:span_a, 1] != body[0, 1])) or span_a
        shape = (len(body) // span_a, span_a // span_b, span_b)
        grid = body[: math.prod(shape), :3].reshape(*shape, 3)
        axes = [grid[:, 0, 0, 0], grid[0, :, 0, 1], grid[0, 0, :, 2]]
        if math.prod(shape) != len(body) or not (
            (grid[..., 0] == axes[0][:, None, None]).all()
            and (grid[..., 1] == axes[1][:, None]).all()
            and (grid[..., 2] == axes[2]).all()
        ):
            raise ValueError("CSV surface rows are not the row-major product of their axes")
        values = body[:, 3]
    elif matrix:
        row_name, col_name = name.split("/")
        axes[AXIS_NAMES.index(row_name)] = body[:, 0]
        axes[AXIS_NAMES.index(col_name)] = np.array([float(cell) for cell in header[1:]])
        values = body[:, 1:]
    else:
        axes[AXIS_NAMES.index(name)] = body[:, 0]
        values = body[:, 1]
    # Copies that own their data, so the landscape does not keep body alive.
    return SLandscape(axes=tuple(axis.copy() for axis in axes), values=values.flatten())
