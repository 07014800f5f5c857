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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .qubit import canonical_degrees

AXIS_NAMES = ("theta_a", "theta_b", "theta_c")
#: Fractional digits written by the CSV exporter.
CSV_DECIMALS = 6
_CSV_SPEC = f".{CSV_DECIMALS}f"
_NEGATIVE_ZERO = f"-{0:{_CSV_SPEC}}"
#: Refined points tying the minimum within this are reported as degenerate.
DEGENERACY_ATOL = 1e-4
#: Number of coarse-grid nodes used to start local refinement.
DEFAULT_STARTS = 5
#: Most nodes any one grid may hold; the 1-degree full cube has 181**3.
MAX_GRID_NODES = 10_000_000


def _check_grid_size(nodes: float) -> None:
    # Called with a node count computed before anything is allocated.
    if not nodes <= MAX_GRID_NODES:
        raise ValueError(f"grid of {nodes:.4g} nodes exceeds the cap of {MAX_GRID_NODES}")


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class AngleTriple:
    """Three polarizer orientations in degrees, each canonical in [0, 180)."""

    theta_a: float
    theta_b: float
    theta_c: float

    def __post_init__(self) -> None:
        for name in AXIS_NAMES:
            object.__setattr__(self, name, canonical_degrees(_finite(name, getattr(self, name))))

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
        for name in ("start", "stop", "step"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        if self.start > self.stop:
            raise ValueError(f"start {self.start!r} must not exceed stop {self.stop!r}")
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
    angle); ``values`` is flat, row-major over (theta_a, theta_b, theta_c).
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = 1
        for axis in self.axes:
            if axis.size == 0:
                raise ValueError("landscape axes must be non-empty")
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

    ``candidates`` lists every refined point whose value ties ``s_min``
    within DEGENERACY_ATOL (the minimum is degenerate: reflecting all
    three angles through 90 degrees leaves the landscape unchanged).
    """

    s_min: float
    argmin: AngleTriple
    evaluations: int
    candidates: tuple[AngleTriple, ...]


def _s_scalar(theta_a: float, theta_b: float, theta_c: float) -> float:
    sin2_ab = math.sin(math.radians(theta_b - theta_a)) ** 2
    sin2_bc = math.sin(math.radians(theta_c - theta_b)) ** 2
    sin2_ac = math.sin(math.radians(theta_c - theta_a)) ** 2
    cos2_a = math.cos(math.radians(theta_a)) ** 2
    cos2_b = math.cos(math.radians(theta_b)) ** 2
    return sin2_ab * cos2_a + sin2_bc * cos2_b - sin2_ac * cos2_a


def _s_array(theta_a, theta_b, theta_c):
    """Broadcasting evaluation of the witness over arrays of degrees."""
    a = np.radians(theta_a)
    b = np.radians(theta_b)
    c = np.radians(theta_c)
    return (
        np.sin(b - a) ** 2 * np.cos(a) ** 2
        + np.sin(c - b) ** 2 * np.cos(b) ** 2
        - np.sin(c - a) ** 2 * np.cos(a) ** 2
    )


def s_quantum(t: AngleTriple) -> float:
    """Quantum value of the witness at the given orientations.

    Equals the chain-rule combination of the three prepare-then-measure
    joint probabilities for a horizontally polarized input; can go
    negative, unlike any classical ensemble.
    """
    return _s_scalar(t.theta_a, t.theta_b, t.theta_c)


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
        axis.nodes() if isinstance(axis, ScanGrid) else np.array([_finite(name, axis)])
        for name, axis in zip(AXIS_NAMES, (axis_a, axis_b, axis_c))
    )
    values = _s_array(
        axes[0][:, None, None], axes[1][None, :, None], axes[2][None, None, :]
    )
    return SLandscape(axes=axes, values=values.ravel(order="C"))


def _cube_search(
    start: tuple[float, float, float],
    start_value: float,
    initial_step: float,
    tolerance: float,
) -> tuple[tuple[float, float, float], float, int]:
    """Derivative-free refinement by bisected cube moves.

    At each scale, steps to the best of the 3x3x3 neighborhood while that
    improves, then halves the step; stops once the step drops below
    ``tolerance``.  Only strict improvements are accepted, so the result
    can never be worse than the start.
    """
    offsets = [
        (da, db, dc)
        for da in (-1.0, 0.0, 1.0)
        for db in (-1.0, 0.0, 1.0)
        for dc in (-1.0, 0.0, 1.0)
        if (da, db, dc) != (0.0, 0.0, 0.0)
    ]
    best = start
    best_value = start_value
    evaluations = 0
    step = initial_step
    while step >= tolerance:
        moved = True
        while moved:
            moved = False
            for da, db, dc in offsets:
                trial = (best[0] + da * step, best[1] + db * step, best[2] + dc * step)
                value = _s_scalar(*trial)
                evaluations += 1
                if value < best_value:
                    best, best_value = trial, value
                    moved = True
        step *= 0.5
    return best, best_value, evaluations


def minimize_s(
    seed_grid: ScanGrid | None = None,
    tolerance: float = 0.01,
    starts: int = DEFAULT_STARTS,
) -> Optimum:
    """Global minimum of the witness by multistart refinement.

    Scans the seed grid over all three axes, then runs a local cube search
    from the ``starts`` best nodes (ties broken by lowest row-major index)
    down to the angular ``tolerance`` in degrees.  The refined minimum is
    never above the best coarse node.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    if seed_grid is None:
        seed_grid = ScanGrid.full_range()

    land = grid_scan(seed_grid, seed_grid, seed_grid)
    evaluations = land.values.size
    order = np.argsort(land.values, kind="stable")[:starts]

    refined: list[tuple[float, tuple[float, float, float]]] = []
    for flat_index in order:
        ia, ib, ic = np.unravel_index(int(flat_index), land.shape)
        node = (float(land.axes[0][ia]), float(land.axes[1][ib]), float(land.axes[2][ic]))
        node_value = _s_scalar(*node)
        evaluations += 1
        point, value, used = _cube_search(node, node_value, seed_grid.step, tolerance)
        evaluations += used
        refined.append((value, point))

    refined.sort(key=lambda item: (item[0], item[1]))
    s_min = refined[0][0]

    candidates: list[AngleTriple] = []
    seen: set[tuple[float, float, float]] = set()
    for value, point in refined:
        if value > s_min + DEGENERACY_ATOL:
            continue
        triple = AngleTriple(*point)
        # Keyed on the circle: 179.97 and 0.01 both round to the 0.0 key.
        key = tuple(round(x, 1) % 180.0 for x in triple.as_tuple())
        if key not in seen:
            seen.add(key)
            candidates.append(triple)

    return Optimum(
        s_min=s_min,
        argmin=candidates[0],
        evaluations=evaluations,
        candidates=tuple(candidates),
    )


def _fmt(x: float) -> str:
    text = f"{x:{_CSV_SPEC}}"
    # A hair below zero rounds to "-0.000000"; normalize the sign away.
    return text[1:] if text == _NEGATIVE_ZERO else text


def _csv(header: list[str], axes: list[list[float]], numbers: Iterable[float]) -> str:
    """The one CSV writer: header cells, then one line per node of ``axes``.

    Lines run over the product of ``axes`` in row-major order and start
    with one cell per axis, each axis value through _fmt once rather than
    once per line; the next ``len(header) - len(axes)`` of ``numbers``
    complete the line.
    """
    labels = itertools.product(*(tuple(map(_fmt, axis)) for axis in axes))
    # One iterator repeated: zip groups consecutive cells into a line's tail.
    tails = zip(*[map(_fmt, numbers)] * (len(header) - len(axes)))
    return "\n".join([",".join(header), *map(",".join, map(tuple.__add__, labels, tails)), ""])


def _to_csv(land: SLandscape) -> str:
    free = [i for i, axis in enumerate(land.axes) if axis.size > 1]
    values = land.values.tolist()
    if len(free) == 1:
        (i,) = free
        return _csv([AXIS_NAMES[i], "S"], [land.axes[i].tolist()], values)
    if len(free) == 2:
        row_axis, col_axis = (land.axes[i].tolist() for i in free)
        header = [f"{AXIS_NAMES[free[0]]}/{AXIS_NAMES[free[1]]}", *map(_fmt, col_axis)]
        return _csv(header, [row_axis], values)
    # Full cube (or a single fully-fixed node): long format, row-major.
    return _csv([*AXIS_NAMES, "S"], [axis.tolist() for axis in land.axes], values)


def _to_json(land: SLandscape) -> str:
    payload = {
        "axes": [axis.tolist() for axis in land.axes],
        "values": land.values.tolist(),
    }
    return json.dumps(payload) + "\n"


def export_surface(land: SLandscape, format: str = "csv") -> str:
    """Render a landscape as a plot-ready document.

    CSV follows the module's conventions, with one (angle, S) row per node
    for a single free axis, a matrix with row and column angle labels for
    two, and long (a, b, c, S) rows otherwise.
    JSON carries the axes and the flat row-major values at full precision.
    """
    if format == "csv":
        return _to_csv(land)
    if format == "json":
        return _to_json(land)
    raise ValueError(f"unknown export format: {format!r}")


def parse_surface(document: str, format: str = "csv") -> SLandscape:
    """Parse a document produced by :func:`export_surface`.

    The 1-D and 2-D CSV layouts do not record the angles of the fixed
    axes, so those come back as single zero nodes; values and free axes
    round-trip exactly at the written precision.  A CSV document that is
    empty, has no data rows, or has rows whose cell count differs from the
    header's raises ValueError.
    """
    if format == "json":
        payload = json.loads(document)
        axes = tuple(np.asarray(axis, dtype=float) for axis in payload["axes"])
        return SLandscape(axes=axes, values=np.asarray(payload["values"], dtype=float))
    if format != "csv":
        raise ValueError(f"unknown export format: {format!r}")

    header_line, _, rows = document.lstrip("\n").partition("\n")
    if not header_line:
        raise ValueError("CSV surface document is empty")
    if not rows or rows.isspace():
        raise ValueError("CSV surface document has a header but no data rows")
    header = header_line.split(",")
    # numpy's C reader parses each cell to the same double as float().  A
    # list of lines peaks lower than a StringIO, which holds 4 bytes a
    # character; loadtxt skips the blank last line.
    body = np.loadtxt(rows.split("\n"), delimiter=",", comments=None, ndmin=2)
    if body.shape[1] != len(header):
        raise ValueError(f"CSV rows have {body.shape[1]} cells, the header has {len(header)}")
    if header == [*AXIS_NAMES, "S"]:
        axes = tuple(np.unique(body[:, i]) for i in range(3))
        return SLandscape(axes=axes, values=body[:, 3])
    axes = [np.zeros(1)] * 3
    if "/" in header[0]:
        row_name, col_name = header[0].split("/")
        axes[AXIS_NAMES.index(row_name)] = body[:, 0]
        axes[AXIS_NAMES.index(col_name)] = np.array([float(cell) for cell in header[1:]])
        return SLandscape(axes=tuple(axes), values=body[:, 1:].ravel(order="C"))
    axes[AXIS_NAMES.index(header[0])] = body[:, 0]
    return SLandscape(axes=tuple(axes), values=body[:, 1])
