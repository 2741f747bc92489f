"""Raster classification of the filled set over complex-plane grids.

Pixels are sampled at their centers (no anti-aliasing: verdicts are
set-membership claims, and averaging would blur certified escapes).  The
grid is iterated in lockstep with numpy, compacting away pixels as they
escape; that makes rendering deterministic and fast without any threading.
Every fiber map has real coefficients, so the filled set is symmetric under
conjugation; on a window whose rows mirror about the real axis only the top
half is iterated and the bottom half is its copy, bit for bit (see
render_field).  Connected-component analysis of the inside set uses
4-connectivity, a conservative under-approximation of topological
connectivity — raster results are evidence, not proofs.

Escape steps are recorded 1-based; step 0 means the pixel never escaped
within the budget ("inside at budget").  A pixel whose orbit enters a trap
disk of the system (`FiberedSystem.contraction_disk` or `.cycle_disk`) is
certified never to escape, so it leaves the active set at once with step 0:
the steps are those of the untrapped loop, which iterates it to the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import ESCAPE_RADIUS, FiberedSystem
from .errors import (
    OriginEscapedError,
    OutOfRangeError,
    check_int,
    check_point,
    check_real,
)
from .numeration import _LEVEL_CAP

__all__ = [
    "GridSpec",
    "EscapeField",
    "render_field",
    "component_of_zero",
    "count_components",
    "write_image",
    "write_field_csv",
    "write_points_csv",
    "INSIDE_COLOR",
]

# Fixed palette: solid color for inside pixels, a warm-to-dark ramp over
# escape-step/budget ratio for escaped ones.
INSIDE_COLOR = (18, 26, 92)
#: Pixels per grid (2048 x 2048): `render_field` holds several arrays of this size.
_PIXEL_CAP = 1 << 22


@dataclass(frozen=True)
class GridSpec:
    """A complex-plane raster window with an iteration budget.

    Row 0 is the top of the image (largest imaginary part), matching image
    conventions; pixel (row, col) samples the center of its cell.  A grid
    of more than `_PIXEL_CAP` pixels, or a `max_iter` above `_LEVEL_CAP`,
    is refused (BudgetExceededError), so `render_field` never starts on one.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    width: int
    height: int
    max_iter: int
    radius: float = ESCAPE_RADIUS

    def __post_init__(self):
        for name, cap in (("width", None), ("height", None), ("max_iter", _LEVEL_CAP)):
            # kept as ints, numpy integers too
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1, cap))
        check_int("pixels", self.width * self.height, 1, _PIXEL_CAP)
        for name in ("re_min", "re_max", "im_min", "im_max", "radius"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), -math.inf))
        if not (self.re_min < self.re_max):
            raise OutOfRangeError(f"need re_min < re_max, got [{self.re_min}, {self.re_max}]")
        if not (self.im_min < self.im_max):
            raise OutOfRangeError(f"need im_min < im_max, got [{self.im_min}, {self.im_max}]")
        for name in ("dx", "dy"):
            if not math.isfinite(getattr(self, name)):
                raise OutOfRangeError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.radius > 1.0):
            raise OutOfRangeError(
                f"escape radius must exceed 1 (growth past 1 is the certificate), got {self.radius}"
            )

    @property
    def dx(self) -> float:
        return (self.re_max - self.re_min) / self.width

    @property
    def dy(self) -> float:
        return (self.im_max - self.im_min) / self.height

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys): pixel-center real parts by column, imaginary parts by row.

        Elementwise float64 arithmetic rounds like the scalar arithmetic of
        complex_at, so complex(xs[col], ys[row]) == complex_at(row, col).
        """
        xs = self.re_min + (np.arange(self.width) + 0.5) * self.dx
        ys = self.im_max - (np.arange(self.height) + 0.5) * self.dy
        return xs, ys

    def complex_at(self, row: int, col: int) -> complex:
        """Center of pixel (row, col)."""
        x = self.re_min + (col + 0.5) * self.dx
        y = self.im_max - (row + 0.5) * self.dy
        return complex(x, y)

    def pixel_of(self, z: complex) -> tuple[int, int]:
        """(row, col) of the pixel whose cell contains z; raises if outside."""
        z = check_point("z", z)
        col = int(np.floor((z.real - self.re_min) / self.dx))
        row = int(np.floor((self.im_max - z.imag) / self.dy))
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise OutOfRangeError(f"point {z} lies outside the grid window")
        return row, col


@dataclass(frozen=True)
class EscapeField:
    """Escape verdicts for every pixel of a grid.

    steps has shape (height, width), dtype int32: 0 for pixels still bounded
    at the budget, otherwise the 1-based index of the first composition whose
    modulus exceeded the escape radius.
    """

    grid: GridSpec
    steps: np.ndarray

    def __post_init__(self):
        if self.steps.shape != (self.grid.height, self.grid.width):
            raise OutOfRangeError(
                f"steps shape {self.steps.shape} does not match grid "
                f"{self.grid.height}x{self.grid.width}"
            )
        if not (0 <= self.steps.min() and self.steps.max() <= self.grid.max_iter):
            raise OutOfRangeError(f"steps must lie in [0, {self.grid.max_iter}]")

    @property
    def inside(self) -> np.ndarray:
        """Boolean mask of pixels bounded through the whole budget."""
        return self.steps == 0

    def inside_fraction(self) -> float:
        return float(self.inside.mean())

    @cached_property
    def _labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_label_runs` of the inside set, computed once per field.

        Read by `count_components` and `component_of_zero`; steps must not be
        modified after the first read.
        """
        return _label_runs(self.inside)


def _label_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4-connected components of a boolean raster, found on its row runs.

    Returns (begin, end, root).  Pixel (r, c) sits at r·(w + 1) + c, with one
    padding column per row; run i covers [begin[i], end[i]) in raster order,
    and root[i], the first run of its component, names the component.  Run
    b of row r + 1 touches run a of row r when begin[b] < end[a] + w + 1 and
    end[b] > begin[a] + w + 1; those b form a contiguous range, found by
    bisection.  The components come from root hooking (Shiloach & Vishkin,
    J. Algorithms 3, 1982): each round hooks the larger root of every edge
    onto the smaller one, then jumps pointers until every run points at a
    root.
    """
    w = mask.shape[1]
    edge = np.flatnonzero(np.diff(mask, axis=1, prepend=False, append=False))
    begin, end = edge[::2], edge[1::2]  # each row's edges alternate: a run begins, it ends
    lo = np.searchsorted(end, begin + w + 1, side="right")
    count = np.maximum(np.searchsorted(begin, end + w + 1) - lo, 0)
    a = np.repeat(np.arange(begin.size), count)
    b = np.arange(a.size) + np.repeat(lo - np.cumsum(count) + count, count)
    root = np.arange(begin.size)
    while not np.array_equal(ra := root[a], rb := root[b]):
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(root, jumped := root[root]):
            root = jumped
    return begin, end, root


@np.errstate(over="ignore", invalid="ignore")  # an orbit that overflows escapes, silently
def render_field(sys: FiberedSystem, grid: GridSpec) -> EscapeField:
    """Classify every pixel center by iterating the fiber compositions.

    The active pixel set is compacted after every level, so late iterations
    only touch the still-bounded points.  Each level is the recursion of
    FiberedSystem.orbit, (w - c) / p then ** d, computed in place over arrays;
    a pixel leaves the active set when it escapes, or with step 0 when ι_j
    (w after the division) lies in `sys.contraction_disk` or f̃_j lies in
    `sys.cycle_disk`.

    When the rows mirror about the real axis (ys reversed == -ys), only rows
    [:(h + 1)//2] are iterated and the bottom rows copy them in reverse.  The
    mirror is exact: every step (subtracting the real c, dividing by p + 0j,
    the integer power, abs) commutes with conjugation under sign-symmetric
    round-to-nearest, fused multiply-adds included, so conj(z) escapes at
    the same step as z, bit for bit.
    """
    xs, ys = grid.axes()
    rows = (grid.height + 1) // 2 if np.array_equal(ys[::-1], -ys) else grid.height
    w = (xs[None, :] + 1j * ys[:rows, None]).ravel()

    steps = np.zeros((grid.height, grid.width), dtype=np.int32)
    flat = steps.reshape(-1)
    active = np.arange(w.size)
    mod = np.empty(w.size)
    con, cyc = sys.contraction_disk, sys.cycle_disk
    for j in range(1, grid.max_iter + 1):
        c, p, d = sys.level(j)
        np.subtract(w, c, out=w)
        np.divide(w, p, out=w)
        done = con.contains(w) if con and j >= con.start else None
        w **= d
        escaped = ~(np.abs(w, out=mod[: w.size]) <= grid.radius)  # a NaN from an overflow escapes
        if escaped.any():
            flat[active[escaped]] = j
            done = escaped if done is None else done | escaped
        if cyc and j >= cyc.start:
            held = cyc.contains(w)
            done = held if done is None else done | held
        if done is not None and done.any():
            keep = ~done
            active = active[keep]
            w = w[keep]
            if active.size == 0:
                break
    steps[rows:] = steps[: grid.height - rows][::-1]
    return EscapeField(grid=grid, steps=steps)


def component_of_zero(field: EscapeField) -> np.ndarray:
    """Boolean mask of the 4-connected inside component containing the origin.

    This raster component is the proxy for the candidate point-spectrum
    region (the interior component of the filled set around 0).  Raises
    OriginEscapedError when the pixel holding 0 was classified escaped —
    with a sane budget that can only mean the grid or budget is misconfigured,
    since the orbit of 0 never leaves the closed unit disk.
    """
    row, col = field.grid.pixel_of(0j)
    if not field.inside[row, col]:
        raise OriginEscapedError(
            f"pixel containing the origin escaped at step {int(field.steps[row, col])}"
        )
    h, w = field.steps.shape
    begin, end, root = field._labels
    ours = root == root[np.searchsorted(begin, row * (w + 1) + col, side="right") - 1]
    flips = np.zeros(h * (w + 1), dtype=bool)  # each run of the component turns on at begin, off at end
    flips[begin[ours]] = flips[end[ours]] = True
    return np.logical_xor.accumulate(flips).reshape(h, w + 1)[:, :w]


def count_components(field: EscapeField) -> int:
    """Number of 4-connected components of the inside set."""
    return len(np.unique(field._labels[2]))


# -- artifact output ---------------------------------------------------------


def _present_steps(steps: np.ndarray, max_iter: int) -> np.ndarray:
    """The distinct values of steps, ascending: the rows a per-step table needs."""
    return np.flatnonzero(np.bincount(steps.ravel(), minlength=max_iter + 1))


def _palette(steps: np.ndarray, max_iter: int) -> np.ndarray:
    """RGB image: fixed inside color, escape-ratio ramp elsewhere.

    One color per step that occurs, gathered by step.
    """
    present = _present_steps(steps, max_iter)
    lut = np.empty((max_iter + 1, 3), dtype=np.uint8)
    lut[0] = INSIDE_COLOR
    esc = present[present > 0]
    t = esc.astype(np.float64) / float(max_iter)
    lut[esc, 0] = np.clip(255.0 * np.sqrt(t), 0, 255).astype(np.uint8)
    lut[esc, 1] = np.clip(60.0 + 160.0 * t, 0, 255).astype(np.uint8)
    lut[esc, 2] = np.clip(255.0 * (1.0 - t), 0, 255).astype(np.uint8)
    return np.take(lut, steps, axis=0)


def write_image(field: EscapeField, fileobj, overlays=None) -> None:
    """Write a binary P6 portable pixmap, with optional 3×3 point markers.

    overlays is an iterable of (points, rgb) layers; each point is drawn as
    a 3×3 square centered at its pixel, clipped at the borders, and points
    outside the window are skipped.  Output is byte-identical for identical
    inputs.
    """
    grid = field.grid
    img = _palette(field.steps, grid.max_iter)
    for points, rgb in overlays or ():
        color = np.asarray(rgb, dtype=np.uint8)
        for z in points:
            try:
                row, col = grid.pixel_of(complex(z))
            except OutOfRangeError:
                continue
            r0, r1 = max(row - 1, 0), min(row + 2, grid.height)
            c0, c1 = max(col - 1, 0), min(col + 2, grid.width)
            img[r0:r1, c0:c1] = color
    fileobj.write(b"P6\n%d %d\n255\n" % (grid.width, grid.height))
    fileobj.write(img.tobytes())


def write_field_csv(field: EscapeField, fileobj) -> None:
    """Dump per-pixel verdicts: re,im,verdict,step (step = budget when inside).

    Written one row per call.  Each column's "re," and each row's im are
    formatted once, and a "verdict,step" tail once per step that occurs; a
    row's pieces are gathered into one object array and joined, so the
    whole file is never held as one string.
    """
    grid = field.grid
    xs, ys = grid.axes()
    present = _present_steps(field.steps, grid.max_iter)
    tails = np.empty(grid.max_iter + 1, dtype=object)
    tails[present] = [f",escaped,{s}\n" if s else f",inside,{grid.max_iter}\n" for s in present.tolist()]
    pieces = np.empty(3 * grid.width, dtype=object)
    pieces[0::3] = [repr(x) + "," for x in xs.tolist()]
    fileobj.write("re,im,verdict,step\n")
    for y, row in zip(ys.tolist(), field.steps):
        pieces[1::3] = repr(y)
        pieces[2::3] = tails[row]
        fileobj.write("".join(pieces.tolist()))


def write_points_csv(points, fileobj) -> None:
    """Write complex points as re,im rows (floats by repr, so they round-trip)."""
    fileobj.write("re,im\n")
    for z in points:
        fileobj.write(f"{z.real!r},{z.imag!r}\n")
