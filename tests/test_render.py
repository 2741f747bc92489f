"""Raster escape fields: grid geometry, classification, components, artifacts.

The renderer is cross-checked pixel-by-pixel against the scalar escape test,
and its geometric/symmetry invariants are exercised on grids whose pixel
centers are exact dyadics so conjugation symmetry is bit-exact.
"""

import io
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage

from juliaspec import render
from juliaspec.dynamics import FiberedSystem, escape_classify
from juliaspec.errors import BudgetExceededError, OriginEscapedError, OutOfRangeError
from juliaspec.numeration import _LEVEL_CAP, BaseSequence
from juliaspec.render import (
    INSIDE_COLOR,
    EscapeField,
    GridSpec,
    component_of_zero,
    count_components,
    render_field,
    write_field_csv,
    write_image,
)
from juliaspec.sequences import constant


def shift_system():
    # p identically 1 turns every fiber map into plain squaring, whose
    # filled set is the closed unit disk.
    return FiberedSystem(BaseSequence(2), constant(1))


# -- grid geometry -----------------------------------------------------------


def test_grid_validation():
    good = dict(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0, width=4, height=4, max_iter=10)
    GridSpec(**good)
    for bad in (
        dict(good, re_min=1.0),
        dict(good, im_max=-1.0),
        dict(good, width=0),
        dict(good, height=0),
        dict(good, max_iter=0),
        dict(good, radius=1.0),
        dict(good, radius=0.5),
        dict(good, re_min=float("-inf")),
        dict(good, im_max=float("inf")),
        dict(good, im_min=float("nan")),
        dict(good, re_min=-1e308, re_max=1e308),  # finite bounds, infinite dx
        dict(good, im_min=-1e308, im_max=1e308),
        dict(good, radius=float("inf")),
    ):
        with pytest.raises(OutOfRangeError):
            GridSpec(**bad)


def test_grids_past_the_pixel_cap_are_refused_before_allocating():
    # 2048 x 2048 is the cap itself; one row more is refused before any array exists.
    assert render._PIXEL_CAP == 2048 * 2048
    window = (-1.0, 1.0, -1.0, 1.0)
    GridSpec(*window, 2048, 2048, 10)
    sys = shift_system()
    sys.level(10)  # the level table, so that only the refused calls are traced
    for width, height in ((2048, 2049), (2, 1 << 21 | 1), (10**6, 10**6)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                render_field(sys, GridSpec(*window, width, height, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (width, height, peak)


def test_pixel_center_roundtrip():
    grid = GridSpec(-1.37, 0.83, -0.61, 1.19, 11, 7, 25)
    assert grid.dx == pytest.approx(2.2 / 11)
    assert grid.dy == pytest.approx(1.8 / 7)
    for row in range(7):
        for col in range(11):
            z = grid.complex_at(row, col)
            assert grid.pixel_of(z) == (row, col)
    assert grid.complex_at(0, 0).imag > grid.complex_at(6, 0).imag  # row 0 on top
    for outside in (2.0, -1.4, complex(0, 1.2), complex(0.83, 0)):
        with pytest.raises(OutOfRangeError):
            grid.pixel_of(outside)


def test_field_shape_validation():
    grid = GridSpec(-1, 1, -1, 1, 4, 3, 10)
    with pytest.raises(OutOfRangeError):
        EscapeField(grid, np.zeros((4, 4), dtype=np.int32))
    for bad in (-1, 11):  # a step is 0 (inside) or an escape level within the budget
        steps = np.zeros((3, 4), dtype=np.int32)
        steps[1, 2] = bad
        with pytest.raises(OutOfRangeError):
            EscapeField(grid, steps)


# -- rendering ---------------------------------------------------------------


def test_render_agrees_with_scalar_escape_test(systems):
    grids = [
        GridSpec(-1.3, 0.9, -0.8, 1.1, 64, 64, 200),  # asymmetric: every row iterated
        GridSpec(-1.5, 1.5, -1.5, 1.5, 48, 47, 200),  # symmetric: bottom rows mirrored
        GridSpec(-1e300, 1e300, -1e300, 1e300, 8, 8, 200),  # first iterates overflow: step 1
    ]
    for grid in grids:
        for name, sys in systems.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an overflowing orbit escapes without a RuntimeWarning
                field = render_field(sys, grid)
            for row in range(grid.height):
                for col in range(grid.width):
                    out = escape_classify(sys, grid.complex_at(row, col), grid.max_iter)
                    if out.escaped:
                        assert field.steps[row, col] == out.step, (name, row, col)
                    else:
                        assert field.steps[row, col] == 0, (name, row, col)


def test_budget_extension_preserves_early_escapes(systems):
    sys = systems["ternary-p12"]
    short = render_field(sys, GridSpec(-1.2, 1.2, -1.2, 1.2, 16, 16, 6))
    long = render_field(sys, GridSpec(-1.2, 1.2, -1.2, 1.2, 16, 16, 40))
    esc = short.steps > 0
    assert np.array_equal(long.steps[esc], short.steps[esc])
    rest = long.steps[~esc]
    assert np.all((rest == 0) | (rest > 6))


def test_conjugation_symmetry_is_exact(systems):
    # Dyadic windows with dy = 3/32: pixel-center heights are exact negatives
    # of each other, so render_field iterates only the top rows.  The bottom
    # half as a window of its own is not symmetric, so it is iterated
    # directly; its verdicts must equal the mirrored rows.
    pairs = [
        (GridSpec(-1.5, 1.5, -1.5, 1.5, 32, 32, 60), GridSpec(-1.5, 1.5, -1.5, 0.0, 32, 16, 60)),
        # Odd height: the centre row sits exactly on the real axis.
        (
            GridSpec(-1.5, 1.5, -1.546875, 1.546875, 32, 33, 60),
            GridSpec(-1.5, 1.5, -1.546875, 0.046875, 32, 17, 60),
        ),
    ]
    for full, bottom in pairs:
        xs, ys = full.axes()
        assert np.array_equal(ys[::-1], -ys)
        xs_b, ys_b = bottom.axes()
        assert np.array_equal(xs_b, xs)
        assert np.array_equal(ys_b, ys[full.height - bottom.height:])
        assert not np.array_equal(ys_b[::-1], -ys_b)
        for name, sys in systems.items():
            top = render_field(sys, full).steps
            low = render_field(sys, bottom).steps
            assert np.array_equal(top[full.height - bottom.height:], low), name
            assert np.array_equal(low[::-1], top[: bottom.height]), name
            assert len(np.unique(top)) > 2, name  # the comparison sees structure


def test_shift_field_is_unit_disk_indicator():
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 64, 64, 60)
    field = render_field(shift_system(), grid)
    centers = np.array(
        [[grid.complex_at(r, c) for c in range(64)] for r in range(64)]
    )
    mod = np.abs(centers)
    assert np.all(field.inside[mod <= 0.99])
    assert np.all(~field.inside[mod >= 1.01])
    assert field.inside_fraction() == pytest.approx(np.pi / 9, rel=0.05)


def test_render_is_deterministic(systems):
    grid = GridSpec(-1.1, 1.1, -1.1, 1.1, 12, 12, 20)
    a = render_field(systems["binary-geometric"], grid)
    b = render_field(systems["binary-geometric"], grid)
    assert np.array_equal(a.steps, b.steps)


# -- components --------------------------------------------------------------


def test_component_of_zero_is_whole_disk_for_shift():
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 64, 64, 60)
    field = render_field(shift_system(), grid)
    assert count_components(field) == 1
    mask = component_of_zero(field)
    assert np.array_equal(mask, field.inside)


def test_component_of_zero_rejects_escaped_origin():
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 16, 16, 20)
    field = render_field(shift_system(), grid)
    doctored = field.steps.copy()
    row, col = grid.pixel_of(0j)
    doctored[row, col] = 5
    with pytest.raises(OriginEscapedError):
        component_of_zero(EscapeField(grid, doctored))


def test_component_of_zero_needs_origin_in_window():
    grid = GridSpec(1.0, 2.0, 1.0, 2.0, 4, 4, 5)
    field = render_field(shift_system(), grid)
    with pytest.raises(OutOfRangeError):
        component_of_zero(field)


def test_count_components_synthetic():
    grid = GridSpec(-1, 1, -1, 1, 5, 5, 9)
    steps = np.ones((5, 5), dtype=np.int32)
    steps[0, 0] = 0
    steps[4, 4] = 0
    assert count_components(EscapeField(grid, steps)) == 2
    # Diagonal contact does not merge components under 4-connectivity, so the
    # new pixel touching (0, 0) corner-to-corner counts separately.
    steps[1, 1] = 0
    assert count_components(EscapeField(grid, steps)) == 3


def test_inside_set_is_labelled_once_per_field(monkeypatch):
    calls = []
    label = render._label_runs

    def counting_label(*args, **kwargs):
        calls.append(args)
        return label(*args, **kwargs)

    monkeypatch.setattr(render, "_label_runs", counting_label)
    field = render_field(shift_system(), GridSpec(-1.5, 1.5, -1.5, 1.5, 32, 32, 30))
    assert count_components(field) == 1
    assert component_of_zero(field).sum() == field.inside.sum()
    assert count_components(field) == 1
    assert len(calls) == 1


# -- the run labeller against scipy.ndimage.label -----------------------------

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _assert_same_partition(mask, label):
    """The run labeller and ndimage.label (4-connected) split the mask alike."""
    begin, end, root = render._label_runs(mask)
    h, w = mask.shape
    length = end - begin
    padded = np.zeros(h * (w + 1), dtype=np.int64)  # root + 1 on every pixel of a run, 0 elsewhere
    padded[np.arange(length.sum()) + np.repeat(begin - np.cumsum(length) + length, length)] = (
        np.repeat(root + 1, length)
    )
    ours = padded.reshape(h, w + 1)[:, :w]
    ref, count = ndimage.label(mask, structure=_CROSS)
    assert np.count_nonzero(root == np.arange(root.size)) == count, label
    assert np.array_equal(ours > 0, mask) and np.array_equal(ref > 0, mask), label
    # k components on each side and k distinct (ours, ref) pairs: a bijection.
    assert np.unique(np.stack([ours[mask], ref[mask]]), axis=1).shape[1] == count, label
    return ref


def test_run_labels_match_ndimage_on_canonical_masks(systems):
    windows = {"full": (-1.5, 1.5, -1.5, 1.5), "zoom": (-0.2, 0.8, -0.5, 0.5)}
    for name, sys in systems.items():
        for window, bounds in windows.items():
            for max_iter in (200, 20):
                field = render_field(sys, GridSpec(*bounds, 512, 512, max_iter))
                ref = _assert_same_partition(field.inside, (name, window, max_iter))
                assert count_components(field) == ref.max()
                row, col = field.grid.pixel_of(0j)
                if field.inside[row, col]:
                    assert np.array_equal(component_of_zero(field), ref == ref[row, col])


def test_run_labels_match_ndimage_on_random_masks():
    rng = np.random.default_rng(20261019)
    for density in (0.3, 0.5, 0.6, 0.7):
        for shape in ((512, 512), (37, 53), (1, 200), (200, 1)):
            _assert_same_partition(rng.random(shape) < density, (density, shape))


def test_run_labels_on_edge_masks():
    for shape in ((1, 1), (1, 9), (9, 1), (6, 7)):
        for fill in (False, True):
            _assert_same_partition(np.full(shape, fill), (shape, fill))
    assert render._label_runs(np.zeros((3, 4), dtype=bool))[2].size == 0
    assert render._label_runs(np.ones((3, 4), dtype=bool))[2].tolist() == [0, 0, 0]
    # Every other column: one-pixel runs, joined down each column into 5 stripes;
    # transposed, every other row: one run each, 5 bars.
    stripes = np.zeros((4, 9), dtype=bool)
    stripes[:, ::2] = True
    assert _assert_same_partition(stripes, "stripes").max() == 5
    assert _assert_same_partition(stripes.T, "bars").max() == 5


# -- artifacts ---------------------------------------------------------------


def _reference_palette(steps, max_iter):
    """The masked palette the per-step table replaced, kept verbatim."""
    h, w = steps.shape
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[..., 0], img[..., 1], img[..., 2] = INSIDE_COLOR
    esc = steps > 0
    if esc.any():
        t = steps[esc].astype(np.float64) / float(max_iter)
        img[esc, 0] = np.clip(255.0 * np.sqrt(t), 0, 255).astype(np.uint8)
        img[esc, 1] = np.clip(60.0 + 160.0 * t, 0, 255).astype(np.uint8)
        img[esc, 2] = np.clip(255.0 * (1.0 - t), 0, 255).astype(np.uint8)
    return img


def test_palette_matches_masked_reference(systems):
    rng = np.random.default_rng(11)
    cases = [(rng.integers(0, m + 1, (9, 13), dtype=np.int32), m) for m in (1, 7, 200)]
    cases += [
        (np.zeros((5, 6), dtype=np.int32), 7),  # all inside
        (rng.integers(1, 201, (5, 6), dtype=np.int32), 200),  # all escaped
        (rng.integers(0, _LEVEL_CAP + 1, (4, 4), dtype=np.int32), _LEVEL_CAP),
    ]
    for name, window in (("mixed23-harmonic", (-0.2, 0.8, -0.5, 0.5)), ("binary-p34", (-1.5, 1.5, -1.5, 1.5))):
        cases.append((render_field(systems[name], GridSpec(*window, 64, 64, 200)).steps, 200))
    for steps, max_iter in cases:
        got, want = render._palette(steps, max_iter), _reference_palette(steps, max_iter)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (steps.shape, max_iter)


def test_writers_at_the_level_cap_stay_small():
    # A table over every possible step would hold 2^20 formatted tails.
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 4, 4, _LEVEL_CAP)
    steps = np.random.default_rng(5).integers(0, _LEVEL_CAP + 1, (4, 4), dtype=np.int32)
    field = EscapeField(grid, steps)
    tracemalloc.start()
    try:
        write_field_csv(field, io.StringIO())
        write_image(field, io.BytesIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak


def test_ppm_golden_inside_and_escaped():
    grid = GridSpec(0, 1, 0, 1, 2, 1, 7)
    field = EscapeField(grid, np.array([[0, 7]], dtype=np.int32))
    buf = io.BytesIO()
    write_image(field, buf)
    body = bytes(INSIDE_COLOR) + bytes((255, 220, 0))  # t = 1 ramp endpoint
    assert buf.getvalue() == b"P6\n2 1\n255\n" + body


def test_ppm_palette_midpoint():
    grid = GridSpec(0, 1, 0, 1, 1, 1, 12)
    field = EscapeField(grid, np.array([[3]], dtype=np.int32))  # t = 1/4
    buf = io.BytesIO()
    write_image(field, buf)
    assert buf.getvalue() == b"P6\n1 1\n255\n" + bytes((127, 100, 191))


def test_ppm_overlay_markers_clip_and_skip():
    grid = GridSpec(0, 3, 0, 3, 3, 3, 5)
    field = EscapeField(grid, np.zeros((3, 3), dtype=np.int32))
    red = (255, 0, 0)

    buf = io.BytesIO()
    write_image(field, buf, overlays=[((1.5 + 1.5j,), red)])
    assert buf.getvalue()[11:] == bytes(red) * 9  # centered 3x3 covers all

    buf = io.BytesIO()
    write_image(field, buf, overlays=[((0.2 + 2.7j,), red)])
    img = np.frombuffer(buf.getvalue()[11:], dtype=np.uint8).reshape(3, 3, 3)
    marked = (img == np.array(red, dtype=np.uint8)).all(axis=2)
    assert np.array_equal(marked, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], bool))

    buf = io.BytesIO()
    write_image(field, buf, overlays=[((5 + 5j,), red)])
    assert buf.getvalue()[11:] == bytes(INSIDE_COLOR) * 9  # skipped, untouched


def test_image_bytes_deterministic(systems):
    grid = GridSpec(-1.2, 1.2, -1.2, 1.2, 10, 10, 15)
    field = render_field(systems["dendrite"], grid)
    a, b = io.BytesIO(), io.BytesIO()
    write_image(field, a, overlays=[(((0.5 + 0j),), (255, 0, 0))])
    write_image(field, b, overlays=[(((0.5 + 0j),), (255, 0, 0))])
    assert a.getvalue() == b.getvalue()


def _reference_field_csv(field):
    """The per-pixel writer: complex_at and repr for every pixel."""
    grid, buf = field.grid, io.StringIO()
    buf.write("re,im,verdict,step\n")
    for row in range(grid.height):
        for col in range(grid.width):
            z = grid.complex_at(row, col)
            s = int(field.steps[row, col])
            if s == 0:
                buf.write(f"{z.real!r},{z.imag!r},inside,{grid.max_iter}\n")
            else:
                buf.write(f"{z.real!r},{z.imag!r},escaped,{s}\n")
    return buf.getvalue()


CSV_GRIDS = [
    GridSpec(-1.3, 0.7, -0.9, 1.1, 7, 5, 9),
    GridSpec(-1.37, 0.83, -0.61, 1.19, 11, 7, 25),
    GridSpec(-0.1, 0.3, -1e-3, 2e-3, 13, 9, 1),
    GridSpec(-1.5, 1.5, -1.5, 1.5, 9, 9, 40),
    GridSpec(0.1, 0.2, 0.3, 0.4, 1, 1, 3),
    GridSpec(-1.5, 1.5, -1.5, 1.5, 4, 4, 1),
    GridSpec(-1.5, 1.5, -1.5, 1.5, 4, 4, _LEVEL_CAP),
]


@pytest.mark.parametrize("grid", CSV_GRIDS)
def test_axes_equal_complex_at_bitwise(grid):
    xs, ys = grid.axes()
    assert xs.shape == (grid.width,) and ys.shape == (grid.height,)
    for row in range(grid.height):
        for col in range(grid.width):
            z = grid.complex_at(row, col)
            assert xs[col].tobytes() == np.float64(z.real).tobytes()
            assert ys[row].tobytes() == np.float64(z.imag).tobytes()


@pytest.mark.parametrize("grid", CSV_GRIDS)
def test_field_csv_matches_per_pixel_writer(systems, grid):
    rng = np.random.default_rng(7)
    shape = (grid.height, grid.width)
    fields = [
        EscapeField(grid, np.zeros(shape, dtype=np.int32)),  # all inside
        EscapeField(grid, rng.integers(1, grid.max_iter + 1, shape, dtype=np.int32)),  # all escaped
        EscapeField(grid, rng.integers(0, grid.max_iter + 1, shape, dtype=np.int32)),
    ]
    fields += [render_field(sys, grid) for sys in systems.values()]
    for field in fields:
        buf = io.StringIO()
        write_field_csv(field, buf)
        assert buf.getvalue() == _reference_field_csv(field)


def test_field_csv_golden():
    grid = GridSpec(0, 1, 0, 1, 2, 1, 7)
    field = EscapeField(grid, np.array([[0, 3]], dtype=np.int32))
    buf = io.StringIO()
    write_field_csv(field, buf)
    assert buf.getvalue() == (
        "re,im,verdict,step\n"
        "0.25,0.5,inside,7\n"
        "0.75,0.5,escaped,3\n"
    )
