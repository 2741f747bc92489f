"""Independent mathematics for input generation and output checks.

Nothing here imports juliaspec.  The canonical parameter sequences are
written out from their closed forms, and the fiber maps
f_j(z) = ((z - (1 - p_j)) / p_j)^{d_j} are evaluated with numpy, so an
oracle never trusts the code it checks.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

# Closed forms of the canonical configurations (src/juliaspec/configs).
CANON = {
    "dendrite": (lambda j: Fraction(1, 2), lambda j: 2),
    "binary-p34": (lambda j: Fraction(3, 4), lambda j: 2),
    "mixed23-harmonic": (lambda j: 1 - Fraction(1, 2 * (j + 1)), lambda j: 2 if j % 2 else 3),
    "binary-geometric": (lambda j: 1 - Fraction(1, 4**j), lambda j: 2),
}

ESCAPE_RADIUS = 1.0 + 1e-9


class OracleError(Exception):
    """An output failed a mathematical check."""


def p_at(name: str, j: int) -> Fraction:
    return CANON[name][0](j)


def d_at(name: str, j: int) -> int:
    return CANON[name][1](j)


def place_value(name: str, n: int) -> int:
    q = 1
    for j in range(1, n + 1):
        q *= d_at(name, j)
    return q


def _ipow(w: np.ndarray, d: int) -> np.ndarray:
    out = w
    for _ in range(d - 1):
        out = out * w
    return out


def composed(name: str, n: int, z) -> np.ndarray:
    """f̃_n(z) by its own loop over f_1 .. f_n."""
    w = np.array(z, dtype=complex, copy=True)
    for j in range(1, n + 1):
        p = float(p_at(name, j))
        w = _ipow((w - (1.0 - p)) / p, d_at(name, j))
    return w


def composed_with_derivative(name: str, n: int, z) -> tuple[np.ndarray, np.ndarray]:
    w = np.array(z, dtype=complex, copy=True)
    dw = np.ones_like(w)
    for j in range(1, n + 1):
        p = float(p_at(name, j))
        d = d_at(name, j)
        h = (w - (1.0 - p)) / p
        dw = d * _ipow(h, d - 1) * dw / p
        w = _ipow(h, d)
    return w, dw


def bounded(name: str, z, budget: int) -> np.ndarray:
    """Mask of points whose fiber orbit stays within the escape radius for `budget` maps."""
    w = np.array(z, dtype=complex, copy=True)
    alive = np.ones(w.shape, dtype=bool)
    for j in range(1, budget + 1):
        p = float(p_at(name, j))
        w = _ipow((w - (1.0 - p)) / p, d_at(name, j))
        alive &= np.abs(w) <= ESCAPE_RADIUS
        w[~alive] = 0.0
    return alive


def preimage_tree(name: str, target: complex, n: int) -> np.ndarray:
    """All q_n solutions of f̃_n(z) = target, Newton-polished."""
    pts = np.array([target], dtype=complex)
    for j in range(n, 0, -1):
        p = float(p_at(name, j))
        d = d_at(name, j)
        principal = np.abs(pts) ** (1.0 / d) * np.exp(1j * np.angle(pts) / d)
        roots = principal[:, None] * np.exp(2j * np.pi * np.arange(d) / d)[None, :]
        pts = (1.0 - p) + p * roots.ravel()
    for _ in range(3):
        v, dv = composed_with_derivative(name, n, pts)
        ok = np.abs(dv) > 1e-6
        pts[ok] -= (v[ok] - target) / dv[ok]
    return pts


def cluster_representatives(pts: np.ndarray, tol: float) -> np.ndarray:
    """One point per tol-cluster (points sorted by real part, sweep window)."""
    pts = pts[np.lexsort((pts.imag, pts.real))]
    kept: list[complex] = []
    for z in pts:
        if not any(abs(z - w) <= tol for w in kept[-64:] if z.real - w.real <= tol):
            kept.append(complex(z))
    return np.array(kept, dtype=complex)


def residual_points(name: str, depth: int, tol: float = 1e-8) -> np.ndarray:
    """Preimages of 1 at `depth` (a superset of all shallower ones) away from
    every preimage of 0 at depths 0..depth."""
    ones = cluster_representatives(preimage_tree(name, 1.0, depth), tol)
    near_zero = np.zeros(ones.shape, dtype=bool)
    w = ones.copy()
    for m in range(0, depth + 1):
        if m:
            p = float(p_at(name, m))
            w = _ipow((w - (1.0 - p)) / p, d_at(name, m))
        near_zero |= np.abs(w) <= 1e-6
    return ones[~near_zero]


# -- helpers for parsing program outputs -------------------------------------


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def read_points_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "re,im":
            raise OracleError(f"{path}: header {header!r}")
        rows = [line.split(",") for line in fh if line.strip()]
    return np.array([complex(float(a), float(b)) for a, b in rows], dtype=complex)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def load_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise OracleError(f"output is not JSON: {exc}") from exc


# -- per-command checks ------------------------------------------------------


def check_preimages(path, name: str, depth: int, target: complex = 1.0) -> None:
    pts = read_points_csv(path)
    q = place_value(name, depth)
    expect(len(pts) == q, f"preimages: {len(pts)} rows, expected q_{depth} = {q}")
    err = float(np.max(np.abs(composed(name, depth, pts) - target)))
    expect(err <= 1e-8, f"preimages: max |f_{depth}(z) - target| = {err:.3g} > 1e-8")


def check_residual_set(path, name: str, expected: np.ndarray, tol: float) -> None:
    pts = read_points_csv(path)
    if name == "dendrite":
        expect(pts.tolist() == [1 + 0j], f"residual-set dendrite: {pts[:4]} is not exactly {{1}}")
        return
    expect(
        len(pts) == len(expected),
        f"residual-set {name}: {len(pts)} points, independent count {len(expected)}",
    )
    for z in pts:
        gap = float(np.min(np.abs(expected - z)))
        if gap > 1e3 * tol:
            raise OracleError(f"residual-set {name}: point {z} is {gap:.3g} from every expected point")


def check_classify(stdout: str, hit: bool) -> None:
    v = load_json(stdout)
    _verdict_invariant(v)
    if hit:
        expect(
            v["part"] == "residual-candidate" and v["membership"] == "in-spectrum",
            f"classify: residual point {v['lambda']} got {v['membership']}/{v['part']}",
        )
    else:
        expect(v["part"] != "residual-candidate", f"classify: non-residual {v['lambda']} flagged")


def _verdict_invariant(v: dict) -> None:
    expect(
        v["part"] == "not-applicable" or v["membership"] == "in-spectrum",
        f"verdict invariant broken at {v['lambda']} on {v['space']}: {v['membership']}/{v['part']}",
    )


def check_spectrum_report(stdout: str, count: int) -> None:
    rep = load_json(stdout)
    rows = rep.get("lambdas", [])
    expect(len(rows) == count, f"spectrum-report: {len(rows)} λ rows, expected {count}")
    for row in rows:
        for verdict in row.values():
            _verdict_invariant(verdict)


def check_truncate(matrix_path, eig_path, name: str, size: int) -> None:
    rows: dict[int, Fraction] = {}
    diag: dict[int, Fraction] = {}
    with open(matrix_path, encoding="utf-8") as fh:
        expect(fh.readline().strip() == "row,col,num,den", "truncate: matrix header")
        for line in fh:
            r, c, num, den = (int(t) for t in line.split(","))
            val = Fraction(num, den)
            rows[r] = rows.get(r, Fraction(0)) + val
            if r == c:
                diag[r] = val
    expect(len(diag) == size, f"truncate: {len(diag)} diagonal entries, expected {size}")
    bad = [r for r in range(size - 1) if rows.get(r) != 1]
    expect(not bad, f"truncate: rows {bad[:5]} do not sum to exactly 1")

    with open(eig_path, encoding="utf-8") as fh:
        expect(fh.readline().strip() == "re,im,modulus,verdict", "truncate: eigenvalue header")
        lams = np.array(
            [complex(float(t[0]), float(t[1])) for t in (line.split(",") for line in fh)],
            dtype=complex,
        )
    expect(len(lams) == size, f"truncate: {len(lams)} eigenvalues, expected {size}")
    trace = float(sum(diag.values()))
    gap = abs(complex(lams.sum()) - trace)
    expect(gap <= 1e-9, f"truncate: |sum(eigenvalues) - trace| = {gap:.3g} > 1e-9")
    depth = next((n for n in range(64) if place_value(name, n) >= size), None)
    if place_value(name, depth) == size:
        target = float(1 - p_at(name, depth + 1))
        err = float(np.max(np.abs(composed(name, depth, lams) - target)))
        expect(err <= 1e-8, f"truncate: max |f_{depth}(λ) - (1 - p_{depth + 1})| = {err:.3g} > 1e-8")


def check_weyl(result) -> None:
    d, b = result.defect, result.bound
    expect(np.isfinite(d) and np.isfinite(b), f"weyl_defect: non-finite defect {d} / bound {b}")
    expect(d <= b * (1 + 1e-12), f"weyl_defect: defect {d!r} exceeds bound {b!r}")


def check_render(ppm_path, csv_path, width: int, height: int, mirror: bool) -> None:
    with open(ppm_path, "rb") as fh:
        data = fh.read()
    header = b"P6\n%d %d\n255\n" % (width, height)
    expect(data.startswith(header), "render: PPM header")
    payload = len(data) - len(header)
    expect(payload == 3 * width * height, f"render: {payload} PPM payload bytes, expected {3 * width * height}")
    with open(csv_path, "rb") as fh:
        lines = fh.read().split(b"\n")
    expect(lines[0] == b"re,im,verdict,step" and lines[-1] == b"", "render: CSV framing")
    body = lines[1:-1]
    expect(len(body) == width * height, f"render: {len(body)} CSV rows, expected {width * height}")
    inside = np.array([b",inside," in line for line in body]).reshape(height, width)
    if mirror:
        expect(bool((inside == inside[::-1]).all()), "render: inside mask not mirror-symmetric")


def check_simulate(stdout: str, traj_path, steps: int, name: str) -> None:
    stats = load_json(stdout)
    with open(traj_path, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    expect(rows == steps + 1, f"simulate: {rows} trajectory rows, expected {steps + 1}")
    frac = stats["fraction"]
    if name == "dendrite":
        expect(frac >= 0.95, f"simulate dendrite: return fraction {frac} < 0.95")
    else:
        expect(frac <= 0.90, f"simulate {name}: return fraction {frac} > 0.90")
