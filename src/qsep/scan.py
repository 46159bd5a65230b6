"""Simplex sweeps, criterion boundary extraction, and file exports.

The lattice at resolution N holds the points (g, w) = (i/N, j/N) with
i + j <= N.  Cells are evaluated in fixed-size chunks through vectorized
dual-path criterion evaluators (batched LAPACK spectra checked against the
closed forms); the chunk layout never depends on the worker count, so a
parallel scan is byte-identical to a sequential one.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import classify, criteria as registry, verdict
from .states import SimplexPoint

CHUNK = 8192
SCHEMA_VERSION = 1


def resolve_criteria(selection) -> tuple[str, ...]:
    """Expand a selection (group names, bare ids, 'all', comma string) to ids."""
    if selection is None:
        return registry.IDS
    if isinstance(selection, str):
        tokens = [tok.strip() for tok in selection.split(",") if tok.strip()]
    else:
        tokens = [str(tok) for tok in selection]
    out: list[str] = []
    for token in tokens:
        if token == "all":
            candidates = registry.IDS
        elif token in registry.GROUPS:
            candidates = registry.GROUPS[token]
        elif token in registry.BY_ID:
            candidates = (token,)
        else:
            raise ValueError(f"unknown criterion or group {token!r}")
        for cid in candidates:
            if cid not in out:
                out.append(cid)
    return tuple(out)


# ---------------------------------------------------------------------------
# the region grid


@dataclass
class RegionGrid:
    resolution: int
    criteria: tuple[str, ...]
    i_index: np.ndarray
    j_index: np.ndarray
    g: np.ndarray
    w: np.ndarray
    margins: dict[str, np.ndarray]
    codes: dict[str, np.ndarray]  # verdict codes per criterion, see verdict.codes
    possible: np.ndarray      # (cells, 4) bool, columns follow classify.CLASSES
    slocc: np.ndarray         # (cells,) small int, index into classify.SLOCC_NAMES
    exact: np.ndarray         # (cells,) bool
    pptes: np.ndarray         # (cells,) bool

    @property
    def cell_count(self) -> int:
        return int(self.g.size)

    def pptes_points(self) -> list[tuple[float, float]]:
        mask = self.pptes
        return list(zip(self.g[mask].tolist(), self.w[mask].tolist()))

    def flat_index(self, i: int, j: int) -> int:
        hits = np.flatnonzero((self.i_index == i) & (self.j_index == j))
        if hits.size != 1:
            raise KeyError(f"no lattice cell ({i}, {j}) at resolution {self.resolution}")
        return int(hits[0])

    def report_at(self, n: int) -> classify.ClassReport:
        return classify.cell_report(
            self.g[n], self.w[n], {cid: self.codes[cid][n] for cid in self.criteria},
            self.possible[n], self.slocc[n], self.exact[n], self.pptes[n],
        )


def grid_scan(resolution: int, criteria="all", workers: int = 1) -> RegionGrid:
    """Evaluate the selected criteria on every lattice point of the simplex.

    ``workers`` > 1 evaluates chunks concurrently; the chunking is fixed, so
    the result is identical to the sequential one.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    ids = resolve_criteria(criteria)
    n = resolution
    i_idx = np.concatenate([np.full(n + 1 - i, i, dtype=np.int64) for i in range(n + 1)])
    j_idx = np.concatenate([np.arange(n + 1 - i, dtype=np.int64) for i in range(n + 1)])
    g = i_idx / float(n)
    w = j_idx / float(n)
    cells = g.size
    chunks = [(k, min(k + CHUNK, cells)) for k in range(0, cells, CHUNK)]

    def work(bounds):
        lo, hi = bounds
        return registry.margins(g[lo:hi], w[lo:hi], ids)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(bounds) for bounds in chunks]
    margins = {cid: np.concatenate([res[cid] for res in results]) for cid in ids}
    codes = {cid: verdict.codes(m) for cid, m in margins.items()}
    possible, slocc, exact, pptes = classify.fuse(g, w, codes)
    return RegionGrid(
        resolution, ids, i_idx, j_idx, g, w, margins, codes, possible, slocc, exact, pptes
    )


# ---------------------------------------------------------------------------
# per-point margins and boundary bisection


def point_margin(cid: str, p: SimplexPoint) -> float:
    """Margin of one criterion at one point: the grid path on a batch of one."""
    return float(registry.margins(np.array([p.g]), np.array([p.w]), (cid,))[cid][0])


def boundary_bisect(cid: str, ray, tol: float = 1e-10) -> SimplexPoint:
    """Bisect the sign change of a criterion margin along a ray.

    ``ray`` is a pair of points (SimplexPoint or (g, w) tuples) whose margins
    must have opposite strict signs.  Returns the crossing point once the
    bracketing interval is shorter than ``tol``.
    """
    def as_point(obj) -> SimplexPoint:
        return obj if isinstance(obj, SimplexPoint) else SimplexPoint(*obj)

    start, end = (as_point(obj) for obj in ray)
    a = np.array([start.g, start.w])
    b = np.array([end.g, end.w])
    fa = point_margin(cid, start)
    fb = point_margin(cid, end)
    if fa == 0.0 or fb == 0.0 or (fa > 0) == (fb > 0):
        raise ValueError(
            f"margin of {cid} does not change sign along the ray: {fa:.3e} vs {fb:.3e}"
        )
    while float(np.hypot(*(b - a))) >= tol:
        mid = (a + b) / 2.0
        fm = point_margin(cid, SimplexPoint(mid[0], mid[1]))
        if fm == 0.0:
            a = b = mid
            break
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    mid = (a + b) / 2.0
    return SimplexPoint(mid[0], mid[1])


# ---------------------------------------------------------------------------
# exports


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def export_csv(grid: RegionGrid, path) -> None:
    lines = ["g,w,criterion_id,verdict,margin"]
    names = _verdict_names(grid)
    for n in range(grid.cell_count):
        gs = _fmt(grid.g[n])
        ws = _fmt(grid.w[n])
        for cid in grid.criteria:
            lines.append(f"{gs},{ws},{cid},{names[cid][n]},{_fmt(grid.margins[cid][n])}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def export_json(grid: RegionGrid, path) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "resolution": grid.resolution,
        "criteria": list(grid.criteria),
        "reports": grid_report_dicts(grid),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


def import_json(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {payload.get('schema_version')!r}")
    return payload


def grid_report_dicts(grid: RegionGrid) -> list[dict]:
    names = _verdict_names(grid)
    margins = {cid: grid.margins[cid].tolist() for cid in grid.criteria}
    out = []
    for n in range(grid.cell_count):
        entry = grid.report_at(n).to_dict()
        entry["criteria"] = {
            cid: {"verdict": names[cid][n], "margin": margins[cid][n]} for cid in grid.criteria
        }
        out.append(entry)
    return out


def _verdict_names(grid: RegionGrid) -> dict[str, list[str]]:
    return {cid: [verdict.CODE_NAMES[c] for c in grid.codes[cid].tolist()] for cid in grid.criteria}


# ---------------------------------------------------------------------------
# marching squares and SVG


def margin_isolines(grid: RegionGrid, cid: str) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Zero-level segments of a criterion margin field by marching squares."""
    n = grid.resolution
    field = np.full((n + 1, n + 1), np.nan)
    field[grid.i_index, grid.j_index] = grid.margins[cid]
    segments = []
    for i in range(n):
        for j in range(n):
            if i + j + 2 > n:
                continue
            corners = (
                field[i, j], field[i + 1, j], field[i + 1, j + 1], field[i, j + 1]
            )
            if any(math.isnan(v) for v in corners):
                continue
            pts = []
            coords = (
                ((i, j), (i + 1, j)),
                ((i + 1, j), (i + 1, j + 1)),
                ((i + 1, j + 1), (i, j + 1)),
                ((i, j + 1), (i, j)),
            )
            values = (
                (corners[0], corners[1]),
                (corners[1], corners[2]),
                (corners[2], corners[3]),
                (corners[3], corners[0]),
            )
            for (ca, cb), ((ia, ja), (ib, jb)) in zip(values, coords):
                if ca == 0.0 and cb == 0.0:
                    continue
                if (ca > 0) != (cb > 0) or ca == 0.0 or cb == 0.0:
                    t = ca / (ca - cb) if ca != cb else 0.5
                    if not 0.0 <= t <= 1.0:
                        continue
                    gg = (ia + t * (ib - ia)) / n
                    ww = (ja + t * (jb - ja)) / n
                    pts.append((gg, ww))
            if len(pts) == 2:
                segments.append((pts[0], pts[1]))
            elif len(pts) == 4:
                center = sum(corners) / 4.0
                # ambiguous saddle: pair crossings consistently with the center sign
                if (center > 0) == (corners[0] > 0):
                    segments.append((pts[0], pts[3]))
                    segments.append((pts[1], pts[2]))
                else:
                    segments.append((pts[0], pts[1]))
                    segments.append((pts[2], pts[3]))
    return segments


_CLASS_FILLS = {
    ("3", "2.8", "2.1", "1"): "#d7e8f7",
    ("2.8", "2.1", "1"): "#9fc6e8",
    ("2.1", "1"): "#f2c894",
    ("1",): "#e88a8a",
    ("3",): "#bde3bd",
    ("2.1",): "#f2c894",
    ("2.8", "2.1"): "#b39ddb",
}
_PPTES_FILL = "#6a1fb3"
_CURVE_COLORS = (
    "#c0392b", "#1f618d", "#1e8449", "#7d3c98", "#b7950b", "#117a65",
    "#a04000", "#2e4053", "#884ea0", "#0e6251",
)


def _fill_for(signature: tuple[str, ...]) -> str:
    if signature in _CLASS_FILLS:
        return _CLASS_FILLS[signature]
    # deterministic fallback for unusual signatures
    shade = 0xB0 - 0x18 * (len(signature) % 4)
    return f"#{shade:02x}{shade:02x}{shade:02x}"


def export_svg(grid: RegionGrid, path, curve_criteria=None) -> None:
    """Simplex map: per-cell fill by possible classes plus margin isolines."""
    size = 640.0
    pad = 60.0
    scale = size - 2 * pad

    def sx(gval: float) -> float:
        return pad + gval * scale

    def sy(wval: float) -> float:
        return size - pad - wval * scale

    n = grid.resolution
    cell = scale / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect x="0" y="0" width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    # class fills, merging runs of equal style along each row of constant w
    order = np.lexsort((grid.i_index, grid.j_index))
    styles = []
    for n_i in order:
        signature = tuple(
            cls for k, cls in enumerate(classify.CLASSES) if grid.possible[n_i, k]
        )
        fill = _PPTES_FILL if grid.pptes[n_i] else _fill_for(signature)
        styles.append((int(grid.j_index[n_i]), int(grid.i_index[n_i]), fill))
    run_start = 0
    for k in range(1, len(styles) + 1):
        if (
            k == len(styles)
            or styles[k][0] != styles[run_start][0]
            or styles[k][2] != styles[run_start][2]
            or styles[k][1] != styles[k - 1][1] + 1
        ):
            j, i0, fill = styles[run_start]
            width = styles[k - 1][1] - i0 + 1
            x = sx(i0 / n) - cell / 2
            y = sy(j / n) - cell / 2
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{width * cell:.2f}" '
                f'height="{cell:.2f}" fill="{fill}"/>'
            )
            run_start = k
    # simplex outline
    parts.append(
        f'<path d="M {sx(0):.2f} {sy(0):.2f} L {sx(1):.2f} {sy(0):.2f} '
        f'L {sx(0):.2f} {sy(1):.2f} Z" fill="none" stroke="black" stroke-width="1.5"/>'
    )
    # criterion boundary isolines
    curves = resolve_criteria(curve_criteria) if curve_criteria else grid.criteria
    legend_y = pad / 2
    for color_idx, cid in enumerate(curves):
        if cid not in grid.margins:
            continue
        segments = margin_isolines(grid, cid)
        if not segments:
            continue
        color = _CURVE_COLORS[color_idx % len(_CURVE_COLORS)]
        d = " ".join(
            f"M {sx(a[0]):.2f} {sy(a[1]):.2f} L {sx(b[0]):.2f} {sy(b[1]):.2f}"
            for a, b in segments
        )
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(
            f'<text x="{size - pad + 4:.0f}" y="{legend_y:.0f}" font-size="9" '
            f'fill="{color}">{cid}</text>'
        )
        legend_y += 11
    parts.append(
        f'<text x="{sx(0.5):.0f}" y="{size - pad / 3:.0f}" font-size="14" '
        f'text-anchor="middle">g</text>'
    )
    parts.append(
        f'<text x="{pad / 3:.0f}" y="{sy(0.5):.0f}" font-size="14" '
        f'text-anchor="middle">w</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def export(grid: RegionGrid, fmt: str, path) -> None:
    """Write a scan artifact: csv, json or svg."""
    if fmt == "csv":
        export_csv(grid, path)
    elif fmt == "json":
        export_json(grid, path)
    elif fmt == "svg":
        export_svg(grid, path)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
