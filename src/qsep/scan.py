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

from . import bipartite, classify, linalg, states, tripartite
from .config import MARGINAL_BAND
from .exceptions import ConsistencyError
from .states import SimplexPoint
from .verdict import HOLDS, MARGINAL, VIOLATED

CHUNK = 8192
SCHEMA_VERSION = 1

CRITERIA_GROUPS: dict[str, tuple[str, ...]] = {
    "maj": ("maj_rho1", "maj_rho23"),
    "entropy": tuple(
        f"entropy_{marg}_a{bipartite.alpha_label(alpha)}"
        for alpha in bipartite.ALPHA_GRID
        for marg in ("rho1", "rho23")
    ),
    "ppt": ("ppt",),
    "reduction": ("reduction",),
    "resh24": ("resh24",),
    "perm222": ("perm222",),
    "su2": ("su2_set1", "su2_set2", "su2_set3"),
    "su283": ("su283_set1", "su283_set2", "su283_set3"),
    "su3": ("su3_set1", "su3_set2", "su3_set3"),
    "huber": ("huber_ghz_k2", "huber_ghz_k3", "huber_w_k2", "huber_w_k3"),
    "gs2": ("gs2_ghz", "gs2_w"),
    "gs3": ("gs3",),
    "witness": ("w_ghz", "w_w1", "w_w2"),
}

ALL_CRITERIA: tuple[str, ...] = tuple(
    cid for group in CRITERIA_GROUPS.values() for cid in group
)

_ID_SET = frozenset(ALL_CRITERIA)


def resolve_criteria(selection) -> tuple[str, ...]:
    """Expand a selection (group names, bare ids, 'all', comma string) to ids."""
    if selection is None:
        return ALL_CRITERIA
    if isinstance(selection, str):
        tokens = [tok.strip() for tok in selection.split(",") if tok.strip()]
    else:
        tokens = [str(tok) for tok in selection]
    out: list[str] = []
    for token in tokens:
        if token == "all":
            candidates = ALL_CRITERIA
        elif token in CRITERIA_GROUPS:
            candidates = CRITERIA_GROUPS[token]
        elif token in _ID_SET:
            candidates = (token,)
        else:
            raise ValueError(f"unknown criterion or group {token!r}")
        for cid in candidates:
            if cid not in out:
                out.append(cid)
    return tuple(out)


# ---------------------------------------------------------------------------
# vectorized chunk evaluation


def _assert_spectra(numeric: np.ndarray, closed: np.ndarray, what: str) -> None:
    defect = float(np.max(np.abs(numeric - closed)))
    if defect > 1e-10:
        raise ConsistencyError(f"{what}: eigensolver deviates from closed forms by {defect:.3e}")


def _assert_sign_grid(margins: np.ndarray, closed, what: str) -> None:
    closed = np.asarray(closed, dtype=float)
    dead = (np.abs(margins) <= MARGINAL_BAND) | (np.abs(closed) <= MARGINAL_BAND)
    agree = dead | ((margins > 0) == (closed > 0))
    if not np.all(agree):
        idx = int(np.argmax(~agree))
        raise ConsistencyError(
            f"{what}: numeric {margins[idx]:.3e} vs closed {closed[idx]:.3e} at cell {idx}"
        )


def _chunk_margins(g: np.ndarray, w: np.ndarray, ids: tuple[str, ...]) -> dict[str, np.ndarray]:
    need = set(ids)
    out: dict[str, np.ndarray] = {}
    closed = states.closed_form_spectra_grid(g, w)

    if need & set(CRITERIA_GROUPS["maj"]):
        spect_rho = linalg.eigh(states.build_rho_grid(g, w))
        spect_23 = linalg.eigh(states.marginal_23_grid(g, w))
        spect_1 = linalg.eigh(states.marginal_1_grid(g, w))
        _assert_spectra(spect_rho, closed["rho"], "Spect(rho)")
        _assert_spectra(spect_23, closed["rho23"], "Spect(rho^23)")
        _assert_spectra(spect_1, closed["rho1"], "Spect(rho^1)")
        m1, m23 = bipartite.majorization_margins_from_spectra(
            {"rho": spect_rho, "rho23": spect_23, "rho1": spect_1}
        )
        c1, c23 = bipartite.majorization_case_margins(g, w)
        _assert_sign_grid(m1, c1, "majorization rho^1")
        _assert_sign_grid(m23, c23, "majorization rho^23")
        out["maj_rho1"] = m1
        out["maj_rho23"] = m23

    for alpha in bipartite.ALPHA_GRID:
        label = bipartite.alpha_label(alpha)
        id1 = f"entropy_rho1_a{label}"
        id23 = f"entropy_rho23_a{label}"
        if id1 in need or id23 in need:
            m1, m23 = bipartite.entropy_margins_from_spectra(closed, alpha)
            out[id1] = m1
            out[id23] = m23

    if "ppt" in need or "reduction" in need:
        spect_pt = linalg.eigh(states.partial_transpose_1_grid(g, w))
        _assert_spectra(spect_pt, closed["rho_t1"], "Spect(rho^T1)")
        q1, q2 = bipartite.ppt_closed_margins(g, w)
        if "ppt" in need:
            margin = spect_pt[:, -1]
            _assert_sign_grid(margin, np.minimum(q1, q2), "ppt")
            out["ppt"] = margin
        if "reduction" in need:
            spect_first = linalg.eigh(states.reduction_i123_grid(g, w))
            spect_second = linalg.eigh(states.reduction_1i23_grid(g, w))
            _assert_spectra(spect_first, closed["rho_t1"], "Spect(I (x) rho^23 - rho)")
            _assert_spectra(spect_second, closed["red1_i23"], "Spect(rho^1 (x) I - rho)")
            r3, r4 = bipartite.reduction_closed_margins(g, w)
            margin = np.minimum(spect_first[:, -1], spect_second[:, -1])
            _assert_sign_grid(
                margin, np.minimum(np.minimum(q1, q2), np.minimum(r3, r4)), "reduction"
            )
            out["reduction"] = margin

    if "resh24" in need:
        svs = linalg.singular_values(states.reshuffle_24_grid(g, w))
        closed_svs = bipartite.reshuffle24_closed_singular_values(g, w)
        _assert_spectra(svs, closed_svs, "reshuffling singular values")
        out["resh24"] = 1.0 - np.sum(svs, axis=-1)

    if "perm222" in need:
        svs = linalg.singular_values(states.reshuffle_222_grid(g, w))
        out["perm222"] = 1.0 - np.sum(svs, axis=-1)

    for idx in range(3):
        for level, tag in (("2sep", "2"), ("28cap3", "283"), ("3sep", "3")):
            cid = f"su{tag}_set{idx + 1}"
            if cid in need:
                out[cid] = tripartite.su_margins_grid(g, w, idx, level)

    for tag in ("ghz", "w"):
        for k in (2, 3):
            cid = f"huber_{tag}_k{k}"
            if cid in need:
                out[cid] = tripartite.huber_margins_grid(g, w, tag, k)

    if need & {"gs2_ghz", "gs2_w"}:
        m_ghz, m_w = tripartite.gs2_closed_margins(g, w)
        out["gs2_ghz"] = m_ghz
        out["gs2_w"] = m_w

    if "gs3" in need:
        out["gs3"] = tripartite.gs3_closed_margins(g, w)["gs3"]

    if need & {"w_ghz", "w_w1", "w_w2"}:
        witness = tripartite.witness_closed_forms(g, w)
        for cid in ("w_ghz", "w_w1", "w_w2"):
            out[cid] = witness[cid]

    return {cid: np.asarray(out[cid], dtype=float) for cid in ids}


# ---------------------------------------------------------------------------
# the region grid


@dataclass(frozen=True)
class GridCell:
    report: classify.ClassReport
    margins: dict[str, float]
    verdicts: dict[str, str]


@dataclass
class RegionGrid:
    resolution: int
    criteria: tuple[str, ...]
    i_index: np.ndarray
    j_index: np.ndarray
    g: np.ndarray
    w: np.ndarray
    margins: dict[str, np.ndarray]
    possible: np.ndarray      # (cells, 4) bool, columns follow classify.CLASSES
    slocc: np.ndarray         # (cells,) small int, index into _SLOCC_NAMES
    exact: np.ndarray         # (cells,) bool
    pptes: np.ndarray         # (cells,) bool

    _SLOCC_NAMES = (classify.GHZ_TYPE, classify.W_TYPE_OR_LESS, classify.SLOCC_UNDETERMINED)

    @property
    def cell_count(self) -> int:
        return int(self.g.size)

    def verdict_codes(self, cid: str) -> np.ndarray:
        m = self.margins[cid]
        return ((m > MARGINAL_BAND).astype(np.int8) - (m < -MARGINAL_BAND).astype(np.int8))

    def verdict_names(self, cid: str) -> list[str]:
        return [_CODE_NAMES[c] for c in self.verdict_codes(cid)]

    def pptes_points(self) -> list[tuple[float, float]]:
        mask = self.pptes
        return list(zip(self.g[mask].tolist(), self.w[mask].tolist()))

    def flat_index(self, i: int, j: int) -> int:
        hits = np.flatnonzero((self.i_index == i) & (self.j_index == j))
        if hits.size != 1:
            raise KeyError(f"no lattice cell ({i}, {j}) at resolution {self.resolution}")
        return int(hits[0])

    def report_at(self, n: int) -> classify.ClassReport:
        possible = tuple(
            cls for k, cls in enumerate(classify.CLASSES) if self.possible[n, k]
        )
        exclusions = []
        marginal = []
        for cid in self.criteria:
            m = float(self.margins[cid][n])
            if abs(m) <= MARGINAL_BAND:
                marginal.append(cid)
            elif m < 0:
                for cls in classify.excluded_classes(cid):
                    exclusions.append((cls, cid))
        return classify.ClassReport(
            g=float(self.g[n]),
            w=float(self.w[n]),
            possible_classes=possible,
            slocc=self._SLOCC_NAMES[int(self.slocc[n])],
            exclusions=tuple(exclusions),
            exact=bool(self.exact[n]),
            pptes_certified=bool(self.pptes[n]),
            marginal=tuple(marginal),
        )

    def cell(self, i: int, j: int) -> GridCell:
        n = self.flat_index(i, j)
        margins = {cid: float(self.margins[cid][n]) for cid in self.criteria}
        verdicts = {cid: _CODE_NAMES[int(self.verdict_codes(cid)[n])] for cid in self.criteria}
        return GridCell(self.report_at(n), margins, verdicts)

    def cells(self) -> dict[tuple[int, int], GridCell]:
        return {
            (int(i), int(j)): self.cell(int(i), int(j))
            for i, j in zip(self.i_index, self.j_index)
        }


_CODE_NAMES = {1: HOLDS, 0: MARGINAL, -1: VIOLATED}


def _classify_chunkless(grid: RegionGrid) -> None:
    """Fill the classification arrays of a grid whose margins are complete."""
    n = grid.cell_count
    excl = {cls: np.zeros(n, dtype=bool) for cls in classify.CLASSES}
    ppt_holds = np.zeros(n, dtype=bool)
    for cid in grid.criteria:
        codes = grid.verdict_codes(cid)
        if cid == "ppt":
            ppt_holds = codes == 1
        violated = codes == -1
        for cls in classify.excluded_classes(cid):
            excl[cls] |= violated
    possible = np.stack(
        [~excl[cls] for cls in classify.CLASSES], axis=1
    )
    possible[:, 3] = True  # class 1 is never excluded
    # exact split on the w = 0 line
    w0 = grid.j_index == 0
    if np.any(w0):
        g0 = grid.g[w0]
        truth = np.where(g0 <= 1.0 / 5.0, 0, np.where(g0 <= 3.0 / 7.0, 2, 3))
        rows = np.flatnonzero(w0)
        for row, cls_idx in zip(rows, truth):
            if not possible[row, cls_idx]:
                raise ConsistencyError(
                    f"criteria exclude the exact class on w=0 at g={grid.g[row]}"
                )
            possible[row] = False
            possible[row, cls_idx] = True
        grid.exact[w0] = True
    grid.possible[:] = possible
    grid.pptes[:] = ppt_holds & excl["3"]
    # SLOCC bound from the GHZ witness closed form and the zero-tangle triangle
    witness = tripartite.witness_closed_forms(grid.g, grid.w)["w_ghz"]
    zero_tangle = grid.w >= tripartite.GHZ_TANGLE_SLOPE * grid.g - 1e-15
    inside = _triangle_mask(grid.g, grid.w)
    ghz = witness < 0.0
    not_ghz = (~ghz) & (zero_tangle | ~inside)
    if np.any(ghz & (zero_tangle | ~inside)):
        raise ConsistencyError("GHZ witness and zero-tangle bound contradict on the grid")
    grid.slocc[:] = np.where(ghz, 0, np.where(not_ghz, 1, 2))


def _triangle_mask(g: np.ndarray, w: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    (ax, ay), (bx, by), (cx, cy) = tripartite.GHZ_TRIANGLE
    first = (bx - ax) * (w - ay) - (by - ay) * (g - ax) >= -eps
    second = (cx - bx) * (w - by) - (cy - by) * (g - bx) >= -eps
    third = (ax - cx) * (w - cy) - (ay - cy) * (g - cx) >= -eps
    return first & second & third


def grid_scan(resolution: int, criteria="all", workers: int = 1, seed: int | None = None) -> RegionGrid:
    """Evaluate the selected criteria on every lattice point of the simplex.

    ``workers`` > 1 evaluates chunks concurrently; the chunking is fixed, so
    the result is identical to the sequential one.  ``seed`` is accepted for
    interface stability; none of the fixed criteria draw randomness.
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
        return _chunk_margins(g[lo:hi], w[lo:hi], ids)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(bounds) for bounds in chunks]
    margins = {
        cid: np.concatenate([res[cid] for res in results]) if chunks else np.empty(0)
        for cid in ids
    }
    grid = RegionGrid(
        resolution=resolution,
        criteria=ids,
        i_index=i_idx,
        j_index=j_idx,
        g=g,
        w=w,
        margins=margins,
        possible=np.ones((cells, 4), dtype=bool),
        slocc=np.full(cells, 2, dtype=np.int8),
        exact=np.zeros(cells, dtype=bool),
        pptes=np.zeros(cells, dtype=bool),
    )
    _classify_chunkless(grid)
    return grid


# ---------------------------------------------------------------------------
# per-point margins and boundary bisection


def point_margin(cid: str, p: SimplexPoint) -> float:
    """Margin of one criterion at one point, through the full per-point path."""
    if cid not in _ID_SET:
        raise ValueError(f"unknown criterion {cid!r}")
    if cid.startswith("maj_"):
        v1, v23 = bipartite.criterion_majorization(p)
        return v1.margin if cid == "maj_rho1" else v23.margin
    if cid.startswith("entropy_"):
        marg, _, alpha_part = cid.removeprefix("entropy_").partition("_a")
        alpha = math.inf if alpha_part == "inf" else float(alpha_part)
        v1, v23 = bipartite.criterion_entropy(p, alpha)
        return v1.margin if marg == "rho1" else v23.margin
    if cid == "ppt":
        return bipartite.criterion_ppt(p).margin
    if cid == "reduction":
        return bipartite.criterion_reduction(p).margin
    if cid == "resh24":
        return bipartite.criterion_reshuffling_24(p).margin
    if cid == "perm222":
        return tripartite.criterion_permutation_222(p).margin
    if cid.startswith("su"):
        tag, _, setpart = cid.partition("_set")
        level = {"su2": "2sep", "su283": "28cap3", "su3": "3sep"}[tag]
        setting = tripartite.PUBLISHED_SETTINGS[int(setpart) - 1]
        return tripartite.criterion_su(p, (setting,) * 3, level).margin
    if cid.startswith("huber_"):
        _, tag, kpart = cid.split("_")
        phi = tripartite.phi_ghz() if tag == "ghz" else tripartite.phi_w()
        return tripartite.criterion_huber(p, phi, int(kpart.removeprefix("k")), cid=cid).margin
    if cid.startswith("gs2"):
        verdict = tripartite.criterion_gs_biseparable(p)
        return verdict.parts[cid] if cid in verdict.parts else verdict.margin
    if cid == "gs3":
        return tripartite.criterion_gs_fullsep(p).margin
    if cid.startswith("w_"):
        return tripartite.witness_expectations(p)[cid]
    raise ValueError(f"unknown criterion {cid!r}")


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
    codes = {cid: grid.verdict_codes(cid) for cid in grid.criteria}
    for n in range(grid.cell_count):
        gs = _fmt(grid.g[n])
        ws = _fmt(grid.w[n])
        for cid in grid.criteria:
            lines.append(
                f"{gs},{ws},{cid},{_CODE_NAMES[int(codes[cid][n])]},{_fmt(grid.margins[cid][n])}"
            )
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
    out = []
    for n in range(grid.cell_count):
        entry = grid.report_at(n).to_dict()
        entry["criteria"] = {
            cid: {
                "verdict": _CODE_NAMES[int(grid.verdict_codes(cid)[n])],
                "margin": float(grid.margins[cid][n]),
            }
            for cid in grid.criteria
        }
        out.append(entry)
    return out


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
