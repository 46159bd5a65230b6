"""Simplex sweeps, criterion boundary extraction, and file exports.

The lattice at resolution N holds the points (g, w) = (i/N, j/N) with
i + j <= N.  Cells are evaluated in fixed-size chunks through vectorized
dual-path criterion evaluators (batched LAPACK spectra checked against the
closed forms), on as many threads as there are usable cores.  LAPACK and
numpy's array loops release the GIL, but the interpreter and numpy's per-call
dispatch hold it, so threads overlap only in part: they wait on GIL hand-offs
between short numpy calls.  The chunk layout never depends on the worker
count, so a parallel scan is byte-identical to a sequential one.

The CSV and JSON exports write every float as ``float.__repr__`` does.  Each
block of floats is formatted by one ``orjson.dumps`` call (Ryu's shortest
round-trip digits); only the values whose notation differs from ``repr``
(non-finite, nonzero |x| < 1e-4, |x| >= 1e16) go through ``float.__repr__``.
"""

from __future__ import annotations

import contextlib
import errno
import json
import numbers
import os
import stat
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import classify, criteria as registry, verdict
from .states import SimplexPoint

CHUNK = 4096
SCHEMA_VERSION = 1
MAX_CELLS = 1_000_000  # largest lattice a scan may hold (resolution 1412)


def resolve_criteria(selection) -> tuple[str, ...]:
    """Expand a selection (group names, bare ids, 'all', comma string) to ids."""
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


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def check_scan(resolution: int, criteria="all", workers: int | None = None) -> tuple[str, ...]:
    """The criterion ids ``grid_scan`` would evaluate; ValueError for arguments it refuses."""
    if not isinstance(resolution, numbers.Integral) or isinstance(resolution, bool):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    cells = (int(resolution) + 1) * (int(resolution) + 2) // 2
    if cells > MAX_CELLS:
        raise ValueError(
            f"resolution {resolution} has {cells} lattice cells, over the cap "
            f"MAX_CELLS = {MAX_CELLS}"
        )
    if workers is not None and (not isinstance(workers, numbers.Integral) or isinstance(workers, bool)):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return resolve_criteria(criteria)


def grid_scan(resolution: int, criteria="all", workers: int | None = None) -> RegionGrid:
    """Evaluate the selected criteria on every lattice point of the simplex.

    Chunks run on ``workers`` threads, by default one per usable core, never
    more than there are chunks.  The chunking is fixed, so the result does
    not depend on the worker count.  Once a chunk fails, the chunks after it
    that have not started are skipped, and the error raised is that of the
    earliest failing chunk in lattice order.
    """
    ids = check_scan(resolution, criteria, workers)
    n = resolution
    cells = (int(n) + 1) * (int(n) + 2) // 2
    i_idx = np.concatenate([np.full(n + 1 - i, i, dtype=np.int64) for i in range(n + 1)])
    j_idx = np.concatenate([np.arange(n + 1 - i, dtype=np.int64) for i in range(n + 1)])
    g = i_idx / float(n)
    w = j_idx / float(n)
    chunks = [(k, min(k + CHUNK, cells)) for k in range(0, cells, CHUNK)]
    workers = min(_usable_cores() if workers is None else workers, len(chunks))
    margins = {cid: np.empty(cells) for cid in ids}
    failed: list[int] = []  # chunks that raised; list.append is atomic

    def work(k, lo, hi):
        if failed and k > min(failed):
            return  # an earlier chunk failed, so this one's margins are never read
        try:
            values = registry.margins(g[lo:hi], w[lo:hi], ids)
        except BaseException:
            failed.append(k)
            raise
        for cid, m in values.items():
            margins[cid][lo:hi] = m

    if workers > 1:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(work, k, lo, hi) for k, (lo, hi) in enumerate(chunks)]
            for future in futures:  # lattice order: the earliest failure is raised
                future.result()
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        for k, (lo, hi) in enumerate(chunks):
            work(k, lo, hi)
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
    bracketing interval is shorter than ``tol``, which must be finite and
    positive, or once its midpoint rounds to one of its ends.
    """
    if not (tol > 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
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
        if (mid == a).all() or (mid == b).all():
            break  # the ends are adjacent floats: the bracket shrinks no further
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
#
# The CSV and the JSON are written by one pass over blocks of cells.  Every float of
# a block is formatted once, by ``_reprs``, as ``float.__repr__`` (the shortest text
# that parses back to the same float64, and what ``json`` writes), and both files are
# assembled from those strings, so memory stays bounded by one block.


_BLOCK = 4096  # cells formatted and written at a time
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_FLAGS = ("false", "true")
_JSON_SLOCC = tuple(json.dumps(name) for name in classify.SLOCC_NAMES)
# the possible-class list of each subset of classify.CLASSES, bit k for class k
_JSON_CLASSES = tuple(
    json.dumps([cls for k, cls in enumerate(classify.CLASSES) if bits >> k & 1], separators=(",", ":"))
    for bits in range(1 << len(classify.CLASSES))
)
_CSV_HEADER = "g,w,criterion_id,verdict,margin"


def _blocks(grid: RegionGrid):
    return ((lo, min(lo + _BLOCK, grid.cell_count)) for lo in range(0, grid.cell_count, _BLOCK))


def _columns(arrays, lo: int, hi: int, dtype) -> np.ndarray:
    """Cells lo..hi-1 of each array, one column per array."""
    if not arrays:
        return np.empty((hi - lo, 0), dtype=dtype)
    return np.stack([a[lo:hi] for a in arrays], axis=1)


def _reprs(values: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of every element, as an object array of the same shape.

    orjson writes the block with Ryu, the same shortest round-trip digits as
    ``repr``.  Its notation differs for non-finite values (``null``), for nonzero
    |x| < 1e-4 (``0.00001``, not ``1e-05``) and for |x| >= 1e16 (``1e16``, not
    ``1e+16``); only those go through ``float.__repr__``.
    """
    import orjson  # on first use, so importing qsep, eval and verify do not load it

    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    out = np.empty(flat.size, dtype=object)
    if flat.size:
        out[:] = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        size = np.abs(flat)
        odd = ~(size < 1e16) | ((size < 1e-4) & (size != 0.0))  # NaN fails size < 1e16
        if odd.any():
            out[odd] = list(map(float.__repr__, flat[odd].tolist()))
    return out.reshape(values.shape)


def _lead_table(rows) -> np.ndarray:
    """Rows of three leads, one per verdict code + 1, as a (criteria, 3) object array."""
    return np.array(rows, dtype=object).reshape(len(rows), 3)


_TEMP_ATTEMPTS = 100


def _create_temp(path):
    """Create a new empty file beside ``path``; return its name and its open text handle.

    The file is created exclusively, so a name that exists, a leftover file or a
    planted link, is never opened or followed; the next name is tried.  The first
    name is ``<path>.<pid>.tmp``, the others add a random part.  A new file gets
    mode 0666 & ~umask, as ``open(path, "w")`` gives one.
    """
    pid = os.getpid()
    for attempt in range(_TEMP_ATTEMPTS):
        temp = f"{path}.{pid}.tmp" if attempt == 0 else f"{path}.{pid}.{os.urandom(4).hex()}.tmp"
        with contextlib.suppress(FileExistsError):
            return temp, open(temp, "x", newline="")
    raise FileExistsError(errno.EEXIST, "no free temporary name beside the target", path)


def export_scan(make_grid, csv_path=None, json_path=None, svg_path=None) -> RegionGrid:
    """Open every target, call ``make_grid()`` for the grid, write its CSV, JSON and SVG
    (None skips one), and return the grid.

    Every target is opened before ``make_grid`` runs, so a path that cannot be
    opened fails before any work.  A regular file or a new path gets a temporary
    file beside it, created exclusively (``_create_temp``); these replace their
    targets together once every export is written, and are removed if anything
    raises, which leaves the targets as they were.  A link, a pipe or a device is
    written directly; a regular file behind a link is emptied only once the grid
    is there.  Two paths that resolve to one file raise ValueError before
    anything is opened.
    """
    paths = (csv_path, json_path, svg_path)
    named = [os.path.realpath(path) for path in paths if path is not None]
    if len(set(named)) < len(named):
        raise ValueError(f"two exports name the same file: {[p for p in paths if p is not None]}")
    temps = {}  # path -> its temporary file
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                if path is None:
                    files.append(None)
                    continue
                try:
                    if not os.path.islink(path) and (os.path.isfile(path) or not os.path.exists(path)):
                        temps[path], fh = _create_temp(path)
                    else:  # a direct target is opened for appending, which leaves it as it is
                        fh = open(path, "a", newline="")
                except OSError as exc:
                    exc.filename = path  # name the path asked for, not its temporary file
                    raise
                files.append(stack.enter_context(fh))
            grid = make_grid()
            for fh in files:
                if fh is not None and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
            csv_fh, json_fh, svg_fh = files
            if csv_fh is not None or json_fh is not None:
                _write_tables(grid, csv_fh, json_fh)
            if svg_fh is not None:
                svg_fh.write(_svg_text(grid))
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            with contextlib.suppress(OSError):
                os.remove(temp)
    return grid


def _write_tables(grid: RegionGrid, csv_fh, json_fh) -> None:
    """Write the CSV, the JSON or both (None skips one) in one pass over the cells.

    The CSV has one row ``g,w,criterion_id,verdict,margin`` per (cell,
    criterion), cells in lattice order and criteria in selection order.  The
    JSON is what ``json.dump`` writes for each cell's ``ClassReport.to_dict()``
    and verdicts, byte for byte.  Every float is ``float.__repr__``, so it parses
    back to the same float64; the JSON spells NaN and the infinities as
    ``json`` does.
    """
    crit = grid.criteria
    names = [verdict.CODE_NAMES[code] for code in (-1, 0, 1)]
    keys = [json.dumps(cid) for cid in crit]
    csv_leads = _lead_table([[f"{cid},{name}," for name in names] for cid in crit])
    # each JSON lead closes the entry before it
    json_leads = _lead_table([
        [f'{"}," if k else ""}{key}:{{"verdict":"{name}","margin":' for name in names]
        for k, key in enumerate(keys)
    ])
    close = "}}}" if crit else "}}"
    excluded = [
        ",".join(f"[{json.dumps(cls)},{key}]" for cls in registry.BY_ID[cid].excludes)
        for cid, key in zip(crit, keys)
    ]
    column = np.arange(len(crit))

    def write_block(lo: int, hi: int) -> None:  # its strings are freed when it returns
        margins = _columns([grid.margins[cid] for cid in crit], lo, hi, float)
        codes = _columns([grid.codes[cid] for cid in crit], lo, hi, np.int8)
        text = _reprs(margins)
        g, w = _reprs(grid.g[lo:hi]), _reprs(grid.w[lo:hi])
        if csv_fh is not None:
            rows = np.empty(codes.shape + (3,), dtype=object)  # each row starts a line
            rows[:, :, 0] = np.array([f"\n{a},{b}," for a, b in zip(g, w)], dtype=object)[:, None]
            rows[:, :, 1] = csv_leads[column, codes + 1]
            rows[:, :, 2] = text
            csv_fh.write("".join(rows.ravel().tolist()))
            del rows  # before the JSON text is built
        if json_fh is not None:
            bad = ~np.isfinite(margins)
            if bad.any():
                text[bad] = [_JSON_NONFINITE[s] for s in text[bad]]
            heads = _json_heads(grid, lo, hi, codes, keys, excluded)
            reports = np.empty((hi - lo, 2 * len(crit) + 2), dtype=object)
            reports[:, 0] = [f',{{"g":{a},"w":{b}{h}' for a, b, h in zip(g, w, heads)]
            if lo == 0:
                reports[0, 0] = reports[0, 0][1:]  # no comma before the first report
            reports[:, 1:-1:2] = json_leads[column, codes + 1]
            reports[:, 2:-1:2] = text
            reports[:, -1] = close
            json_fh.write("".join(reports.ravel().tolist()))

    if csv_fh is not None:
        csv_fh.write(_CSV_HEADER)  # each row starts with its newline
    if json_fh is not None:
        head = {"schema_version": SCHEMA_VERSION, "resolution": grid.resolution, "criteria": list(crit)}
        json_fh.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"reports":[')
    for lo, hi in _blocks(grid):
        write_block(lo, hi)
    if csv_fh is not None:
        csv_fh.write("\n")
    if json_fh is not None:
        json_fh.write("]}\n")


def _json_heads(grid: RegionGrid, lo: int, hi: int, codes: np.ndarray, keys, excluded) -> list[str]:
    """The report text of cells lo..hi-1 from the end of ``w`` to the first criterion.

    It depends only on a cell's verdict codes, classes, SLOCC code and flags,
    so it is built once for each distinct combination in the block.
    """
    bits = grid.possible[lo:hi] @ (1 << np.arange(len(classify.CLASSES)))
    flags = np.stack([bits, grid.slocc[lo:hi], grid.exact[lo:hi], grid.pptes[lo:hi]], axis=1)
    pattern = np.concatenate([codes, flags.astype(np.int8)], axis=1)
    data, width = pattern.tobytes(), pattern.shape[1]
    distinct: dict[bytes, int] = {}  # each combination, numbered in order of appearance
    inverse = [
        distinct.setdefault(data[k : k + width], len(distinct)) for k in range(0, len(data), width)
    ]
    unique = np.frombuffer(b"".join(distinct), dtype=np.int8).reshape(len(distinct), width)
    heads = []
    for *row, bits, slocc, exact, pptes in unique.tolist():
        exclusions = ",".join(ex for code, ex in zip(row, excluded) if code == -1 and ex)
        marginal = ",".join(key for code, key in zip(row, keys) if code == 0)
        heads.append(
            f',"possible_classes":{_JSON_CLASSES[bits]},"slocc":{_JSON_SLOCC[slocc]},'
            f'"exclusions":[{exclusions}],"exact":{_JSON_FLAGS[exact]},'
            f'"pptes_certified":{_JSON_FLAGS[pptes]},"marginal":[{marginal}],"criteria":{{'
        )
    return [heads[k] for k in inverse]


def import_json(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"a JSON export holds an object, not a {type(payload).__name__}")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {payload.get('schema_version')!r}")
    return payload


# ---------------------------------------------------------------------------
# marching squares and SVG

# corner k of cell (i, j) is the lattice point (i + di, j + dj), (di, dj) = _CORNERS[k];
# the edges run between consecutive corners, in this order.  A half-cell on the edge
# g + w = 1 (i + j + 1 = n) has a degenerate corner 2 at corner 3's lattice point, so its
# edge from 1 to 2 lies on that line and its edge from 2 to 3 has length zero.
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0))


def _crossings(corners, i, j, n, half):
    """Zero-level crossings of the cells (i, j) along their four edges, in edge order.

    ``corners`` holds the corner margins by (corner, cell) and ``half`` marks
    the half-cells.  An edge is crossed where its end margins differ in sign
    or one of them (not both) is zero; the crossing is interpolated linearly,
    so the zero-length edge of a half-cell is never crossed.  Crossings at
    the same point (a corner of zero margin, crossed by both its edges) count
    once; across the zero-length edge those are edges 1 and 3.  Three
    crossings, one at a zero corner, mean that corner only touches the zero
    line, and it is dropped.  Returns ``(count, merged, gg, ww)``: per cell,
    the number of crossings and whether two coincided; and the coordinates by
    (crossing, cell), each cell's crossings first.
    """
    offsets = list(_CORNERS)
    offsets[2] = (1 - half.astype(np.int64), 1)
    hit = np.empty((len(_EDGES),) + i.shape, dtype=bool)
    gg = np.empty(hit.shape)
    ww = np.empty(hit.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for e, (a, b) in enumerate(_EDGES):
            ca, cb = corners[a], corners[b]
            t = ca / (ca - cb)
            hit[e] = (
                ~((ca == 0.0) & (cb == 0.0))
                & (((ca > 0) != (cb > 0)) | (ca == 0.0) | (cb == 0.0))
                & (0.0 <= t) & (t <= 1.0)
            )
            (ia, ja), (ib, jb) = offsets[a], offsets[b]
            gg[e] = ((i + ia) + t * (ib - ia)) / n
            ww[e] = ((j + ja) + t * (jb - ja)) / n
    after = [(e + 1) % len(_EDGES) for e in range(len(_EDGES))]
    before = [(e - 1) % len(_EDGES) for e in range(len(_EDGES))]
    # a corner of zero margin is crossed by both its edges: count coincident crossings once
    twin = hit & hit[after] & (gg == gg[after]) & (ww == ww[after])  # same point as the next edge
    # edges 1 and 3 meet only across a zero-length edge 2; on a whole cell they lie on the
    # lines i and i + 1, so this never holds there
    twin[1] |= hit[1] & hit[3] & (gg[1] == gg[3]) & (ww[1] == ww[3])
    hit &= ~twin
    merged = twin.any(axis=0)
    # three left: the zero corner only touches the zero line, so join the other two
    # (a half-cell, with at most three crossings before merging, never has three left)
    touch = merged & (hit.sum(axis=0) == 3)
    hit &= ~(touch & (twin | twin[before]))
    order = np.argsort(~hit, axis=0, kind="stable")  # the crossings of each cell first
    return (
        hit.sum(axis=0), merged,
        np.take_along_axis(gg, order, axis=0), np.take_along_axis(ww, order, axis=0),
    )


def _isolines(grid: RegionGrid, ids) -> list[np.ndarray]:
    """Zero-level segments of the margin field of each criterion in ``ids``, by marching squares.

    Every lattice cell whose four corners lie in the simplex is processed at
    once, with array masks in place of Lorensen & Cline's case table, and so
    is every triangular half-cell along g + w = 1.  Crossings follow
    ``_crossings``.  A cell with two crossings gives one segment; a saddle
    (four) gives two, paired by the sign of the mean corner margin.  A zero
    corner that is a cell's only crossing is an isolated zero and gives a
    segment of length zero.  A cell with a NaN corner gives none.

    Each criterion in turn fills one field buffer and gathers the corner
    margins of its candidate cells; the crossings and segments of all the
    candidates are then found in one pass.  Returns one ``(segments, 4)``
    array of ``g0, w0, g1, w1`` per criterion, segments in cell order,
    i-major, then j; a half-cell comes last in its row.
    """
    if not ids:
        return []
    n = grid.resolution
    field = np.full((n + 1, n + 1), np.nan)  # field[i, j]: the margin at (i/n, j/n)
    flat = field.reshape(-1)
    lattice = grid.i_index * (n + 1) + grid.j_index
    # a half-cell (i, j), i + j + 1 = n, reads its degenerate corner 2 at (i + 1, j + 1), off
    # the simplex, which holds a copy of its corner 3 on g + w = 1.  Any other cell that
    # reaches past g + w = 1 has a NaN corner at i + j + 2 > n + 1.
    edge = np.flatnonzero((grid.i_index + grid.j_index == n) & (grid.i_index < n))
    beyond = lattice[edge] + (n + 1)
    step = np.array([[0], [n + 1], [n + 2], [1]])  # from corner 0 to each corner in ``flat``
    cells, corners = [], []
    for cid in ids:
        margins = grid.margins[cid]
        flat[lattice] = margins
        flat[beyond] = margins[edge]
        # cells whose corner margins are not all of one strict sign (a NaN corner fails both
        # tests, since NaN propagates through the extrema)
        low, high = np.minimum(field[:-1], field[1:]), np.maximum(field[:-1], field[1:])
        low, high = np.minimum(low[:, :-1], low[:, 1:]), np.maximum(high[:, :-1], high[:, 1:])
        cell = np.flatnonzero((low <= 0.0) & (high >= 0.0))
        cell += cell // n  # the position of corner 0 in ``flat``
        cells.append(cell)
        corners.append(flat[cell + step])
    owner = np.repeat(np.arange(len(ids)), [cell.size for cell in cells])
    i, j = np.divmod(np.concatenate(cells), n + 1)
    corners = np.concatenate(corners, axis=1)
    count, merged, gg, ww = _crossings(corners, i, j, n, i + j + 1 == n)
    isolated = merged & (count == 1)  # a zero corner is all the zero set in the cell
    saddle = count == 4
    centre = (((corners[0] + corners[1]) + corners[2]) + corners[3]) / 4.0
    paired = saddle & ((centre > 0) == (corners[0] > 0))
    # which crossings the first and second segment of each cell join
    ends = np.stack([
        np.zeros_like(count),
        np.where(paired, 3, np.where(isolated, 0, 1)),
        np.where(paired, 1, 2),
        np.where(paired, 2, 3),
    ])
    gg = np.take_along_axis(gg, ends, axis=0)
    ww = np.take_along_axis(ww, ends, axis=0)
    segments = np.stack([gg[0], ww[0], gg[1], ww[1], gg[2], ww[2], gg[3], ww[3]], axis=1)
    emitted = np.stack([(count == 2) | saddle | isolated, saddle], axis=1).reshape(-1)
    per_criterion = np.bincount(np.repeat(owner, 2)[emitted], minlength=len(ids))
    return np.split(segments.reshape(-1, 4)[emitted], np.cumsum(per_criterion)[:-1])


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


def _svg_text(grid: RegionGrid) -> str:
    """Simplex map: per-cell fill by possible classes plus margin isolines."""
    size = 640.0
    pad = 60.0
    scale = size - 2 * pad
    n = grid.resolution
    cell = scale / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect x="0" y="0" width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    # class fills, merging runs of equal fill along each row of constant w
    order = np.lexsort((grid.i_index, grid.j_index))
    fills = [
        _fill_for(tuple(cls for k, cls in enumerate(classify.CLASSES) if bits >> k & 1))
        for bits in range(1 << len(classify.CLASSES))
    ] + [_PPTES_FILL]
    fill_ids = np.array([fills.index(fill) for fill in fills])
    style = np.where(grid.pptes, len(fills) - 1, grid.possible @ (1 << np.arange(len(classify.CLASSES))))
    fill, j, i = fill_ids[style[order]], grid.j_index[order], grid.i_index[order]
    breaks = (j[1:] != j[:-1]) | (fill[1:] != fill[:-1]) | (i[1:] != i[:-1] + 1)
    starts = np.flatnonzero(np.concatenate([[True], breaks]))
    lasts = np.concatenate([starts[1:], [order.size]]) - 1
    runs = np.empty((starts.size, 4), dtype=object)  # x, y, width and fill of each run
    runs[:, 0] = pad + i[starts] / n * scale - cell / 2
    runs[:, 1] = size - pad - j[starts] / n * scale - cell / 2
    runs[:, 2] = (i[lasts] - i[starts] + 1) * cell
    runs[:, 3] = np.array(fills, dtype=object)[fill[starts]]
    rect = f'<rect x="%.2f" y="%.2f" width="%.2f" height="{cell:.2f}" fill="%s"/>'
    parts.append("\n".join([rect] * starts.size) % tuple(runs.ravel().tolist()))
    # simplex outline
    parts.append(
        f'<path d="M {pad:.2f} {size - pad:.2f} L {pad + scale:.2f} {size - pad:.2f} '
        f'L {pad:.2f} {size - pad - scale:.2f} Z" fill="none" stroke="black" stroke-width="1.5"/>'
    )
    # criterion boundary isolines; the map point of (g, w) is (pad + g*scale, (size - pad)
    # - w*scale), for both ends of a segment (adding -(w*scale) is subtracting w*scale)
    offset = np.array([pad, size - pad] * 2)
    factor = np.array([scale, -scale] * 2)
    legend_y = pad / 2
    for color_idx, (cid, segments) in enumerate(zip(grid.criteria, _isolines(grid, grid.criteria))):
        if not segments.size:
            continue
        color = _CURVE_COLORS[color_idx % len(_CURVE_COLORS)]
        d = " ".join(["M %.2f %.2f L %.2f %.2f"] * len(segments)) % tuple(
            (offset + segments * factor).ravel().tolist())
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(
            f'<text x="{size - pad + 4:.0f}" y="{legend_y:.0f}" font-size="9" '
            f'fill="{color}">{cid}</text>'
        )
        legend_y += 11
    parts.append(
        f'<text x="{pad + scale / 2:.0f}" y="{size - pad / 3:.0f}" font-size="14" '
        f'text-anchor="middle">g</text>'
    )
    parts.append(
        f'<text x="{pad / 3:.0f}" y="{size - pad - scale / 2:.0f}" font-size="14" '
        f'text-anchor="middle">w</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
