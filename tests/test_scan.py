import dataclasses
import functools
import json
import math
import os
import re
import stat
import struct
import sys
import tempfile
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsep import bipartite, classify, criteria, linalg, scan, states, tripartite, verdict
from qsep.config import MARGINAL_BAND
from qsep.exceptions import ConsistencyError
from qsep.states import SimplexPoint

# per-point reference margins, one criterion of every registry group.  Each starts from
# the independent mixture d/8 I + g |GHZ><GHZ| + w |W><W|, not the entry templates, and
# derives its matrices by the generic maps: partial traces, index permutations,
# reshuffles, Kronecker products, explicit observables and swap operators.


def mixture(p):
    return states.build_rho_mixture_grid(np.array([p.g]), np.array([p.w]))[0]


def spectrum(matrix):
    return np.linalg.eigvalsh(matrix)[::-1]


def majorization_slack(rho, marginal):
    big, small = spectrum(rho), spectrum(marginal)
    small = np.pad(small, (0, big.size - small.size))
    return float(np.min((np.cumsum(small) - np.cumsum(big))[:-1]))


def collision_entropy(matrix):
    return -math.log(float(np.sum(spectrum(matrix) ** 2)))


def reduction_margin(rho):
    first = np.kron(np.eye(2), states.partial_trace_1(rho)) - rho
    second = np.kron(states.partial_trace_23(rho), np.eye(4)) - rho
    return min(spectrum(first)[-1], spectrum(second)[-1])


def trace_norm_margin(matrix):
    return 1.0 - float(np.sum(np.linalg.svd(matrix, compute_uv=False)))


def spin_margin(rho, setting, level):
    obs = tripartite.build_spin_observables(*(setting,) * 3)
    ev = [[np.trace(o @ rho).real for o in obs[key]] for key in ("X", "Y", "Z", "I")]
    return float(tripartite.su_margins_from_expectations(*ev, level))


def swap_margin(rho, phi, k):
    doubled = np.kron(rho, rho)

    def q(subsystems):
        shifted = tripartite.swap_operator(subsystems) @ phi
        return max(0.0, float((np.conj(shifted) @ doubled @ shifted).real))

    total = np.conj(phi) @ doubled @ tripartite.swap_operator((1, 2, 3)) @ phi
    lhs = math.sqrt(max(0.0, float(total.real)))
    if k == 2:
        return sum((q(s1) * q(s2)) ** 0.25 for s1, s2 in tripartite.BIPARTITE_SPLITS) - lhs
    return (q((1,)) * q((2,)) * q((3,))) ** (1.0 / 6.0) - lhs


REFERENCE_MARGINS = {
    "maj_rho23": lambda rho: majorization_slack(rho, states.partial_trace_1(rho)),
    "entropy_rho1_a2": lambda rho: collision_entropy(rho) - collision_entropy(
        states.partial_trace_23(rho)),
    "ppt": lambda rho: spectrum(linalg.permute_indices(rho, linalg.TRANSPOSE_1_PERM))[-1],
    "reduction": reduction_margin,
    "resh24": lambda rho: trace_norm_margin(states.reshuffle_24_matrix(rho)),
    "perm222": lambda rho: trace_norm_margin(
        linalg.permute_indices(rho, linalg.RESHUFFLE_23_PERM)),
    "su2_set1": lambda rho: spin_margin(rho, tripartite.SETTING_I, "2sep"),
    "su283_set2": lambda rho: spin_margin(rho, tripartite.SETTING_II, "28cap3"),
    "su3_set3": lambda rho: spin_margin(rho, tripartite.SETTING_III, "3sep"),
    "huber_ghz_k2": lambda rho: swap_margin(rho, tripartite.phi_ghz(), 2),
    "huber_w_k3": lambda rho: swap_margin(rho, tripartite.phi_w(), 3),
    "gs2_w": lambda rho: tripartite.gs2_element_margins(rho)[1],
    "gs3": lambda rho: min(tripartite.gs3_element_margins(rho).values()),
    "w_w1": lambda rho: np.trace(tripartite.witness_matrices()["w_w1"] @ rho).real,
}


# ---------------------------------------------------------------------------
# loop references for the array exporters: one cell (and one criterion) at a time


def reference_csv(grid) -> str:
    lines = ["g,w,criterion_id,verdict,margin"]
    for n in range(grid.cell_count):
        gs, ws = repr(float(grid.g[n])), repr(float(grid.w[n]))
        for cid in grid.criteria:
            name = verdict.CODE_NAMES[int(grid.codes[cid][n])]
            lines.append(f"{gs},{ws},{cid},{name},{float(grid.margins[cid][n])!r}")
    return "\n".join(lines) + "\n"


def report_at(grid, n):
    """The class report of cell ``n`` of a scan."""
    return classify.cell_report(
        grid.g[n], grid.w[n], {cid: grid.codes[cid][n] for cid in grid.criteria},
        grid.possible[n], grid.slocc[n], grid.exact[n], grid.pptes[n],
    )


def verdict_names(grid) -> dict[str, list[str]]:
    return {cid: [verdict.CODE_NAMES[c] for c in grid.codes[cid].tolist()] for cid in grid.criteria}


def grid_report_dicts(grid) -> list[dict]:
    """The report object of every cell, as the JSON export holds them."""
    names = verdict_names(grid)
    margins = {cid: grid.margins[cid].tolist() for cid in grid.criteria}
    out = []
    for n in range(grid.cell_count):
        entry = report_at(grid, n).to_dict()
        entry["criteria"] = {
            cid: {"verdict": names[cid][n], "margin": margins[cid][n]} for cid in grid.criteria
        }
        out.append(entry)
    return out


def reference_json(grid) -> str:
    payload = {
        "schema_version": scan.SCHEMA_VERSION,
        "resolution": grid.resolution,
        "criteria": list(grid.criteria),
        "reports": grid_report_dicts(grid),
    }
    return json.dumps(payload, indent=None, separators=(",", ":")) + "\n"


def reference_isolines(grid, cid):
    """Marching squares one cell at a time, coincident crossings merged.

    A whole cell has four corners; a half-cell on g + w = 1 has three, (i, j),
    (i + 1, j) and (i, j + 1).  The edges join consecutive corners."""
    n = grid.resolution
    field = np.full((n + 1, n + 1), np.nan)
    field[grid.i_index, grid.j_index] = grid.margins[cid]
    segments = []
    for i in range(n):
        for j in range(n):
            if i + j + 2 <= n:
                points = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            elif i + j + 1 == n:
                points = ((i, j), (i + 1, j), (i, j + 1))
            else:
                continue
            corners = tuple(field[pt] for pt in points)
            if any(math.isnan(v) for v in corners):
                continue
            pts = []
            for k, (ia, ja) in enumerate(points):
                ib, jb = points[(k + 1) % len(points)]
                ca, cb = corners[k], corners[(k + 1) % len(points)]
                if ca == 0.0 and cb == 0.0:
                    continue
                if (ca > 0) != (cb > 0) or ca == 0.0 or cb == 0.0:
                    t = ca / (ca - cb) if ca != cb else 0.5
                    if not 0.0 <= t <= 1.0:
                        continue
                    pts.append(((ia + t * (ib - ia)) / n, (ja + t * (jb - ja)) / n))
            # coincident crossings (a corner of zero margin) count once
            merged = []
            for pt in pts:
                if not merged or merged[-1] != pt:
                    merged.append(pt)
            if len(merged) > 1 and merged[-1] == merged[0]:
                merged.pop()
            if len(merged) == 3 and len(merged) < len(pts):
                # the shared corner only touches the zero line: join the other two crossings
                merged = [pt for pt in merged if pts.count(pt) == 1]
            elif len(merged) == 1 and len(pts) > 1:
                merged *= 2  # an isolated zero corner: a segment of length zero
            pts = merged
            if len(pts) == 2:
                segments.append((pts[0], pts[1]))
            elif len(pts) == 4:
                # ambiguous saddle: pair crossings consistently with the centre sign
                if (sum(corners) / 4.0 > 0) == (corners[0] > 0):
                    segments += [(pts[0], pts[3]), (pts[1], pts[2])]
                else:
                    segments += [(pts[0], pts[1]), (pts[2], pts[3])]
    return segments


def isolines_of(grid, cid):
    """The segments ``scan._isolines`` gives one criterion, as ((g0, w0), (g1, w1)) pairs."""
    return [((a, b), (c, d)) for a, b, c, d in scan._isolines(grid, (cid,))[0].tolist()]


def reference_fill_rects(grid) -> list[str]:
    """The class-fill rectangles of the SVG map, one cell at a time, runs merged along rows."""
    size, pad = 640.0, 60.0
    scale = size - 2 * pad
    n = grid.resolution
    cell = scale / n
    styles = []
    for k in np.lexsort((grid.i_index, grid.j_index)):
        signature = tuple(cls for c, cls in enumerate(classify.CLASSES) if grid.possible[k, c])
        fill = scan._PPTES_FILL if grid.pptes[k] else scan._fill_for(signature)
        styles.append((int(grid.j_index[k]), int(grid.i_index[k]), fill))
    rects, start = [], 0
    for k in range(1, len(styles) + 1):
        if (
            k == len(styles)
            or styles[k][0] != styles[start][0]
            or styles[k][2] != styles[start][2]
            or styles[k][1] != styles[k - 1][1] + 1
        ):
            j, i0, fill = styles[start]
            x = pad + i0 / n * scale - cell / 2
            y = size - pad - j / n * scale - cell / 2
            width = styles[k - 1][1] - i0 + 1
            rects.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{width * cell:.2f}" '
                f'height="{cell:.2f}" fill="{fill}"/>'
            )
            start = k
    return rects


# the default (one thread per usable core), sequential, and more threads than cores
WORKER_COUNTS = (None, 1, 3, 4)
SMALL_CHUNK = 32  # splits the lattices of the worker-invariance tests into 3 to 8 chunks


def exports_across_workers(tmp_path, fmt, resolution):
    """The bytes of one export of the full selection for each of WORKER_COUNTS."""
    out = {}
    for workers in WORKER_COUNTS:
        path = tmp_path / f"workers-{workers}.{fmt}"
        grid = scan.grid_scan(resolution, "all", workers=workers)
        scan.export_scan(lambda: grid, **{f"{fmt}_path": path})
        out[workers] = path.read_bytes()
    return out


def flat_index(grid, i, j):
    """The array position of lattice cell (i, j)."""
    hits = np.flatnonzero((grid.i_index == i) & (grid.j_index == j))
    if hits.size != 1:
        raise KeyError(f"no lattice cell ({i}, {j}) at resolution {grid.resolution}")
    return int(hits[0])


def field_grid(values, n):
    """A stand-in grid carrying one margin field "f" on the lattice of resolution n."""
    i_idx, j_idx = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
    return SimpleNamespace(
        resolution=n, i_index=i_idx, j_index=j_idx, margins={"f": np.asarray(values, dtype=float)}
    )


# each float where scan._reprs changes notation, with both its neighbours, and the extremes
REPR_EDGES = [
    v
    for edge in (1e-4, 1e16, 5e-324, sys.float_info.max)
    for sign in (1.0, -1.0)
    for v in (math.nextafter(sign * edge, 0.0), sign * edge, math.nextafter(sign * edge, sign * math.inf))
] + [0.0, -0.0, math.nan, math.inf, -math.inf]


@functools.cache
def small_grid():
    """A 15-cell scan of three criteria; callers replace its margins, not mutate them."""
    return scan.grid_scan(4, "ppt,gs3,w_w1")


class TestResolveCriteria:
    def test_all_expands_everything(self):
        assert scan.resolve_criteria("all") == criteria.IDS

    def test_groups_and_ids_mix(self):
        ids = scan.resolve_criteria("gs3,ppt")
        assert ids == ("gs3", "ppt")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            scan.resolve_criteria("ppt,bogus")

    def test_empty_selection(self):
        assert scan.resolve_criteria("") == ()


class TestGridScan:
    def test_resolution_two_has_six_cells(self):
        grid = scan.grid_scan(2, "ppt")
        assert grid.cell_count == 6

    def test_rejects_resolution_below_two(self):
        with pytest.raises(ValueError):
            scan.grid_scan(1, "ppt")

    @pytest.mark.parametrize("resolution", [40.0, 40.5, "40", True])
    def test_rejects_a_resolution_that_is_not_an_integer(self, resolution):
        # refused at the boundary, by the check that runs before the lattice is built
        for call in (scan.check_scan, scan.grid_scan):
            with pytest.raises(ValueError, match=f"^resolution must be an integer, got {resolution!r}$"):
                call(resolution, "ppt")
        assert scan.check_scan(np.int64(40), "ppt") == ("ppt",)

    def test_margins_match_per_point_path(self):
        grid = scan.grid_scan(10, "all")
        assert {criteria.BY_ID[cid].group for cid in REFERENCE_MARGINS} == set(criteria.GROUPS)
        for i, j in ((2, 3), (0, 0), (10, 0), (4, 4)):
            n = flat_index(grid, i, j)
            rho = mixture(SimplexPoint(i / 10, j / 10))
            for cid, reference in REFERENCE_MARGINS.items():
                assert abs(grid.margins[cid][n] - reference(rho)) < 1e-11, (i, j, cid)

    def test_classification_matches_classify_point(self):
        grid = scan.grid_scan(8, "all")
        for i, j in ((0, 0), (2, 2), (8, 0), (3, 5), (1, 6)):
            report_grid = report_at(grid, flat_index(grid, i, j))
            assert report_grid == classify.classify_point(SimplexPoint(i / 8, j / 8))

    @settings(max_examples=8, deadline=None)
    @given(resolution=st.integers(2, 40), chunk=st.sampled_from([7, 64, 8192]), data=st.data())
    def test_batch_of_one_is_the_grid_path(self, resolution, chunk, data):
        with mock.patch.object(scan, "CHUNK", chunk):
            grid = scan.grid_scan(resolution, "all")
        cells = st.lists(st.integers(0, grid.cell_count - 1), min_size=1, max_size=3)
        for n in data.draw(cells):
            one = criteria.margins(grid.g[n : n + 1], grid.w[n : n + 1], criteria.IDS)
            for cid in criteria.IDS:
                assert one[cid].tobytes() == grid.margins[cid][n : n + 1].tobytes(), (n, cid)
            report = classify.classify_point(SimplexPoint(grid.g[n], grid.w[n]))
            assert report == report_at(grid, n)

    @pytest.mark.parametrize("resolution,criteria", [(50, "perm222"), (85, "all"), (100, "all")])
    def test_resolutions_that_broke_batched_jacobi(self, resolution, criteria):
        grid = scan.grid_scan(resolution, criteria)
        on_line = np.flatnonzero(grid.j_index == 0)
        assert on_line.size == resolution + 1
        for row in on_line:
            g = grid.i_index[row] / resolution
            want = "3" if g <= 1 / 5 else ("2.1" if g <= 3 / 7 else "1")
            report = report_at(grid, int(row))
            assert report.exact
            assert report.possible_classes == (want,), (g, report.possible_classes)

    def test_sign_failure_names_the_grid_cell(self, monkeypatch):
        # a closed form that disagrees at one cell only, in the third chunk of four
        real = bipartite.ppt_closed_margins

        def flipped(g, w):
            hit = (g == 0.5) & (w == 0.25)
            return tuple(np.where(hit, -q, q) for q in real(g, w))

        monkeypatch.setattr(bipartite, "ppt_closed_margins", flipped)
        monkeypatch.setattr(scan, "CHUNK", 4)
        with pytest.raises(ConsistencyError, match=r"^ppt sign at \(g=0\.5, w=0\.25\)"):
            scan.grid_scan(4, "ppt")

    def test_rejects_resolution_over_the_cell_cap_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_CELLS"):
                scan.grid_scan(10**6, "all")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        largest = max(r for r in range(1, 2000) if (r + 1) * (r + 2) // 2 <= scan.MAX_CELLS)
        with pytest.raises(ValueError, match="MAX_CELLS"):
            scan.grid_scan(largest + 1, "ppt")

    def test_rejects_workers_below_one(self):
        with pytest.raises(ValueError, match="workers"):
            scan.grid_scan(5, "ppt", workers=0)

    def test_rejects_workers_that_are_not_integers(self):
        # refused before any thread starts, as a non-integer resolution is
        for workers in (1.5, 2.0, "2", True):
            with pytest.raises(ValueError, match=rf"^workers must be an integer, got {re.escape(repr(workers))}$"):
                scan.grid_scan(5, "ppt", workers=workers)

    def test_parallel_equals_sequential(self, monkeypatch):
        monkeypatch.setattr(scan, "CHUNK", SMALL_CHUNK)  # 231 cells in 8 chunks
        g1 = scan.grid_scan(20, "all", workers=1)
        g2 = scan.grid_scan(20, "all", workers=4)
        for cid in g1.criteria:
            assert np.array_equal(g1.margins[cid], g2.margins[cid]), cid
        assert np.array_equal(g1.possible, g2.possible)
        default = scan.grid_scan(20, "all")
        for cid in g1.criteria:
            assert default.margins[cid].tobytes() == g1.margins[cid].tobytes(), cid
        for field in ("possible", "slocc", "exact", "pptes"):
            assert np.array_equal(getattr(default, field), getattr(g1, field)), field

    def test_many_threads_fill_every_slice(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows: a chunk
        # written to the wrong slice, or lost, changes the bytes
        monkeypatch.setattr(scan, "CHUNK", 16)  # 496 cells in 31 chunks
        sequential = scan.grid_scan(30, "all", workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = scan.grid_scan(30, "all", workers=8)
        finally:
            sys.setswitchinterval(interval)
        for cid in sequential.criteria:
            assert threaded.margins[cid].tobytes() == sequential.margins[cid].tobytes(), cid

    def test_earliest_failing_chunk_is_raised(self, monkeypatch):
        # closed forms flipped at two cells in different chunks; the earlier cell's
        # chunk is slowed down, so on several threads the later chunk fails first
        real = bipartite.ppt_closed_margins
        early, late = (0.0, 0.125), (0.025, 0.05)  # cells 5 and 43: chunks 1 and 10
        chunks_run = []

        def flipped(g, w):
            chunks_run.append(g.size)
            at_early = (g == early[0]) & (w == early[1])
            if at_early.any():
                time.sleep(0.2)
            hit = at_early | ((g == late[0]) & (w == late[1]))
            return tuple(np.where(hit, -q, q) for q in real(g, w))

        monkeypatch.setattr(bipartite, "ppt_closed_margins", flipped)
        monkeypatch.setattr(scan, "CHUNK", 4)
        with pytest.raises(ConsistencyError, match=r"^ppt sign at \(g=0\.0, w=0\.125\)"):
            scan.grid_scan(40, "ppt")
        # on two threads, one sleeps in chunk 1 while the other runs chunks 0 and 2-10;
        # once chunk 10 has failed, neither thread starts any of the 205 chunks after it
        chunks_run.clear()
        with pytest.raises(ConsistencyError, match=r"^ppt sign at \(g=0\.0, w=0\.125\)"):
            scan.grid_scan(40, "ppt", workers=2)
        assert len(chunks_run) <= 11

    def test_selection_order_does_not_matter(self):
        a = scan.grid_scan(30, "gs3,ppt,maj,huber")
        b = scan.grid_scan(30, "huber,maj,ppt,gs3")
        assert set(a.criteria) == set(b.criteria)
        for cid in a.criteria:
            assert a.margins[cid].tobytes() == b.margins[cid].tobytes(), cid
            assert np.array_equal(a.codes[cid], b.codes[cid]), cid
        for field in ("possible", "slocc", "exact", "pptes"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_pptes_cells_present_at_modest_resolution(self):
        grid = scan.grid_scan(40, "ppt,gs3")
        pts = {(round(a, 10), round(b, 10)) for a, b in grid.pptes_points()}
        assert (0.2, 0.2) in pts


class TestBoundaryBisect:
    def test_ppt_g_axis(self):
        point = scan.boundary_bisect("ppt", ((0.0, 0.0), (1.0, 0.0)))
        assert abs(point.g - 0.2) < 1e-9

    def test_ppt_w_axis(self):
        point = scan.boundary_bisect("ppt", ((0.0, 0.0), (0.0, 1.0)))
        assert abs(point.w - (24 * math.sqrt(2) - 9) / 119) < 1e-8

    def test_gs2_w_axis(self):
        point = scan.boundary_bisect("gs2_w", ((0.0, 0.0), (0.0, 1.0)))
        assert abs(point.w - 9 / 17) < 1e-9

    def test_bracket_width_independence(self):
        wide = scan.boundary_bisect("ppt", ((0.0, 0.0), (1.0, 0.0)))
        narrow = scan.boundary_bisect("ppt", ((0.15, 0.0), (0.3, 0.0)))
        assert abs(wide.g - narrow.g) < 1e-9

    def test_endpoints_inside_marginal_band(self):
        # both endpoints sit within the band of the g = 1/5 crossing, off it by 1e-10
        inner, outer = (0.2 - 1e-10, 0.0), (0.2 + 1e-10, 0.0)
        for end in (inner, outer):
            assert 0.0 < abs(scan.point_margin("ppt", SimplexPoint(*end))) <= MARGINAL_BAND
        for ray in (((0.0, 0.0), outer), (inner, (1.0, 0.0)), (inner, outer)):
            assert abs(scan.boundary_bisect("ppt", ray).g - 0.2) < 1e-9

    def test_rejects_endpoint_with_zero_margin(self):
        assert scan.point_margin("ppt", SimplexPoint(0.2, 0.0)) == 0.0
        with pytest.raises(ValueError, match="change sign"):
            scan.boundary_bisect("ppt", ((0.0, 0.0), (0.2, 0.0)))

    def test_rejects_same_sign_endpoints(self):
        with pytest.raises(ValueError, match="change sign"):
            scan.boundary_bisect("ppt", ((0.0, 0.0), (0.1, 0.0)))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol, monkeypatch):
        calls = []
        monkeypatch.setattr(scan, "point_margin", lambda *args: calls.append(args) or 1.0)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            scan.boundary_bisect("gs2_w", ((0.0, 0.0), (0.0, 1.0)), tol=tol)
        assert calls == []

    def test_tolerance_below_float_spacing_stops_at_adjacent_floats(self, monkeypatch):
        # the bracket's ends become adjacent floats long before they are 1e-20 apart
        real, calls = scan.point_margin, []
        monkeypatch.setattr(scan, "point_margin", lambda *args: calls.append(args) or real(*args))
        point = scan.boundary_bisect("gs2_w", ((0.0, 0.0), (0.0, 1.0)), tol=1e-20)
        assert abs(point.w - 9 / 17) < 1e-15 and point.g == 0.0
        assert len(calls) < 60


class TestExports:
    def test_empty_criteria_csv_is_header_only(self, tmp_path):
        grid = scan.grid_scan(5, "")
        out = tmp_path / "empty.csv"
        scan.export_scan(lambda: grid, csv_path=out)
        assert out.read_text() == "g,w,criterion_id,verdict,margin\n"

    def test_csv_row_count_single_criterion(self, tmp_path):
        grid = scan.grid_scan(100, "ppt")
        out = tmp_path / "r.csv"
        scan.export_scan(lambda: grid, csv_path=out)
        lines = out.read_text().splitlines()
        assert len(lines) == 5151 + 1
        assert lines[0] == "g,w,criterion_id,verdict,margin"

    def test_csv_determinism_across_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scan, "CHUNK", SMALL_CHUNK)  # 136 cells in 5 chunks
        out = exports_across_workers(tmp_path, "csv", 15)
        assert out[1] == out[3]
        assert all(data == out[1] for data in out.values())

    def test_json_round_trip(self, tmp_path):
        grid = scan.grid_scan(6, "ppt,gs3,witness")
        out = tmp_path / "grid.json"
        scan.export_scan(lambda: grid, json_path=out)
        payload = scan.import_json(out)
        assert payload["schema_version"] == scan.SCHEMA_VERSION
        assert payload["reports"] == grid_report_dicts(grid)

    @pytest.mark.parametrize("text", ["[]", '[{"schema_version": 1}]', "1", "null"])
    def test_import_json_of_a_non_object_is_a_value_error(self, tmp_path, text):
        path = tmp_path / "not_an_export.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="holds an object"):
            scan.import_json(path)

    def test_json_determinism_across_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scan, "CHUNK", SMALL_CHUNK)  # 66 cells in 3 chunks
        out = exports_across_workers(tmp_path, "json", 10)
        assert out[1] == out[3]
        assert all(data == out[1] for data in out.values())

    def test_svg_contains_expected_elements(self, tmp_path):
        grid = scan.grid_scan(30, "ppt,gs3")
        out = tmp_path / "map.svg"
        scan.export_scan(lambda: grid, svg_path=out)
        text = out.read_text()
        assert text.startswith("<svg")
        assert "<rect" in text and "<path" in text
        assert "ppt" in text  # legend entry


    @pytest.mark.parametrize("resolution,selection", [(12, "all"), (25, "gs3,ppt"), (7, "")])
    def test_csv_and_json_match_loop_references(self, tmp_path, resolution, selection):
        grid = scan.grid_scan(resolution, selection)
        scan.export_scan(lambda: grid, csv_path=tmp_path / "a.csv")
        scan.export_scan(lambda: grid, json_path=tmp_path / "a.json")
        assert (tmp_path / "a.csv").read_text() == reference_csv(grid)
        assert (tmp_path / "a.json").read_text() == reference_json(grid)

    def test_csv_and_json_match_across_blocks(self, tmp_path, monkeypatch):
        grid = scan.grid_scan(12, "all")  # 91 cells
        monkeypatch.setattr(scan, "_BLOCK", 7)
        scan.export_scan(lambda: grid, csv_path=tmp_path / "a.csv")
        scan.export_scan(lambda: grid, json_path=tmp_path / "a.json")
        assert (tmp_path / "a.csv").read_text() == reference_csv(grid)
        assert (tmp_path / "a.json").read_text() == reference_json(grid)

    def test_one_pass_equals_each_file_written_alone(self, tmp_path, monkeypatch):
        grid = scan.grid_scan(12, "all")  # 91 cells
        monkeypatch.setattr(scan, "_BLOCK", 7)
        scan.export_scan(lambda: grid, tmp_path / "both.csv", tmp_path / "both.json")
        scan.export_scan(lambda: grid, csv_path=tmp_path / "alone.csv")
        scan.export_scan(lambda: grid, json_path=tmp_path / "alone.json")
        assert (tmp_path / "both.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
        assert (tmp_path / "both.json").read_bytes() == (tmp_path / "alone.json").read_bytes()

    def test_export_failing_mid_write_leaves_both_files_as_they_were(self, tmp_path, monkeypatch):
        grid = scan.grid_scan(12, "all")  # 91 cells
        monkeypatch.setattr(scan, "_BLOCK", 7)
        csv, json_ = tmp_path / "a.csv", tmp_path / "a.json"
        csv.write_bytes(b"earlier csv")
        json_.write_bytes(b"earlier json")
        real, blocks = scan._json_heads, []

        def failing(*args):  # the fourth block fails, after three have been written
            if len(blocks) == 3:
                raise OSError(28, "No space left on device")
            blocks.append(args)
            return real(*args)

        monkeypatch.setattr(scan, "_json_heads", failing)
        with pytest.raises(OSError, match="No space"):
            scan.export_scan(lambda: grid, csv, json_)
        assert csv.read_bytes() == b"earlier csv" and json_.read_bytes() == b"earlier json"
        assert sorted(tmp_path.iterdir()) == [csv, json_]

    def test_csv_and_json_to_one_file_raise_and_leave_it_as_it_was(self, tmp_path):
        grid = scan.grid_scan(6, "ppt")
        target = tmp_path / "P"
        target.write_bytes(b"earlier")
        (tmp_path / "link").symlink_to(target)
        for json_path in (target, tmp_path / "link"):
            with pytest.raises(ValueError, match="same file"):
                scan.export_scan(lambda: grid, target, json_path)
        assert target.read_bytes() == b"earlier"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["P", "link"]

    def test_export_replaces_files_and_writes_through_links(self, tmp_path):
        grid = scan.grid_scan(6, "ppt")
        (tmp_path / "target.csv").write_text("earlier")
        (tmp_path / "link.csv").symlink_to(tmp_path / "target.csv")
        scan.export_scan(lambda: grid, csv_path=tmp_path / "link.csv")
        scan.export_scan(lambda: grid, csv_path=tmp_path / "plain.csv")
        scan.export_scan(lambda: grid, svg_path=tmp_path / "map.svg")
        assert (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "target.csv").read_text() == reference_csv(grid)
        assert (tmp_path / "plain.csv").read_text() == reference_csv(grid)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.csv", "map.svg", "plain.csv", "target.csv"
        ]

    def test_temporary_file_never_follows_a_planted_link(self, tmp_path):
        # a link planted at the first temporary name must not be written through
        grid = scan.grid_scan(4, "ppt")
        victim = tmp_path / "victim"
        victim.write_text("not an export\n")
        target = tmp_path / "a.csv"
        (tmp_path / f"a.csv.{os.getpid()}.tmp").symlink_to(victim)
        scan.export_scan(lambda: grid, csv_path=target)
        assert victim.read_text() == "not an export\n"
        assert target.read_text() == reference_csv(grid)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", f"a.csv.{os.getpid()}.tmp", "victim"]

    def test_temporary_file_gets_the_mode_of_a_new_file(self, tmp_path):
        grid = scan.grid_scan(4, "ppt")
        old = os.umask(0o027)
        try:
            scan.export_scan(lambda: grid, csv_path=tmp_path / "a.csv")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "a.csv").stat().st_mode) == 0o640

    def test_no_free_temporary_name_is_an_error_that_leaves_the_target(self, tmp_path, monkeypatch):
        grid = scan.grid_scan(4, "ppt")
        target = tmp_path / "a.csv"
        target.write_text("earlier")
        monkeypatch.setattr(scan.os, "urandom", lambda size: b"\0" * size)
        for name in (f"a.csv.{os.getpid()}.tmp", f"a.csv.{os.getpid()}.00000000.tmp"):
            (tmp_path / name).write_text("leftover")
        with pytest.raises(FileExistsError) as info:
            scan.export_scan(lambda: grid, csv_path=target)
        assert info.value.filename == target
        assert target.read_text() == "earlier"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.csv", f"a.csv.{os.getpid()}.00000000.tmp", f"a.csv.{os.getpid()}.tmp"]

    def test_failed_scan_leaves_every_target_as_it_was(self, tmp_path):
        # the targets are opened before the scan; a link's file is emptied only after it
        for name in ("target.csv", "a.json", "m.svg"):
            (tmp_path / name).write_text("an earlier export, longer than a scan of one cell\n" * 40)
        (tmp_path / "link.csv").symlink_to(tmp_path / "target.csv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        paths = (tmp_path / "link.csv", tmp_path / "a.json", tmp_path / "m.svg")

        def failing():
            raise MemoryError("scan failed")

        with pytest.raises(MemoryError):
            scan.export_scan(failing, *paths)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        grid = scan.grid_scan(6, "ppt")
        assert scan.export_scan(lambda: grid, *paths) is grid
        assert (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "target.csv").read_text() == reference_csv(grid)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_csv_floats_are_lossless(self, data):
        # every CSV float is repr(value), parses back to the same bits, and, where finite,
        # is the text the JSON has for the same cell
        grid = small_grid()
        special = st.sampled_from(
            [-0.0, 0.0, 5e-324, -2.225073858507201e-308, math.inf, -math.inf, math.nan]
        )
        value = st.one_of(special, st.floats(width=64), st.floats(1e16, 1e17, exclude_max=True))
        cells = st.lists(value, min_size=grid.cell_count, max_size=grid.cell_count)
        margins = {cid: np.array(data.draw(cells, label=cid)) for cid in grid.criteria}
        grid = dataclasses.replace(grid, margins=margins)
        with tempfile.TemporaryDirectory() as tmp:
            scan.export_scan(lambda: grid, f"{tmp}/a.csv", f"{tmp}/a.json")
            with open(f"{tmp}/a.csv") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            with open(f"{tmp}/a.json") as fh:
                json_text = fh.read()
        json_margins = re.findall(r'"margin":([^}]*)}', json_text)
        json_cells = re.findall(r'\{"g":([^,]*),"w":([^,]*),', json_text)
        expected = [
            (grid.g[n], grid.w[n], cid, margins[cid][n])
            for n in range(grid.cell_count) for cid in grid.criteria
        ]
        assert len(rows) == len(expected) == len(json_margins)
        for row, (g, w, cid, value), json_margin in zip(rows, expected, json_margins):
            assert row[2] == cid
            for field, want in ((row[0], g), (row[1], w), (row[4], value)):
                assert field == repr(float(want))
                got = float(field)
                assert struct.pack("<d", got) == struct.pack("<d", want) or (
                    math.isnan(got) and math.isnan(want)
                )
            if math.isfinite(value):
                assert row[4] == json_margin
        k = len(grid.criteria)
        assert [(row[0], row[1]) for row in rows[::k]] == json_cells

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.sampled_from(REPR_EDGES),
            ),
            max_size=60,
        ),
        columns=st.integers(1, 5),
    )
    def test_reprs_is_float_repr(self, values, columns):
        flat = np.array(values + REPR_EDGES, dtype=float)
        cells = flat.size // columns
        for block in (np.empty(0), flat, flat[: cells * columns].reshape(cells, columns)):
            text = scan._reprs(block)
            assert text.shape == block.shape and text.dtype == object
            assert text.ravel().tolist() == [float.__repr__(v) for v in block.ravel().tolist()]

    def test_nonfinite_margins_written_as_json_writes_them(self, tmp_path):
        grid = scan.grid_scan(6, "ppt,gs3,w_w1")
        for k, value in enumerate((math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22)):
            grid.margins["gs3"][k] = value
        scan.export_scan(lambda: grid, csv_path=tmp_path / "a.csv")
        scan.export_scan(lambda: grid, json_path=tmp_path / "a.json")
        assert (tmp_path / "a.csv").read_text() == reference_csv(grid)
        text = (tmp_path / "a.json").read_text()
        assert text == reference_json(grid)
        assert '"margin":NaN' in text and '"margin":Infinity' in text and '"margin":-Infinity' in text
        csv_margins = [row.rsplit(",", 1)[1] for row in (tmp_path / "a.csv").read_text().splitlines()]
        assert {"nan", "inf", "-inf"} <= set(csv_margins)

    def test_empty_criteria_json_and_svg(self, tmp_path):
        grid = scan.grid_scan(5, "")
        scan.export_scan(lambda: grid, json_path=tmp_path / "e.json")
        assert (tmp_path / "e.json").read_text() == reference_json(grid)
        payload = scan.import_json(tmp_path / "e.json")
        assert payload["criteria"] == [] and len(payload["reports"]) == 21
        assert all(report["criteria"] == {} for report in payload["reports"])
        scan.export_scan(lambda: grid, svg_path=tmp_path / "e.svg")
        text = (tmp_path / "e.svg").read_text()
        assert text.count("<path") == 1  # the simplex outline, no isolines
        assert "<rect" in text

    @pytest.mark.parametrize("resolution,selection", [(12, "all"), (25, "gs3,ppt"), (7, "")])
    def test_svg_fills_match_loop_reference(self, tmp_path, resolution, selection):
        grid = scan.grid_scan(resolution, selection)
        scan.export_scan(lambda: grid, svg_path=tmp_path / "m.svg")
        rects = [line for line in (tmp_path / "m.svg").read_text().splitlines()
                 if line.startswith("<rect") and 'fill="white"' not in line]
        assert rects == reference_fill_rects(grid)

    def test_svg_isoline_paths_match_per_segment_reference(self, tmp_path):
        # each criterion's path, built the way the map was once drawn: one f-string per segment
        grid = scan.grid_scan(40, "all")
        scan.export_scan(lambda: grid, svg_path=tmp_path / "m.svg")
        size, pad = 640.0, 60.0
        scale = size - 2 * pad
        expected = [
            " ".join(
                f"M {pad + a[0] * scale:.2f} {size - pad - a[1] * scale:.2f} "
                f"L {pad + b[0] * scale:.2f} {size - pad - b[1] * scale:.2f}"
                for a, b in reference_isolines(grid, cid)
            )
            for cid in grid.criteria
        ]
        paths = re.findall(r'<path d="([^"]*)" fill="none" stroke="#', (tmp_path / "m.svg").read_text())
        assert paths == [d for d in expected if d]
        assert len(paths) >= 40

    def test_svg_memory_stays_below_one_criteria_by_lattice_array(self, tmp_path):
        # the isolines of all criteria come from one field buffer, never an array that
        # holds every criterion's margins over the lattice at once
        grid = scan.grid_scan(200, "all")
        tracemalloc.start()
        try:
            scan.export_scan(lambda: grid, svg_path=tmp_path / "m.svg")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(grid.criteria) * grid.cell_count * 8

    def test_svg_determinism_across_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scan, "CHUNK", SMALL_CHUNK)  # 136 cells in 5 chunks
        out = exports_across_workers(tmp_path, "svg", 15)
        assert out[1] == out[3]
        assert all(data == out[1] for data in out.values())

class TestMarchingSquares:
    def test_ppt_isoline_crosses_g_axis_near_one_fifth(self):
        grid = scan.grid_scan(200, "ppt")
        segments = isolines_of(grid, "ppt")
        assert segments
        near_axis = [
            seg for seg in segments
            if min(seg[0][1], seg[1][1]) < 0.01
        ]
        assert near_axis
        crossings = [max(seg[0][0], seg[1][0]) for seg in near_axis]
        assert any(0.195 < g < 0.205 for g in crossings)

    def test_no_isolines_for_constant_sign_field(self):
        grid = scan.grid_scan(20, "w_w1")
        # restrict to a region where the witness stays positive: rescan small corner
        segments = isolines_of(grid, "w_w1")
        for (a, b) in segments:
            # every segment must sit on the actual zero line 13 + 3g - 21w = 0
            for gg, ww in (a, b):
                assert abs(13 + 3 * gg - 21 * ww) < 0.5

    @pytest.mark.parametrize("resolution", [20, 40])
    def test_matches_loop_reference_on_every_criterion(self, resolution):
        # the all-criteria pass equals the one-cell-at-a-time reference, criterion by criterion
        grid = scan.grid_scan(resolution, "all")
        together = scan._isolines(grid, grid.criteria)
        assert len(together) == len(grid.criteria)
        for cid, segments in zip(grid.criteria, together):
            reference = reference_isolines(grid, cid)
            assert segments.tolist() == [[*a, *b] for a, b in reference], cid
            alone = isolines_of(grid, cid)
            assert alone == reference, cid
            assert all(type(x) is float for seg in alone for pt in seg for x in pt), cid
        assert scan._isolines(grid, ()) == []
        # a selection in another order gives the same segments per criterion
        backwards = scan._isolines(grid, grid.criteria[::-1])
        assert [s.tolist() for s in backwards] == [s.tolist() for s in together[::-1]]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_loop_reference_on_random_fields(self, data):
        # several fields in one pass; no segment may move from one field to another
        n = data.draw(st.integers(2, 7), label="resolution")
        cells = (n + 1) * (n + 2) // 2
        fields, signs = {}, {}
        for k in range(data.draw(st.integers(1, 4), label="fields")):
            sign = data.draw(st.sampled_from([None, 1.0, -1.0]), label="constant sign")
            if sign is None:
                # few distinct values, so exact zeros, ties and saddles are common
                value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, math.nan])
                value = st.one_of(value, st.floats(-4.0, 4.0))
            else:
                value = st.floats(0.25, 4.0).map(lambda v, sign=sign: sign * v)
            fields[f"f{k}"] = data.draw(st.lists(value, min_size=cells, max_size=cells), label="field")
            signs[f"f{k}"] = sign
        grid = field_grid(fields["f0"], n)
        grid.margins = {name: np.asarray(values, dtype=float) for name, values in fields.items()}
        together = scan._isolines(grid, tuple(fields))
        assert len(together) == len(fields)
        for name, segments in zip(fields, together):
            reference = reference_isolines(grid, name)
            assert segments.tolist() == [[*a, *b] for a, b in reference], name
            assert isolines_of(grid, name) == reference, name
            if signs[name] is not None:
                assert reference == []

    def test_saddle_pairs_by_centre_sign(self):
        # resolution 2 has one whole cell, corners (0,0), (1,0), (1,1), (0,1) at spacing 1/2;
        # the NaN at (2,0) and (0,2) keeps its two half-cells out of the picture
        for corner_values, partner_g in (((1.5, -1.0, 1.5, -1.0), 0.0), ((1.0, -1.5, 1.0, -1.5), 0.5)):
            field = np.full((3, 3), np.nan)
            field[0, 0], field[1, 0], field[1, 1], field[0, 1] = corner_values
            grid = field_grid([field[i, j] for i in range(3) for j in range(3 - i)], 2)
            segments = isolines_of(grid, "f")
            assert segments == reference_isolines(grid, "f"), corner_values
            # the first segment starts on the bottom edge; a positive centre (like corner 0)
            # joins it to the left edge, a negative one to the right edge
            (start, end), _ = segments
            assert start[1] == 0.0 and end[0] == partner_g, corner_values

    def test_zero_corner_counts_once(self):
        # corner (1,0) of the one whole cell is exactly zero; the NaN at (2,0) and (0,2)
        # keeps its two half-cells out of the picture
        def segments_of(c0, c1, c2, c3):
            field = np.full((3, 3), np.nan)
            field[0, 0], field[1, 0], field[1, 1], field[0, 1] = c0, c1, c2, c3
            grid = field_grid([field[i, j] for i in range(3) for j in range(3 - i)], 2)
            segments = isolines_of(grid, "f")
            assert segments == reference_isolines(grid, "f")
            return segments

        # the zero line passes through the corner: one segment from it
        assert segments_of(1.0, 0.0, -1.0, 1.0) == [((0.5, 0.0), (0.25, 0.5))]
        # the corner only touches the zero line: the segment joins the other crossings
        assert segments_of(1.0, 0.0, 1.0, -1.0) == [((0.25, 0.5), (0.0, 0.25))]
        assert segments_of(-1.0, 0.0, -1.0, 1.0) == [((0.25, 0.5), (0.0, 0.25))]
        # every other corner of one sign: the corner is the whole zero set in the cell
        assert segments_of(1.0, 0.0, 1.0, 1.0) == [((0.5, 0.0), (0.5, 0.0))]

    def test_isolines_reach_the_g_plus_w_edge(self):
        # every sign change between neighbouring lattice points on g + w = 1 is crossed by an
        # isoline, which therefore has an endpoint on the edge between those two points
        n = 40
        grid = scan.grid_scan(n, "all")
        sign_changes = 0
        for cid in grid.criteria:
            edge = np.array([grid.margins[cid][flat_index(grid, i, n - i)] for i in range(n + 1)])
            ends = [pt for seg in isolines_of(grid, cid) for pt in seg
                    if abs(pt[0] + pt[1] - 1.0) < 1e-12]
            for i in np.nonzero(np.sign(edge[:-1]) * np.sign(edge[1:]) < 0)[0]:
                sign_changes += 1
                assert any(i / n <= g <= (i + 1) / n for g, _ in ends), (cid, i)
        assert sign_changes >= 20

    @staticmethod
    def half_cell_segments(c0, c1, c3):
        # resolution 2: NaN at (0,1) and (0,2) leaves only the half-cell with corners
        # (1,0), (2,0), (1,1)
        field = np.full((3, 3), np.nan)
        field[0, 0], field[1, 0], field[2, 0], field[1, 1] = 1.0, c0, c1, c3
        grid = field_grid([field[i, j] for i in range(3) for j in range(3 - i)], 2)
        segments = isolines_of(grid, "f")
        assert segments == reference_isolines(grid, "f")
        return segments

    def test_half_cell_zero_corner_counts_once(self):
        # the half-cell's corner (2,0) on g + w = 1 is exactly zero
        segments_of = self.half_cell_segments
        # the zero line passes through the corner: one segment from it
        assert segments_of(1.0, 0.0, -1.0) == [((1.0, 0.0), (0.5, 0.25))]
        # the other corners of one sign: the corner is the whole zero set in the half-cell
        assert segments_of(1.0, 0.0, 1.0) == [((1.0, 0.0), (1.0, 0.0))]
        # a sign change along the edge itself: the segment ends on it
        assert segments_of(1.0, 1.0, -1.0) == [((0.75, 0.25), (0.5, 0.25))]

    def test_half_cell_zero_on_the_degenerate_corner_counts_once(self):
        # the zero is at (1,1), corner 3 of the half-cell and also its degenerate corner 2:
        # edges 1 and 3 both cross there, across the zero-length edge 2
        segments_of = self.half_cell_segments
        assert segments_of(1.0, -1.0, 0.0) == [((0.75, 0.0), (0.5, 0.5))]
        assert segments_of(1.0, 1.0, 0.0) == [((0.5, 0.5), (0.5, 0.5))]
        assert segments_of(-1.0, -1.0, 0.0) == [((0.5, 0.5), (0.5, 0.5))]

    def test_ppt_isoline_ends_on_the_published_point(self):
        # ppt vanishes exactly at (1/5, 0), a lattice point at resolution 40
        grid = scan.grid_scan(40, "ppt")
        assert grid.margins["ppt"][flat_index(grid, 8, 0)] == 0.0
        segments = isolines_of(grid, "ppt")
        assert any((0.2, 0.0) in (a, b) and a != b for a, b in segments)
