import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsep import bipartite, classify, criteria, scan, tripartite
from qsep.config import MARGINAL_BAND
from qsep.exceptions import ConsistencyError
from qsep.states import SimplexPoint

# per-point reference paths (explicit matrices, swap operators, kron observables),
# one criterion of every registry group
REFERENCE_MARGINS = {
    "maj_rho23": lambda p: bipartite.criterion_majorization(p)[1].margin,
    "entropy_rho1_a2": lambda p: bipartite.criterion_entropy(p, 2.0)[0].margin,
    "ppt": lambda p: bipartite.criterion_ppt(p).margin,
    "reduction": lambda p: bipartite.criterion_reduction(p).margin,
    "resh24": lambda p: bipartite.criterion_reshuffling_24(p).margin,
    "perm222": lambda p: tripartite.criterion_permutation_222(p).margin,
    "su2_set1": lambda p: tripartite.criterion_su(p, (tripartite.SETTING_I,) * 3, "2sep").margin,
    "su283_set2": lambda p: tripartite.criterion_su(
        p, (tripartite.SETTING_II,) * 3, "28cap3").margin,
    "su3_set3": lambda p: tripartite.criterion_su(p, (tripartite.SETTING_III,) * 3, "3sep").margin,
    "huber_ghz_k2": lambda p: tripartite.criterion_huber(p, tripartite.phi_ghz(), 2).margin,
    "huber_w_k3": lambda p: tripartite.criterion_huber(p, tripartite.phi_w(), 3).margin,
    "gs2_w": lambda p: tripartite.criterion_gs_biseparable(p).parts["gs2_w"],
    "gs3": lambda p: tripartite.criterion_gs_fullsep(p).margin,
    "w_w1": lambda p: tripartite.witness_expectations(p)["w_w1"],
}


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

    def test_margins_match_per_point_path(self):
        grid = scan.grid_scan(10, "all")
        for i, j in ((2, 3), (0, 0), (10, 0), (4, 4)):
            n = grid.flat_index(i, j)
            p = SimplexPoint(i / 10, j / 10)
            for cid, reference in REFERENCE_MARGINS.items():
                assert abs(grid.margins[cid][n] - reference(p)) < 1e-11, (i, j, cid)

    def test_classification_matches_classify_point(self):
        grid = scan.grid_scan(8, "all")
        for i, j in ((0, 0), (2, 2), (8, 0), (3, 5), (1, 6)):
            report_grid = grid.report_at(grid.flat_index(i, j))
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
            assert report == grid.report_at(n)

    @pytest.mark.parametrize("resolution,criteria", [(50, "perm222"), (85, "all"), (100, "all")])
    def test_resolutions_that_broke_batched_jacobi(self, resolution, criteria):
        grid = scan.grid_scan(resolution, criteria)
        on_line = np.flatnonzero(grid.j_index == 0)
        assert on_line.size == resolution + 1
        for row in on_line:
            g = grid.i_index[row] / resolution
            want = "3" if g <= 1 / 5 else ("2.1" if g <= 3 / 7 else "1")
            report = grid.report_at(int(row))
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
        with pytest.raises(ConsistencyError, match=r"^ppt at \(g=0\.5, w=0\.25\)"):
            scan.grid_scan(4, "ppt")

    def test_rejects_workers_below_one(self):
        with pytest.raises(ValueError, match="workers"):
            scan.grid_scan(5, "ppt", workers=0)

    def test_parallel_equals_sequential(self):
        g1 = scan.grid_scan(20, "all", workers=1)
        g2 = scan.grid_scan(20, "all", workers=4)
        for cid in g1.criteria:
            assert np.array_equal(g1.margins[cid], g2.margins[cid]), cid
        assert np.array_equal(g1.possible, g2.possible)

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


class TestExports:
    def test_empty_criteria_csv_is_header_only(self, tmp_path):
        grid = scan.grid_scan(5, "")
        out = tmp_path / "empty.csv"
        scan.export(grid, "csv", out)
        assert out.read_text() == "g,w,criterion_id,verdict,margin\n"

    def test_csv_row_count_single_criterion(self, tmp_path):
        grid = scan.grid_scan(100, "ppt")
        out = tmp_path / "r.csv"
        scan.export(grid, "csv", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 5151 + 1
        assert lines[0] == "g,w,criterion_id,verdict,margin"

    def test_csv_determinism_across_workers(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        scan.export(scan.grid_scan(15, "all", workers=1), "csv", a)
        scan.export(scan.grid_scan(15, "all", workers=3), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        grid = scan.grid_scan(6, "ppt,gs3,witness")
        out = tmp_path / "grid.json"
        scan.export(grid, "json", out)
        payload = scan.import_json(out)
        assert payload["schema_version"] == scan.SCHEMA_VERSION
        assert payload["reports"] == scan.grid_report_dicts(grid)

    def test_json_determinism_across_workers(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        scan.export(scan.grid_scan(10, "all", workers=1), "json", a)
        scan.export(scan.grid_scan(10, "all", workers=3), "json", b)
        assert a.read_bytes() == b.read_bytes()

    def test_svg_contains_expected_elements(self, tmp_path):
        grid = scan.grid_scan(30, "ppt,gs3")
        out = tmp_path / "map.svg"
        scan.export(grid, "svg", out)
        text = out.read_text()
        assert text.startswith("<svg")
        assert "<rect" in text and "<path" in text
        assert "ppt" in text  # legend entry

    def test_unknown_format_rejected(self, tmp_path):
        grid = scan.grid_scan(5, "ppt")
        with pytest.raises(ValueError, match="format"):
            scan.export(grid, "pdf", tmp_path / "x.pdf")


class TestMarchingSquares:
    def test_ppt_isoline_crosses_g_axis_near_one_fifth(self):
        grid = scan.grid_scan(200, "ppt")
        segments = scan.margin_isolines(grid, "ppt")
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
        segments = scan.margin_isolines(grid, "w_w1")
        for (a, b) in segments:
            # every segment must sit on the actual zero line 13 + 3g - 21w = 0
            for gg, ww in (a, b):
                assert abs(13 + 3 * gg - 21 * ww) < 0.5
