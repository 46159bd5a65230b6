"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The "2,500 uniform simplex points" are realized as the 2,556-point
triangular lattice at resolution 70 (the smallest lattice above 2,500),
including the pure-state edge.  Run with -s to see the status lines.
"""

import functools
import math

import numpy as np
import pytest

from qsep import bipartite, classify, concurrence, criteria, linalg, scan, states, tripartite
from qsep.config import MARGINAL_BAND
from qsep.states import SimplexPoint
from test_tripartite import gs3_deduplicated_signatures, gs3_generate_families

RESOLUTION = 70


def _code(margins):
    margins = np.asarray(margins, dtype=float)
    return (margins > MARGINAL_BAND).astype(np.int8) - (margins < -MARGINAL_BAND).astype(np.int8)


def slocc(g, w):
    return classify.classify_point(SimplexPoint(g, w)).slocc


def _status(number: int, description: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number:2d} FAIL  {description}")
                raise
            print(f"acceptance {number:2d} PASS  {description}")

        return wrapper

    return decorator


@pytest.fixture(scope="module")
def lattice():
    n = RESOLUTION
    i = np.concatenate([np.full(n + 1 - k, k) for k in range(n + 1)])
    j = np.concatenate([np.arange(n + 1 - k) for k in range(n + 1)])
    return i / n, j / n


@pytest.fixture(scope="module")
def spectra(lattice):
    g, w = lattice
    closed = states.closed_form_spectra_grid(g, w)
    forms = states.evaluate_forms(g, w)
    numeric = {
        "rho": linalg.jacobi_eigh(states.build_rho_grid(g, w)),
        "rho23": linalg.jacobi_eigh(states.MARGINAL_23_BLOCKS.family(forms)),
        "rho1": linalg.jacobi_eigh(states.MARGINAL_1_BLOCKS.family(forms)),
        "rho_t1": linalg.jacobi_eigh(
            linalg.permute_indices(states.build_rho_grid(g, w), linalg.TRANSPOSE_1_PERM)),
        "i_rho23": linalg.jacobi_eigh(states.REDUCTION_I123_BLOCKS.family(forms)),
        "red1_i23": linalg.jacobi_eigh(states.REDUCTION_1I23_BLOCKS.family(forms)),
    }
    omega = states.MARGINAL_23_BLOCKS.family(forms)
    roots = linalg.psd_sqrt(omega)
    sy2 = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
    product = roots @ (sy2 @ np.conj(omega) @ sy2) @ roots
    product = (product + np.conj(np.swapaxes(product, -1, -2))) / 2.0
    numeric["conc23"] = np.clip(linalg.jacobi_eigh(product), 0.0, None)
    return closed, numeric


@_status(1, "closed-form spectra match the eigensolver to 1e-10 at 2,556 points")
def test_01_closed_form_spectra(spectra):
    closed, numeric = spectra
    pairs = (
        ("rho", "rho"), ("rho23", "rho23"), ("rho1", "rho1"), ("rho_t1", "rho_t1"),
        ("i_rho23", "rho_t1"), ("red1_i23", "red1_i23"), ("conc23", "conc23"),
    )
    for num_key, closed_key in pairs:
        deviation = float(np.max(np.abs(numeric[num_key] - closed[closed_key])))
        assert deviation <= 1e-10, (num_key, deviation)


@_status(2, "PPT boundary constants g=1/5 (1e-9) and w=(24*sqrt(2)-9)/119 (1e-8)")
def test_02_ppt_boundary_constants():
    on_g = scan.boundary_bisect("ppt", ((0.0, 0.0), (1.0, 0.0)))
    assert abs(on_g.g - 0.2) <= 1e-9
    on_w = scan.boundary_bisect("ppt", ((0.0, 0.0), (0.0, 1.0)))
    assert abs(on_w.w - (24.0 * math.sqrt(2.0) - 9.0) / 119.0) <= 1e-8


@_status(3, "reduction and PPT verdicts identical; reduction spectrum equals PT spectrum")
def test_03_reduction_equals_ppt(spectra):
    _, numeric = spectra
    assert float(np.max(np.abs(numeric["i_rho23"] - numeric["rho_t1"]))) <= 1e-10
    ppt_codes = _code(numeric["rho_t1"][:, -1])
    red_codes = _code(np.minimum(numeric["i_rho23"][:, -1], numeric["red1_i23"][:, -1]))
    assert np.array_equal(ppt_codes, red_codes)


@_status(4, "reshuffling singular values match p1/p2 closed forms to 1e-10")
def test_04_reshuffling_closed_forms(lattice):
    g, w = lattice
    numeric = linalg.singular_values(states.reshuffle_24_matrix(states.build_rho_grid(g, w)))
    closed = bipartite.reshuffle24_closed_singular_values(g, w)
    assert float(np.max(np.abs(numeric - closed))) <= 1e-10
    white = linalg.trace_norm(states.reshuffle_24_matrix(states.build_rho(SimplexPoint(0.0, 0.0))))
    assert abs(white - 2.0 ** (-1.5)) <= 1e-10
    ghz = linalg.trace_norm(states.reshuffle_24_matrix(states.build_rho(SimplexPoint(1.0, 0.0))))
    assert abs(ghz - 2.0) <= 1e-10


@_status(5, "majorization and PPT borders intersect at (2/13, 3/13) and (1/5, 0)")
def test_05_border_intersections():
    targets = (
        (SimplexPoint(2 / 13, 3 / 13), ((0.0, 0.0), (4 / 13, 6 / 13))),
        (SimplexPoint(1 / 5, 0.0), ((0.0, 0.0), (0.5, 0.0))),
    )
    for point, ray in targets:
        for cid in ("maj_rho23", "ppt"):
            assert abs(scan.point_margin(cid, point)) <= 1e-8, (cid, point)
            crossing = scan.boundary_bisect(cid, ray)
            distance = math.hypot(crossing.g - point.g, crossing.w - point.w)
            assert distance <= 1e-8, (cid, point, crossing)


@_status(6, "entropy criterion never beats majorization; Hartley detects only the d=0 edge")
def test_06_entropy_dominance(lattice, spectra):
    g, w = lattice
    closed, numeric = spectra
    m1, m23 = bipartite.majorization_margins_from_spectra(numeric)
    maj_holds = (m1 > MARGINAL_BAND) & (m23 > MARGINAL_BAND)
    hartley_violated = np.zeros(g.size, dtype=bool)
    values = bipartite.entropy_values(g, w, closed)
    for alpha, (e1, e23) in bipartite.entropy_margins(values, bipartite.ALPHA_GRID).items():
        assert np.all(e1[maj_holds] >= -MARGINAL_BAND), alpha
        assert np.all(e23[maj_holds] >= -MARGINAL_BAND), alpha
        if alpha == 0.0:
            hartley_violated = (e1 < -MARGINAL_BAND) | (e23 < -MARGINAL_BAND)
    on_edge = g + w >= 1.0 - 1e-12
    assert np.array_equal(hartley_violated, on_edge)


@_status(7, "spin-criteria closed forms agree; boundaries 3/5 and 3/11; III == II for 28cap3")
def test_07_spin_criteria(lattice):
    g, w = lattice
    # raises ConsistencyError on any sign disagreement with the closed forms
    batch = criteria.Batch(g, w)
    by_id = batch.evaluate(tuple(criteria.SPIN))
    assert {f"{cid} sign" for cid in criteria.SPIN} <= set(batch.deviations)
    margins = {criteria.SPIN[cid]: value for cid, value in by_id.items()}
    crossing = scan.boundary_bisect("su2_set2", ((0.0, 0.0), (0.0, 1.0)))
    assert abs(crossing.w - 3.0 / 5.0) <= 1e-9
    crossing = scan.boundary_bisect("su283_set2", ((0.0, 0.0), (0.0, 1.0)))
    assert abs(crossing.w - 3.0 / 11.0) <= 1e-9
    assert np.array_equal(_code(margins[(1, "28cap3")]), _code(margins[(2, "28cap3")]))


@_status(8, "swap criterion with the two detection vectors reproduces Settings I/II")
def test_08_huber_su_equivalence(lattice):
    g, w = lattice
    pairings = (
        ("ghz", 2, 0, "2sep"),
        ("ghz", 3, 0, "28cap3"),
        ("w", 2, 1, "2sep"),
        ("w", 3, 1, "28cap3"),
    )
    phis = {"ghz": tripartite.phi_ghz(), "w": tripartite.phi_w()}
    sample = np.arange(g.size)
    for tag, k, setting_idx, level in pairings:
        closed = np.asarray(tripartite.su_closed_margin(g, w, setting_idx, level))
        closed_codes = _code(closed)
        hub_margins = np.array(
            [
                tripartite.criterion_huber(SimplexPoint(g[n], w[n]), phis[tag], k)
                for n in sample
            ]
        )
        hub_codes = _code(hub_margins)
        mismatch = (hub_codes != closed_codes) & (hub_codes != 0) & (closed_codes != 0)
        assert not np.any(mismatch), (tag, k, int(np.sum(mismatch)))


@_status(9, "matrix-element criteria: 9/17 bound, 13-member family, PPTES point")
def test_09_gs_criteria():
    crossing = scan.boundary_bisect("gs2_w", ((0.0, 0.0), (0.0, 1.0)))
    assert abs(crossing.w - 9.0 / 17.0) <= 1e-9
    sixth, fourth = gs3_generate_families()
    assert len(sixth) == 28 and len(fourth) == 12
    six_sigs, four_sigs = gs3_deduplicated_signatures()
    assert six_sigs == {tripartite._class_signature(ms) for ms in tripartite.GS3_SIXTH}
    assert four_sigs == {tripartite._class_signature(ms) for ms in tripartite.GS3_FOURTH}
    assert len(six_sigs) + len(four_sigs) == 13
    point = SimplexPoint(0.2, 0.2)
    members = tripartite.gs3_element_margins(states.build_rho(point))
    assert members["gs3_four_0356"] < -MARGINAL_BAND
    assert scan.point_margin("gs3", point) < -MARGINAL_BAND
    assert scan.point_margin("ppt", point) > MARGINAL_BAND
    assert float(np.max(np.abs(states.build_rho(point) * 120.0 - states.PPTES_NUMERATOR))) <= 1e-13


@pytest.fixture(scope="module")
def full_scan_400():
    return scan.grid_scan(400, "all")


@_status(10, "resolution-400 scan flags a nonempty PPTES set containing (0.2, 0.2)")
def test_10_pptes_region(full_scan_400):
    grid = full_scan_400
    flagged = grid.pptes
    assert np.any(flagged)
    hit = flagged & np.isclose(grid.g, 0.2, atol=1e-12) & np.isclose(grid.w, 0.2, atol=1e-12)
    assert np.any(hit)


@_status(11, "witness traces match closed forms to 1e-12; GHZ triangle honored")
def test_11_witnesses(lattice):
    g, w = lattice
    rho_grid = states.build_rho_grid(g, w)
    closed = tripartite.witness_closed_forms(g, w)
    for name, matrix in tripartite.witness_matrices().items():
        numeric = np.einsum("ij,nji->n", matrix, rho_grid).real
        assert float(np.max(np.abs(numeric - closed[name]))) <= 1e-12, name
    assert abs(scan.point_margin("w_ghz", SimplexPoint(1.0, 0.0)) + 0.25) <= 1e-12
    assert abs(tripartite.G0 - 0.626851) <= 1e-6
    eps = 5e-4
    g0 = tripartite.G0
    assert slocc(1.0, 0.0) == classify.GHZ_TYPE
    assert slocc(g0 - eps, 1.0 - g0 + eps) == classify.W_TYPE_OR_LESS
    assert slocc(g0 + eps, 1.0 - g0 - eps) == classify.SLOCC_UNDETERMINED
    # triangle vertex on the w=0 edge: outside for g below 3/7
    assert slocc(3.0 / 7.0 - 1e-3, 0.0) == classify.W_TYPE_OR_LESS
    assert slocc(3.0 / 7.0 + 1e-3, 0.0) == classify.SLOCC_UNDETERMINED


@_status(12, "concurrence closed form equals numeric to 1e-9; published values and gate")
def test_12_concurrence(lattice, spectra):
    g, w = lattice
    _, numeric = spectra
    lam = np.sqrt(numeric["conc23"])
    numeric_conc = np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, None)
    closed = concurrence.concurrence_23_closed(g, w)
    assert float(np.max(np.abs(numeric_conc - closed))) <= 1e-9
    _, at_pure = criteria.Batch(np.array([0.0, 1.0]), np.array([1.0, 0.0])).concurrence
    assert abs(at_pure[0] - 2 / 3) <= 1e-12
    assert at_pure[1] == 0.0
    gate = concurrence.concurrence_gate(g, w)
    assert np.all(numeric_conc[gate < 0.0] <= 1e-9)
    assert np.all(np.asarray(closed)[gate < 0.0] == 0.0)


@_status(13, "classification on the w=0 line matches the exact three-way split")
def test_13_exact_w0_line():
    expected = {0.1: "3", 0.2: "3", 0.3: "2.1", 3 / 7: "2.1", 0.5: "1", 1.0: "1"}
    for g, cls in expected.items():
        report = classify.classify_point(SimplexPoint(g, 0.0))
        assert report.exact
        assert report.possible_classes == (cls,), (g, report.possible_classes)


@_status(14, "published example states: class21 is NPT, class28(a=2) is PPT")
def test_14_appendix_examples():
    class21 = states.example_states("class21")
    vals = linalg.hermitian_eigenvalues(
        linalg.permute_indices(class21, linalg.TRANSPOSE_1_PERM)
    )
    assert vals[-1] < -1e-6
    class28 = states.example_states("class28", a=2.0)
    vals = linalg.hermitian_eigenvalues(
        linalg.permute_indices(class28, linalg.TRANSPOSE_1_PERM)
    )
    assert vals[-1] >= -1e-10


@_status(15, "parallel and sequential full scans produce byte-identical CSV")
def test_15_scan_determinism(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "CHUNK", 1024)  # 3321 cells in 4 chunks
    sequential = tmp_path / "sequential.csv"
    parallel = tmp_path / "parallel.csv"
    default = tmp_path / "default.csv"
    scan.export_scan(lambda: scan.grid_scan(80, "all", workers=1), csv_path=sequential)
    scan.export_scan(lambda: scan.grid_scan(80, "all", workers=4), csv_path=parallel)
    scan.export_scan(lambda: scan.grid_scan(80, "all"), csv_path=default)
    assert sequential.read_bytes() == parallel.read_bytes()
    assert default.read_bytes() == sequential.read_bytes()


@_status(16, "strongest criteria at R = 400: ppt for {3, 2.8}, ppt + gs3 for 3, gs2_ghz + gs2_w for {3, 2.8, 2.1}")
def test_16_strongest_criteria(full_scan_400):
    # the abstract: Peres's partial transposition and the Guhne-Seevinck matrix-element
    # criteria are the strongest for different separability classes; a cell is detected
    # where the verdict is violated (margin < -MARGINAL_BAND)
    grid = full_scan_400
    detected = {cid: grid.codes[cid] == -1 for cid in grid.criteria}

    def union(ids):
        return np.logical_or.reduce([detected[cid] for cid in ids])

    def level(classes):  # every criterion whose violation excludes these classes
        return union([cid for cid in grid.criteria if criteria.BY_ID[cid].excludes == classes])

    intersection = level(criteria.INTERSECTION)
    assert int(intersection.sum()) == 73_191
    assert np.array_equal(detected["ppt"], intersection)

    class3 = union([cid for cid in grid.criteria if "3" in criteria.BY_ID[cid].excludes])
    assert int(class3.sum()) == 73_423
    assert np.array_equal(detected["ppt"] | detected["gs3"], class3)
    missed = class3 & ~detected["ppt"]
    assert int(missed.sum()) == 232
    assert np.array_equal(missed, grid.pptes)

    bisep = level(criteria.BISEP)
    assert int(bisep.sum()) == 46_462
    assert np.array_equal(detected["gs2_ghz"] | detected["gs2_w"], bisep)
    assert int(detected["gs2_ghz"].sum()) == 31_268
