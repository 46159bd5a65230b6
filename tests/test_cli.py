import json
import math
import tracemalloc

import jsonschema
import numpy as np
import pytest

from qsep import bipartite, cli, concurrence, criteria, linalg, scan, states, tripartite
from qsep.exceptions import ConvergenceError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_pure_ghz(self, capsys):
        code, out, _ = run(capsys, "eval", "--g", "1", "--w", "0")
        assert code == 0
        assert "ppt                  violated  -5.000000000000e-01" in out
        assert "possible classes: {1}" in out
        assert "slocc: GHZ-type" in out

    def test_white_noise(self, capsys):
        code, out, _ = run(capsys, "eval", "--g", "0", "--w", "0")
        assert code == 0
        assert "violated" not in out
        assert "excluded class" not in out

    def test_pptes_point_flagged(self, capsys):
        code, out, _ = run(capsys, "eval", "--g", "0.2", "--w", "0.2")
        assert code == 0
        assert "PPTES-certified" in out

    def test_json_validates_against_schema(self, capsys):
        code, out, _ = run(capsys, "eval", "--g", "0.3", "--w", "0.1", "--json")
        assert code == 0
        payload = json.loads(out)
        code, schema_out, _ = run(capsys, "eval", "--schema")
        assert code == 0
        schema = json.loads(schema_out)
        jsonschema.validate(payload, schema)

    def test_rank_deficient_marginal_passes_concurrence_gate(self, capsys):
        # on the d = 0 edge rho23 is singular; a square root of a near-zero
        # eigenvalue once put the numeric concurrence 4.4e-9 off the closed form
        code, out, err = run(capsys, "eval", "--g", "0.15", "--w", "0.85")
        assert code == 0, err
        assert "concurrence(rho23)" in out

    def test_invalid_point_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--g", "0.7", "--w", "0.4")
        assert code == 1
        assert "error" in err

    def test_missing_flags_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--g", "0.1")
        assert code == 1

    def test_concurrence_computed_once(self, capsys, monkeypatch):
        calls = []
        real = concurrence.wootters_concurrence
        monkeypatch.setattr(
            concurrence, "wootters_concurrence", lambda rho: calls.append(1) or real(rho)
        )
        code, out, _ = run(capsys, "eval", "--g", "0.1", "--w", "0.6", "--json")
        assert code == 0
        assert len(calls) == 1
        conc = json.loads(out)["concurrence"]
        assert abs(conc["numeric"] - conc["closed_form"]) <= 1e-9


class TestParser:
    def test_built_once_across_calls(self, capsys, monkeypatch):
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
        cli._parser.cache_clear()
        try:
            assert run(capsys, "eval", "--g", "0", "--w", "0")[0] == 0
            assert run(capsys, "eval", "--g", "0.3", "--w", "0.1", "--json")[0] == 0
            assert run(capsys, "scan", "--resolution", "10")[0] == 1
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_parsed_arguments_do_not_leak_between_calls(self, capsys):
        _, plain, _ = run(capsys, "eval", "--g", "0.2", "--w", "0.2")
        _, as_json, _ = run(capsys, "eval", "--g", "0.2", "--w", "0.2", "--json")
        _, plain_again, _ = run(capsys, "eval", "--g", "0.2", "--w", "0.2")
        assert plain == plain_again
        assert json.loads(as_json)["g"] == 0.2


class TestScan:
    def test_csv_lattice_counting(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, out, _ = run(capsys, "scan", "--resolution", "100", "--criteria", "ppt",
                           "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5152

    def test_svg_and_json(self, capsys, tmp_path):
        svg = tmp_path / "m.svg"
        jpath = tmp_path / "m.json"
        code, _, _ = run(capsys, "scan", "--resolution", "25", "--criteria", "gs3,ppt",
                         "--svg", str(svg), "--json-out", str(jpath))
        assert code == 0
        assert svg.read_text().startswith("<svg")
        payload = json.loads(jpath.read_text())
        assert payload["criteria"] == ["gs3", "ppt"]

    def test_requires_an_output(self, capsys):
        code, _, err = run(capsys, "scan", "--resolution", "10")
        assert code == 1
        assert "needs at least one" in err

    def test_workers_default_to_the_usable_cores(self, capsys, tmp_path, monkeypatch):
        seen = []
        real = scan.grid_scan
        monkeypatch.setattr(scan, "grid_scan", lambda *a, **kw: seen.append(kw) or real(*a, **kw))
        monkeypatch.setattr(scan, "CHUNK", 32)  # 231 cells in 8 chunks
        outputs = []
        for extra in ((), ("--workers", "1")):
            path = tmp_path / f"scan{len(extra)}.csv"
            code, _, _ = run(capsys, "scan", "--resolution", "20", "--out", str(path), *extra)
            assert code == 0
            outputs.append(path.read_bytes())
        assert [kw["workers"] for kw in seen] == [None, 1]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_rejected(self, capsys, tmp_path, workers):
        code, _, err = run(capsys, "scan", "--resolution", "5", "--criteria", "ppt",
                           "--out", str(tmp_path / "x.csv"), "--workers", workers)
        assert code == 1
        assert "--workers" in err
        assert not (tmp_path / "x.csv").exists()

    def test_resolution_over_the_cell_cap_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "scan", "--resolution", "1000000", "--out",
                           str(tmp_path / "x.csv"))
        assert code == 1
        assert "MAX_CELLS" in err
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, err = run(capsys, "scan", "--resolution", "5", "--criteria", "ppt",
                           "--out", "/nonexistent-dir/x.csv")
        assert code == 3
        assert "i/o failure" in err

    def test_unwritable_json_path_beside_a_csv_is_io_error(self, capsys, tmp_path):
        # the CSV and the JSON are written in one pass, so neither is reported written
        code, out, err = run(capsys, "scan", "--resolution", "5", "--criteria", "ppt",
                             "--out", str(tmp_path / "ok.csv"), "--json-out", "/nonexistent-dir/x.json")
        assert code == 3
        assert "i/o failure" in err and "/nonexistent-dir/x.json" in err
        assert "wrote" not in out

    @pytest.mark.parametrize("first, second", [
        ("--out", "--json-out"), ("--out", "--svg"), ("--json-out", "--svg"),
    ])
    def test_two_exports_to_one_file_are_a_usage_error(self, capsys, tmp_path, first, second):
        # a second spelling of the same path still names the same file
        target = tmp_path / "P"
        target.write_bytes(b"an earlier export\n")
        code, out, err = run(capsys, "scan", "--resolution", "5", "--criteria", "ppt",
                             first, str(target), second, str(tmp_path / "." / "P"))
        assert code == 1
        assert f"{first} and {second} name the same file" in err
        assert out == ""  # nothing was scanned or written
        assert target.read_bytes() == b"an earlier export\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_export_leaves_an_earlier_file_as_it_was(self, capsys, tmp_path):
        csv = tmp_path / "ok.csv"
        csv.write_bytes(b"g,w,criterion_id,verdict,margin\nan earlier export\n")
        code, _, err = run(capsys, "scan", "--resolution", "5", "--criteria", "ppt",
                           "--out", str(csv), "--json-out", "/nonexistent-dir/x.json")
        assert code == 3
        assert "'/nonexistent-dir/x.json'" in err  # the path asked for, not a temporary file
        assert csv.read_bytes() == b"g,w,criterion_id,verdict,margin\nan earlier export\n"
        assert list(tmp_path.iterdir()) == [csv]


class TestVerify:
    def test_small_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--points", "60", "--tol", "1e-10",
                           "--seed", "7")
        assert code == 0
        assert "all consistency checks passed" in out
        assert "seed 7" in out

    def test_reports_backend_against_reference(self, capsys):
        code, out, _ = run(capsys, "verify", "--points", "30", "--seed", "3")
        assert code == 0
        assert "pass  eigh vs Jacobi reference" in out

    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "verify", "--points", "1", "--tol", "1e-8", "--seed", "1")
        assert code == 0

    def test_tampered_tolerance_fails(self, capsys):
        code, out, err = run(capsys, "verify", "--points", "40", "--tol", "1e-16",
                             "--seed", "7")
        assert code == 2
        assert "FAILURE" in err

    def test_prints_one_line_per_registry_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--points", "200", "--seed", "7")
        assert code == 0
        batch = criteria.Batch(*cli._sample_simplex(np.random.default_rng(7), 200))
        batch.evaluate(criteria.IDS)
        deviations = batch.deviations
        lines = out.splitlines()
        for name in deviations:
            assert sum(line.startswith(f"pass  {name} ") for line in lines) == 1, name
        # every line names its worst cell but the five verdict-mismatch counts
        assert sum(" template vs generic map " in line for line in lines) == 4
        assert sum(line.startswith("pass  block spectra vs full LAPACK ") for line in lines) == 1
        assert sum(" at (g=" in line for line in lines) == len(deviations) + 25
        assert sum(line.startswith("pass  ") for line in lines) == len(deviations) + 30

    def test_registry_check_past_its_own_tolerance_fails(self, capsys, monkeypatch):
        # 1e-9 is within the default --tol, but past the registry's spectral tolerance
        real = bipartite.reshuffle24_closed_singular_values
        monkeypatch.setattr(
            bipartite, "reshuffle24_closed_singular_values", lambda g, w: real(g, w) + 1e-9
        )
        code, _, err = run(capsys, "verify", "--points", "50", "--tol", "1e-8", "--seed", "7")
        assert code == 2
        assert "reshuffling singular values" in err and "(g=" in err

    @staticmethod
    def shift_source(monkeypatch, target, shift):
        """Make ``Batch.source`` return the sources of ``target`` shifted by ``shift``."""
        real = criteria.Batch.source
        monkeypatch.setattr(criteria.Batch, "source", lambda batch, layout: (
            real(batch, layout) + shift if layout is target else real(batch, layout)))

    def test_template_off_by_2e13_fails_naming_check_and_cell(self, capsys, monkeypatch):
        # within the default --tol, but past the template tolerance 1e-13
        self.shift_source(monkeypatch, states.MARGINAL_1_BLOCKS, 2e-13)
        code, out, err = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 2
        assert "FAIL  rho^1 template vs generic map" in out
        assert "FAILURE: rho^1 template vs generic map: deviation" in err and " at (g=" in err

    def test_a_substituted_template_reaches_its_line_and_the_registry(self, capsys, monkeypatch):
        # the diagonal of rho^1 off by 1e-6: past the template tolerance, and the registry's
        # spectral check of the same batch's rho^1 then raises
        self.shift_source(monkeypatch, states.MARGINAL_1_BLOCKS, 1e-6 * np.eye(2))
        code, out, err = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 2
        assert "FAIL  rho^1 template vs generic map" in out
        assert "FAILURE: Spect(rho^1) at (g=" in err

    def test_builds_each_batch_quantity_once(self, capsys, monkeypatch):
        # the registry pass diagonalizes each family once, and the block line reads those
        # spectra; only R'(rho), which the registry reads in layout order, is computed
        # again, sorted.  rho and the closed forms are built once, for the whole sample
        calls = []
        for module, name in ((linalg, "block_spectra"), (states, "closed_form_spectra_grid"),
                             (states, "build_rho_grid")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: (
                calls.append((name, a[0].name if name == "block_spectra" else len(a[0])))
                or real(*a)))
        code, _, _ = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 0
        spectra = [layout for name, layout in calls if name == "block_spectra"]
        assert len(spectra) == 9
        assert sorted(spectra) == sorted([layout.name for layout in states.FAMILIES]
                                         + [states.RESHUFFLE_23_BLOCKS.name])
        assert [call for call in calls if call[0] == "closed_form_spectra_grid"] == [
            ("closed_form_spectra_grid", 50)]
        # the batch's rho; the explicit references build one point at a time
        assert calls.count(("build_rho_grid", 50)) == 1

    @pytest.mark.parametrize("target", list(states.FAMILIES), ids=lambda layout: layout.name)
    def test_block_line_covers_every_family(self, capsys, monkeypatch, target):
        # the full matrices of one family, scaled by 1 + 1e-6, no longer have the spectra
        # its blocks give
        real = linalg.BlockLayout.family
        monkeypatch.setattr(linalg.BlockLayout, "family", lambda layout, source: (
            real(layout, source) * (1.0 + 1e-6) if layout is target else real(layout, source)))
        code, out, _ = run(capsys, "verify", "--points", "30", "--seed", "7")
        assert code == 2
        (line,) = [line for line in out.splitlines() if " block spectra vs full LAPACK " in line]
        assert line.startswith("FAIL") and line.endswith(f" in {target.name}"), line

    def test_ppt_sign_conflict_fails(self, capsys, monkeypatch):
        real = bipartite.ppt_closed_margins
        monkeypatch.setattr(
            bipartite, "ppt_closed_margins", lambda g, w: tuple(-q for q in real(g, w))
        )
        code, _, err = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 2
        assert "ppt" in err

    def test_concurrence_off_by_1e8_fails_naming_the_cell(self, capsys, monkeypatch):
        # past the line's limit max(--tol, 1e-9); verify no longer reads concurrence_23,
        # whose own raise past 1e-9 used to end the run before the line printed
        _, passed, _ = run(capsys, "verify", "--points", "50", "--seed", "7")
        real = concurrence.concurrence_23_closed
        monkeypatch.setattr(concurrence, "concurrence_23_closed", lambda g, w: real(g, w) + 1e-8)
        code, out, err = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 2
        lines = out.splitlines()
        (n,) = [n for n, line in enumerate(lines) if "concurrence closed vs numeric" in line]
        assert lines[n].startswith("FAIL  concurrence closed vs numeric") and " at (g=" in lines[n]
        assert err.startswith("FAILURE: concurrence closed vs numeric: deviation") and " at (g=" in err
        # every other line as in the passing run, which adds "all consistency checks passed"
        assert lines[:n] + lines[n + 1:] == [
            line for line in passed.splitlines()[:-1] if "concurrence closed vs numeric" not in line]

    def test_raised_check_fails_after_the_failed_lines(self, capsys, monkeypatch):
        # past a --tol of 1e-16, lines before the Jacobi reference fail; the reference then
        # raises, and its own text follows their failures on stderr
        def jacobi_eigh(matrices):
            raise ConvergenceError("Jacobi sweep cap reached")

        monkeypatch.setattr(linalg, "jacobi_eigh", jacobi_eigh)
        code, out, err = run(capsys, "verify", "--points", "50", "--tol", "1e-16", "--seed", "7")
        assert code == 2
        lines = out.splitlines()
        assert " block spectra vs full LAPACK " in lines[-1]
        failed = [line[6:52].rstrip() for line in lines if line.startswith("FAIL  ")]
        *failures, last = err.splitlines()
        assert len(failures) == len(failed) > 0
        for name, failure in zip(failed, failures):
            assert failure.startswith(f"FAILURE: {name}: deviation ") and " at (g=" in failure
        assert last == "FAILURE: Jacobi sweep cap reached"

    def test_nan_explicit_margin_fails_its_line(self, capsys, monkeypatch):
        # a NaN reference margin is the worst value of its line, not skipped by a max
        real = tripartite.criterion_su
        monkeypatch.setattr(tripartite, "criterion_su", lambda p, settings, level: (
            math.nan if level == "3sep" else real(p, settings, level)))
        code, out, err = run(capsys, "verify", "--points", "30", "--seed", "7")
        assert code == 2
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert [line.split()[1] for line in failed] == ["su3_set1", "su3_set2", "su3_set3"]
        assert all(" nan at (g=" in line for line in failed)
        assert err.count("FAILURE: su3_set") == 3

    @pytest.mark.parametrize("seed", ["-1", "-7", "x", "1.5"])
    def test_seed_not_a_nonnegative_integer_is_usage_error(self, capsys, monkeypatch, seed):
        sampled = []
        monkeypatch.setattr(cli, "_sample_simplex", lambda *a: sampled.append(a))
        code, out, err = run(capsys, "verify", "--points", "5", "--seed", seed)
        assert code == 1
        assert "--seed" in err
        assert out == "" and sampled == []

    def test_zero_points_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--points", "0")
        assert code == 1

    def test_points_over_the_cap_is_usage_error_before_sampling(self, capsys, monkeypatch):
        sampled = []
        monkeypatch.setattr(cli, "_sample_simplex", lambda *a: sampled.append(a))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify", "--points", str(cli.MAX_POINTS + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert f"MAX_POINTS = {cli.MAX_POINTS}" in err
        assert out == "" and sampled == []
        assert peak < 1 << 20

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_not_finite_nonnegative_is_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--points", "5", "--tol", tol)
        assert code == 1
        assert "--tol" in err
        assert "FAIL" not in out


class TestEnvironment:
    @pytest.mark.parametrize("value", ["abc", "-1", "inf", "nan", ""])
    def test_bad_qsep_tol_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QSEP_TOL", value)
        code, _, err = run(capsys, "eval", "--g", "0.2", "--w", "0.2")
        assert code == 1
        assert "QSEP_TOL" in err

    def test_valid_qsep_tol_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("QSEP_TOL", "1e-8")
        code, _, _ = run(capsys, "eval", "--g", "0.2", "--w", "0.2")
        assert code == 0


class TestExamples:
    def test_class21_reports_npt(self, capsys):
        code, out, _ = run(capsys, "examples", "--which", "class21")
        assert code == 0
        assert "NPT" in out

    def test_class28_reports_psd(self, capsys):
        code, out, _ = run(capsys, "examples", "--which", "class28", "--a", "2")
        assert code == 0
        assert "positive semidefinite" in out

    def test_class28_requires_a(self, capsys):
        code, _, _ = run(capsys, "examples", "--which", "class28")
        assert code == 1

    # not finite, not positive, or a normaliser 2 + 3(a + 1/a) that overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", ["nan", "inf", "1e-320", "1e308", "0"])
    def test_class28_rejects_a_at_the_boundary(self, capsys, a):
        with pytest.raises(ValueError, match="class28"):
            states.example_states("class28", a=float(a))
        code, out, err = run(capsys, "examples", "--which", "class28", "--a", a)
        assert code == 1
        assert out == "" and err.startswith("qsep: error: class28 ")

    def test_pptes_matches_family(self, capsys):
        code, out, _ = run(capsys, "examples", "--which", "pptes")
        assert code == 0
        assert "matches rho(g=1/5, w=1/5)" in out

    def test_bad_selector(self, capsys):
        code, _, _ = run(capsys, "examples", "--which", "nope")
        assert code == 1
