import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest

from qsep import bipartite, cli, concurrence, criteria, linalg, scan, states, tripartite, verdict
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

    @pytest.mark.parametrize("flag", ["--g", "--w"])
    def test_a_negative_zero_weight_reports_as_positive_zero(self, capsys, flag):
        other = "--w" if flag == "--g" else "--g"
        code, negative, _ = run(capsys, "eval", flag, "-0.0", other, "0.5", "--json")
        assert code == 0
        assert run(capsys, "eval", flag, "0.0", other, "0.5", "--json")[1] == negative
        payload, key = json.loads(negative), flag[2:]
        assert math.copysign(1.0, payload[key]) == math.copysign(1.0, payload["classification"][key]) == 1.0

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
        real = concurrence.wootters_lambdas
        monkeypatch.setattr(
            concurrence, "wootters_lambdas", lambda rho: calls.append(1) or real(rho)
        )
        code, out, _ = run(capsys, "eval", "--g", "0.1", "--w", "0.6", "--json")
        assert code == 0
        assert len(calls) == 1
        conc = json.loads(out)["concurrence"]
        assert abs(conc["numeric"] - conc["closed_form"]) <= 1e-9

    def test_import_and_json_leave_orjson_unloaded(self):
        # the export formatter imports orjson on first use, so startup and eval never pay for it
        script = (
            "import contextlib, io, sys\n"
            "import qsep.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = qsep.cli.main(['eval', '--g', '0.3', '--w', '0.1', '--json'])\n"
            "print(code, 'orjson' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (0, "0 False\n"), done.stderr

    def test_concurrence_past_1e9_is_a_consistency_failure(self, capsys, monkeypatch):
        real = concurrence.concurrence_23_closed
        monkeypatch.setattr(concurrence, "concurrence_23_closed", lambda g, w: real(g, w) + 2e-9)
        code, out, err = run(capsys, "eval", "--g", "0.1", "--w", "0.6", "--json")
        assert code == 2 and out == ""
        assert err.startswith("qsep: consistency failure: concurrence closed vs numeric "
                              "at (g=0.1, w=0.6): ")


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

    def test_unopenable_svg_fails_before_the_scan_and_keeps_the_tables(self, capsys, tmp_path, monkeypatch):
        # every target is opened before the scan, so a bad --svg leaves --out and
        # --json-out as they were and nothing is scanned
        csv, json_ = tmp_path / "a.csv", tmp_path / "a.json"
        csv.write_bytes(b"earlier csv")
        json_.write_bytes(b"earlier json")
        scans = []
        monkeypatch.setattr(scan, "grid_scan", lambda *a, **kw: scans.append(a))
        code, out, err = run(capsys, "scan", "--resolution", "3", "--criteria", "ppt",
                             "--out", str(csv), "--json-out", str(json_),
                             "--svg", str(tmp_path / "nodir" / "x.svg"))
        assert code == 3
        assert "i/o failure" in err and "x.svg" in err
        assert out == "" and scans == []
        assert csv.read_bytes() == b"earlier csv" and json_.read_bytes() == b"earlier json"
        assert sorted(tmp_path.iterdir()) == [csv, json_]

    @pytest.mark.parametrize("bad", [
        ("--resolution", "1"), ("--criteria", "no_such_criterion"), ("--resolution", "2000"),
    ])
    def test_usage_error_leaves_a_linked_target_alone(self, capsys, tmp_path, bad):
        # the arguments are checked before any target is opened, even one written directly
        target = tmp_path / "target.csv"
        target.write_bytes(b"an earlier export\n")
        (tmp_path / "link.csv").symlink_to(target)
        args = dict([("--resolution", "3"), ("--criteria", "ppt"), bad])
        code, out, err = run(capsys, "scan", *[x for kv in args.items() for x in kv],
                             "--out", str(tmp_path / "link.csv"), "--svg", "/nonexistent-dir/x.svg")
        assert code == 1
        assert out == "" and "i/o failure" not in err
        assert target.read_bytes() == b"an earlier export\n"


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
        assert sum(" vs map of the mixture " in line for line in lines) == len(states.FAMILIES)
        assert sum(line.startswith("pass  block spectra vs full LAPACK ") for line in lines) == 1
        assert sum(" at (g=" in line for line in lines) == len(deviations) + 28
        assert sum(line.startswith("pass  ") for line in lines) == len(deviations) + 33

    def test_registry_check_past_its_own_tolerance_fails(self, capsys, monkeypatch):
        # 1e-9 is within the default --tol, but past the registry's spectral tolerance
        real = states.closed_form_spectra_grid
        monkeypatch.setattr(states, "closed_form_spectra_grid",
                            lambda g, w: {**real(g, w), "resh24": real(g, w)["resh24"] + 1e-9})
        code, _, err = run(capsys, "verify", "--points", "50", "--tol", "1e-8", "--seed", "7")
        assert code == 2
        assert "Spect(R(rho) (1|23 reshuffle))" in err and "(g=" in err

    # the forms that only the diagonal of rho^1 reads, and the one that only rho and the
    # families that move its entries read (g/2, at [0, 7]), with the cell of
    # ``verify --points 50 --seed 7`` that ``shift_forms`` shifts
    RHO1_DIAGONAL = ((4, 1, 2), (4, 1, 1))
    RHO_COHERENCE = ((0, 1, 0),)
    CELL = 17

    @classmethod
    def shift_forms(cls, monkeypatch, rows, shift):
        """Make ``states.evaluate_forms`` add ``shift`` to the forms ``rows`` at cell
        ``CELL`` of each batch that holds it."""
        real = states.evaluate_forms
        numbers = [states.FORMS.tolist().index(list(row)) for row in rows]

        def shifted(g, w):
            forms = real(g, w)
            if forms.shape[1] > cls.CELL:
                forms[numbers, cls.CELL] += shift
            return forms

        monkeypatch.setattr(states, "evaluate_forms", shifted)
        g, w = cli._sample_simplex(np.random.default_rng(7), 50)
        return f" at {verdict.cell_name(g[cls.CELL], w[cls.CELL])}"

    def test_template_off_by_2e13_fails_naming_check_and_cell(self, capsys, monkeypatch):
        # within the default --tol, but past the map tolerance 1e-13
        cell = self.shift_forms(monkeypatch, self.RHO1_DIAGONAL[:1], 2e-13)
        code, out, err = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 2
        assert "FAIL  rho^1 vs map of the mixture" in out
        assert re.fullmatch(rf"FAILURE: rho\^1 vs map of the mixture: deviation 2\.00\de-13 exceeds "
                            rf"1\.0e-13{re.escape(cell)}\n", err), err

    def test_a_substituted_template_reaches_its_line_and_the_registry(self, capsys, monkeypatch):
        # the diagonal of rho^1 off by 1e-6: past the map tolerance, and the registry's
        # spectral check of the same batch's rho^1 then raises
        cell = self.shift_forms(monkeypatch, self.RHO1_DIAGONAL, 1e-6)
        code, out, err = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 2
        assert "FAIL  rho^1 vs map of the mixture" in out and cell in out
        assert f"FAILURE: Spect(rho^1){cell}: deviates" in err

    def test_a_perturbed_rho_form_fails_the_rho_line_naming_the_cell(self, capsys, monkeypatch):
        # within every registry tolerance and the same in the block and full paths, but past
        # the map tolerance of rho, and of each family that moves its [0, 7] entry, against
        # the same map of the independent mixture
        cell = self.shift_forms(monkeypatch, self.RHO_COHERENCE, 2e-13)
        code, out, err = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 2
        failed = [f"{name} vs map of the mixture"
                  for name in ("rho", "rho^T1", "R(rho) (1|23 reshuffle)", "R'(rho) (2-3 reshuffle)")]
        assert [line.split("  ")[1] for line in out.splitlines() if line.startswith("FAIL")] == failed
        assert len(err.splitlines()) == len(failed)
        for name, failure in zip(failed, err.splitlines()):
            assert re.fullmatch(rf"FAILURE: {re.escape(name)}: deviation 2\.00\de-13 exceeds "
                                rf"1\.0e-13{re.escape(cell)}", failure), failure

    def test_a_planted_reshuffle_form_fails_its_map_line_naming_the_cell(self, capsys, monkeypatch):
        # R'(rho), which feeds perm222, with its [0, 0] entry reading d/8 in place of
        # d/8 + g/2: still symmetric, so the layout builds and its block and full spectra
        # agree, but its matrices are no longer the 2-3 reshuffle of the mixture
        original = states.RESHUFFLE_23_BLOCKS
        index = original.form_index.copy()
        index[0, 0] = states.FORMS.tolist().index([1, 0, 0])
        planted = dataclasses.replace(original, form_index=index)
        monkeypatch.setattr(states, "RESHUFFLE_23_BLOCKS", planted)
        monkeypatch.setattr(states, "FAMILIES", tuple(
            planted if layout is original else layout for layout in states.FAMILIES))
        monkeypatch.setitem(criteria.BY_ID, "perm222", dataclasses.replace(
            criteria.BY_ID["perm222"], reads=(planted,)))
        code, out, err = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 2
        name = "R'(rho) (2-3 reshuffle) vs map of the mixture"
        assert [line.split("  ")[1] for line in out.splitlines() if line.startswith("FAIL")] == [name]
        g, w = cli._sample_simplex(np.random.default_rng(7), 50)
        n = int(np.argmax(g))  # the entry is off by g/2
        assert re.fullmatch(rf"FAILURE: {re.escape(name)}: deviation {g[n] / 2:.3e} exceeds 1\.0e-13 "
                            rf"at {re.escape(verdict.cell_name(g[n], w[n]))}\n", err), err

    def test_builds_each_batch_quantity_once(self, capsys, monkeypatch):
        # the registry diagonalizes every family in one block-spectra pass, and the block
        # line reads those spectra.  The forms and the closed forms are evaluated once, for
        # the whole sample
        calls = []
        for module, name in ((linalg, "block_spectra"), (states, "closed_form_spectra_grid"),
                             (states, "build_rho_grid"), (states, "evaluate_forms")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: (
                calls.append((name, [layout.name for layout in a[0]] if name == "block_spectra"
                              else len(a[0])))
                or real(*a)))
        code, _, _ = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 0
        spectra = [layouts for name, layouts in calls if name == "block_spectra"]
        assert spectra == [[layout.name for layout in states.FAMILIES]]
        assert [call for call in calls if call[0] == "closed_form_spectra_grid"] == [
            ("closed_form_spectra_grid", 50)]
        assert [call for call in calls if call[0] == "evaluate_forms" and call[1] != 1] == [
            ("evaluate_forms", 50)]
        # the batch's rho is gathered from its forms; the explicit references build one point
        # at a time
        assert ("build_rho_grid", 50) not in calls

    @pytest.mark.parametrize("target", list(states.FAMILIES), ids=lambda layout: layout.name)
    def test_block_line_covers_every_family(self, capsys, monkeypatch, target):
        # the full matrices of one family, scaled by 1 + 1e-6, no longer have the spectra
        # its blocks give
        real = criteria.Batch.family
        monkeypatch.setattr(criteria.Batch, "family", lambda batch, layout: (
            real(batch, layout) * (1.0 + 1e-6) if layout is target else real(batch, layout)))
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
        # past the batch's own 1e-9 the check raises, as every registry check does, and the
        # table ends before its line
        _, passed, _ = run(capsys, "verify", "--points", "50", "--seed", "7")
        real = concurrence.concurrence_23_closed
        monkeypatch.setattr(concurrence, "concurrence_23_closed", lambda g, w: real(g, w) + 1e-8)
        code, out, err = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 2
        assert re.fullmatch(r"FAILURE: concurrence closed vs numeric at \(g=[^)]*\): "
                            r"deviates from closed forms by 1\.000e-08\n", err), err
        # every line before the concurrence's two as in the passing run
        lines = out.splitlines()
        assert lines == passed.splitlines()[:len(lines)]
        assert " eigh vs Jacobi reference " in lines[-1]

    def test_concurrence_computed_once(self, capsys, monkeypatch):
        calls = []
        real = concurrence.wootters_lambdas
        monkeypatch.setattr(
            concurrence, "wootters_lambdas", lambda rho: calls.append(len(rho)) or real(rho)
        )
        code, _, _ = run(capsys, "verify", "--points", "50", "--seed", "7")
        assert code == 0
        assert calls == [50]

    def test_tol_above_1e9_does_not_loosen_the_concurrence(self, capsys, monkeypatch):
        real = concurrence.concurrence_23_closed
        monkeypatch.setattr(concurrence, "concurrence_23_closed", lambda g, w: real(g, w) + 2e-9)
        code, _, err = run(capsys, "verify", "--points", "50", "--tol", "1e-8", "--seed", "7")
        assert code == 2
        assert err.startswith("FAILURE: concurrence closed vs numeric at (g=")

    @pytest.mark.parametrize("module,name,shift,line", [
        (tripartite, "criterion_huber", 1e-4, "huber_ghz_k2 explicit vs grid"),
        (linalg, "jacobi_eigh", 1e-4, "eigh vs Jacobi reference"),
        (states, "build_rho_mixture_grid", 1e-11, "rho vs map of the mixture"),
    ], ids=["reference", "jacobi", "mixture"])
    def test_tol_above_a_line_limit_does_not_loosen_it(self, capsys, monkeypatch, module, name,
                                                       shift, line):
        # each error is within --tol 1e-3, but past its line's fixed limit: 1e-10 for the
        # references and Jacobi, the map tolerance for the mixture
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: real(*a) + shift)
        code, out, err = run(capsys, "verify", "--points", "50", "--tol", "1e-3", "--seed", "7")
        assert code == 2
        assert f"FAIL  {line} " in out
        assert f"FAILURE: {line}: deviation " in err

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

    @pytest.mark.parametrize("which", ["class21", "pptes"])
    def test_a_without_class28_is_a_usage_error(self, capsys, which):
        code, out, err = run(capsys, "examples", "--which", which, "--a", "2")
        assert code == 1
        assert out == "" and err.startswith("qsep: error: ") and "--a" in err

    def test_pptes_matches_family(self, capsys):
        code, out, _ = run(capsys, "examples", "--which", "pptes")
        assert code == 0
        assert "matches rho(g=1/5, w=1/5)" in out

    def test_bad_selector(self, capsys):
        code, _, _ = run(capsys, "examples", "--which", "nope")
        assert code == 1
