import importlib.util
import pathlib
import re
import sys

import numpy as np

from qsep import criteria

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_margin_diff_of_a_checkout_against_itself_is_all_zero(monkeypatch, capsys):
    tool = load_tool("margin_diff")
    monkeypatch.setattr(tool, "RESOLUTIONS", (7,))
    assert tool.main([str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("R = 7: ")
    rows = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in rows] == list(criteria.IDS)
    assert all(float(figure) == 0.0 for row in rows for figure in row[1:])
    assert lines[-1] == "  cells changed: possible 0, slocc 0, exact 0, pptes 0"


def test_margin_diff_counts_a_changed_margin_and_flag():
    tool = load_tool("margin_diff")
    ours = tool.scan_of(ROOT, 7)
    theirs = {key: {k: v.copy() for k, v in value.items()} if isinstance(value, dict) else value.copy()
              for key, value in ours.items()}
    theirs["margins"]["ppt"][3] = np.nextafter(theirs["margins"]["ppt"][3], np.inf)
    theirs["codes"]["ppt"][3] += 1
    theirs["possible"][5, 0] = ~theirs["possible"][5, 0]
    rows, flags = tool.compare(ours, theirs)
    changed, largest, codes = rows["ppt"]
    assert (changed, codes) == (1, 1) and 0.0 < largest < 1e-15
    assert all(row == (0, 0.0, 0) for cid, row in rows.items() if cid != "ppt")
    assert flags == {"possible": 1, "slocc": 0, "exact": 0, "pptes": 0}


def test_output_digests_prints_one_digest_line_per_artifact(monkeypatch, capsys):
    tool = load_tool("output_digests")
    monkeypatch.setattr(tool, "SCANS", [(5, "ppt"), (5, "ppt", "--workers", "2")])
    monkeypatch.setattr(tool, "POINTS", ((0.2, 0.2),))
    monkeypatch.setattr(tool, "VERIFIES", (("3", "1"),))
    monkeypatch.setattr(tool, "EXAMPLES", (("pptes",),))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts the checkout's src first
    assert tool.main([str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.* \(exit 0\)", line) for line in lines), lines
    # an option changes the name of a scan's lines, and not their digests
    assert [line[:64] for line in lines[:4]] == [line[:64] for line in lines[4:8]]
    assert [line[66:-9] for line in lines] == [
        "scan 5 ppt csv", "scan 5 ppt json", "scan 5 ppt svg", "scan 5 ppt stdout",
        "scan 5 ppt --workers 2 csv", "scan 5 ppt --workers 2 json", "scan 5 ppt --workers 2 svg",
        "scan 5 ppt --workers 2 stdout", "eval 0.2 0.2", "eval 0.2 0.2 text", "eval --schema",
        "verify --points 3 --seed 1", "examples --which pptes",
    ]
