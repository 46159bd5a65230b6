import importlib.util
import pathlib

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
