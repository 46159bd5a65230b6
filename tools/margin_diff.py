"""Count what a change moves in the margins, verdicts and class flags of the grid scan.

Usage, from any directory:

    python tools/margin_diff.py OTHER_CHECKOUT

At resolutions 7, 40, 120 and 400 (``RESOLUTIONS``), each of the two
checkouts, OTHER_CHECKOUT and the one that holds this script, runs
``scan.grid_scan(R, "all", workers=1)`` in a subprocess of its own, with
qsep imported from its ``src``, as ``tools/output_digests.py`` imports it.
Per resolution it prints one line per criterion: how many margins changed
(bit for bit, a NaN equal to a NaN), the largest |change| and how many
verdict codes changed; then how many cells changed their possible classes,
their SLOCC class, their exact flag and their PPTES flag.  Every figure is 0
for two checkouts whose scans agree bit for bit.
"""

from __future__ import annotations

import pathlib
import pickle
import subprocess
import sys

import numpy as np

RESOLUTIONS = (7, 40, 120, 400)
FLAGS = ("possible", "slocc", "exact", "pptes")

# run in a subprocess: scan at one resolution and pickle what the comparison reads to stdout
_SCAN = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from qsep import scan
grid = scan.grid_scan(int(sys.argv[2]), "all", workers=1)
pickle.dump({"margins": grid.margins, "codes": grid.codes,
             **{flag: getattr(grid, flag) for flag in %r}}, sys.stdout.buffer)
""" % (FLAGS,)


def scan_of(checkout, resolution: int) -> dict:
    """What the comparison reads of ``grid_scan(resolution, "all", workers=1)`` run on
    ``checkout``, in a subprocess of its own."""
    src = str(pathlib.Path(checkout).resolve() / "src")
    run = subprocess.run([sys.executable, "-c", _SCAN, src, str(resolution)],
                         capture_output=True, check=True)
    return pickle.loads(run.stdout)


def compare(ours: dict, theirs: dict) -> tuple[dict[str, tuple[int, float, int]], dict[str, int]]:
    """Per criterion (margins changed, largest |change|, verdict codes changed), and per
    class flag the cells that changed it, between two ``scan_of`` results."""
    rows = {}
    for cid, margin in ours["margins"].items():
        other = theirs["margins"][cid]
        changed = (margin.view(np.int64) != other.view(np.int64)) & ~(np.isnan(margin) & np.isnan(other))
        delta = np.abs(margin[changed] - other[changed])
        rows[cid] = (int(changed.sum()), float(delta.max(initial=0.0)),
                     int(np.sum(ours["codes"][cid] != theirs["codes"][cid])))
    flags = {}
    for flag in FLAGS:
        differs = ours[flag] != theirs[flag]
        flags[flag] = int(np.sum(differs.reshape(differs.shape[0], -1).any(axis=1)))
    return rows, flags


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    here = pathlib.Path(__file__).resolve().parents[1]
    for resolution in RESOLUTIONS:
        rows, flags = compare(scan_of(here, resolution), scan_of(argv[0], resolution))
        print(f"R = {resolution}: criterion, margins changed, largest |change|, verdict codes changed")
        for cid, (changed, largest, codes) in rows.items():
            print(f"  {cid:24s} {changed:7d}  {largest:.3e}  {codes:7d}")
        print("  cells changed: " + ", ".join(f"{flag} {count}" for flag, count in flags.items()),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
