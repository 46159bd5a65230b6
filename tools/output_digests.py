"""Print a SHA-256 digest of every qsep output that a pure refactor must keep byte-identical.

Usage, from any directory:

    python tools/output_digests.py [CHECKOUT] > digests.txt

qsep is imported from CHECKOUT/src (default: the checkout that holds this
script), so the script can digest an older checkout that lacks it.  It
prints one ``<sha256>  <name>`` line per artifact:

- the CSV, JSON and SVG exports of ``qsep scan`` at resolutions 20, 40, 55,
  80, 115, 200 and 400 with ``--criteria all``, at 25 with ``gs3,ppt``, and
  at 40 with each group of spectral criteria alone (``SPECTRAL_GROUPS``),
  which diagonalize only the matrix families they read;
- the stdout of ``qsep eval --json`` at eight simplex points;
- the stdout of ``qsep verify`` at ``--points 1000 --seed 7``, and at the edge
  sizes of its worst-cell rule: one point (``--points 1 --seed 1``), and a
  subsample that holds every point (``--points 20 --seed 3``);
- the stdout of ``qsep examples`` for ``class21``, ``class28 --a 2`` and
  ``pptes``.

Each name ends with the command's exit code.  Run it on two checkouts and
``diff`` the two outputs.  Exports go to a temporary directory, and each is
deleted once it is digested; the R = 400 JSON export alone is about 340 MB.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

SPECTRAL_GROUPS = ("maj", "entropy", "ppt", "reduction", "resh24", "perm222")
SCANS = ([(resolution, "all") for resolution in (20, 40, 55, 80, 115, 200, 400)] + [(25, "gs3,ppt")]
         + [(40, group) for group in SPECTRAL_GROUPS])
POINTS = (
    (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.2, 0.2), (0.2, 0.0), (1 / 3, 0.0), (0.3, 0.1),
    (0.15, 0.85),
)
VERIFIES = (("1000", "7"), ("1", "1"), ("20", "3"))  # (--points, --seed)
EXAMPLES = (("class21",), ("class28", "--a", "2"), ("pptes",))


def _run(cli, argv) -> tuple[int, bytes]:
    """Exit code and stdout of ``qsep argv``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0] if argv else pathlib.Path(__file__).resolve().parents[1])
    sys.path.insert(0, str(root.resolve() / "src"))
    from qsep import cli

    print(f"qsep from {pathlib.Path(cli.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="qsep-digests-") as tmp:
        paths = {kind: str(pathlib.Path(tmp) / f"scan.{kind}") for kind in ("csv", "json", "svg")}
        for resolution, selection in SCANS:
            code, _ = _run(cli, ("scan", "--resolution", str(resolution), "--criteria", selection,
                                 "--out", paths["csv"], "--json-out", paths["json"],
                                 "--svg", paths["svg"]))
            for kind, path in paths.items():
                found = _file_digest(path) if os.path.exists(path) else "missing"
                print(f"{found}  scan {resolution} {selection} {kind} (exit {code})", flush=True)
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
    for g, w in POINTS:
        code, out = _run(cli, ("eval", "--g", repr(g), "--w", repr(w), "--json"))
        print(f"{hashlib.sha256(out).hexdigest()}  eval {g!r} {w!r} (exit {code})", flush=True)
    for argv in ([("verify", "--points", points, "--seed", seed) for points, seed in VERIFIES]
                 + [("examples", "--which", *example) for example in EXAMPLES]):
        code, out = _run(cli, argv)
        print(f"{hashlib.sha256(out).hexdigest()}  {' '.join(argv)} (exit {code})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
