"""Workload process: runs qsep operations on request and times them.

Started by ``run.py``.  It imports qsep from the checkout's ``src/``, pays
the lazy first-use caches, prints a ``ready`` line, then reads one JSON
request per line from stdin and answers each with one JSON line on stdout.
Output checks that need a lot of memory (parsing the map artifacts) run in
the parent, so this process's peak resident memory is the program's own.

With ``--probe`` it imports qsep, fills the lazy first-use caches and exits
after printing ``ready``; ``run.py`` times that as the set-up cost of a fresh
process.  The probe touches only the caches, so a faster compute path does
not show up as a change in set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from qsep import cli, scan, tripartite  # noqa: E402
from qsep.exceptions import ConsistencyError, ConvergenceError  # noqa: E402

# Before timing, keep the processor busy this long: on an idle virtual machine
# the first seconds of work run markedly slower than the rest.
SPIN_UP_S = 1.5
# Reference kernel: a fixed mix of interpreter work and small batched complex
# matrix products, the two kinds of work qsep does, independent of qsep's
# code.  ``run.py`` times it between operations to follow the host's speed.
# Its arrays stay small and are reused, so its time does not depend on what
# the allocator was left holding by the operation before it.
REF_LOOP = 20000
REF_PRODUCTS = 40
REF_REPEATS = 5
_REF_A = (lambda r: r.standard_normal((64, 8, 8)) + 1j * r.standard_normal((64, 8, 8)))(
    np.random.default_rng(0))


def reference_seconds() -> float:
    """Best of ``REF_REPEATS`` timings of the reference kernel."""
    b = _REF_A.copy()
    c = np.empty_like(b)
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        for _ in range(REF_PRODUCTS):
            np.matmul(b, _REF_A, out=c)
            np.multiply(c, 0.125, out=b)
        best = min(best, time.perf_counter() - t0)
    return best


def fill_caches() -> None:
    """Fill the lazy caches a fresh process pays for on first use: the
    spin-observable coefficients of the three published settings and the
    swap operators behind the Huber coefficients, each through a one-point
    call.  Should a refactor change those functions, a two-step scan fills
    whatever caches the package then has."""
    g = w = np.array([0.2])
    try:
        for idx in range(3):
            tripartite.su_margins_grid(g, w, idx, "3sep")
        for tag in ("ghz", "w"):
            tripartite.huber_margins_grid(g, w, tag, 3)
    except (AttributeError, TypeError, ValueError, KeyError, IndexError):
        scan.grid_scan(2, "all")


def warm_up() -> None:
    """Pay every lazy cache the workloads touch: spin coefficients, swap
    operators, matrix-element families and the CLI report path."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["eval", "--g", "0.2", "--w", "0.2", "--json"])
    scan.grid_scan(10, "all")


def _run_cli(argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    return seconds, rc, out.getvalue(), err.getvalue()


def _margin_digest(grid) -> str:
    h = hashlib.sha256()
    for cid in grid.criteria:
        h.update(cid.encode())
        h.update(np.ascontiguousarray(grid.margins[cid], dtype=np.float64).tobytes())
    return h.hexdigest()


def _scan_problems(resolution: int, grid) -> list[str]:
    """Invariants every full scan must satisfy, from the published results."""
    problems = []
    # criteria never exclude class 1; only the exact w = 0 split narrows a cell to one class
    if not bool(np.all(grid.possible[grid.j_index > 0, 3])):
        problems.append("class 1 excluded in a cell off the w = 0 line")
    on_line = np.flatnonzero(grid.j_index == 0)
    for row in on_line:
        i = int(grid.i_index[row])
        # exact classes on w = 0: 3 up to g = 1/5, 2.1 up to g = 3/7, then 1
        want = 0 if 5 * i <= resolution else (2 if 7 * i <= 3 * resolution else 3)
        got = np.flatnonzero(grid.possible[row]).tolist()
        if got != [want] or not bool(grid.exact[row]):
            problems.append(f"w=0 cell g={i}/{resolution}: classes {got}, expected [{want}]")
            break
    if resolution % 5 == 0:
        k = resolution // 5
        hit = np.flatnonzero((grid.i_index == k) & (grid.j_index == k))
        if hit.size != 1 or not bool(grid.pptes[hit[0]]):
            problems.append("cell (0.2, 0.2) is not PPTES-flagged")
    return problems


def op_scan(req: dict) -> dict:
    resolution = int(req["resolution"])
    t0 = time.perf_counter()
    try:
        grid = scan.grid_scan(resolution, "all")
    except (ConsistencyError, ConvergenceError) as exc:
        return {"seconds": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - t0
    return {
        "seconds": seconds,
        "items": grid.cell_count,
        "problems": _scan_problems(resolution, grid),
        "digests": {"margins": _margin_digest(grid)},
    }


def op_map(req: dict) -> dict:
    out_dir = req["out_dir"]
    argv = [
        "scan", "--resolution", str(req["resolution"]), "--criteria", "all",
        "--out", os.path.join(out_dir, "map.csv"),
        "--svg", os.path.join(out_dir, "map.svg"),
        "--json-out", os.path.join(out_dir, "map.json"),
    ]
    seconds, rc, _, err = _run_cli(argv)
    return {"seconds": seconds, "rc": rc, "stderr": err}


def op_point(req: dict) -> dict:
    argv = ["eval", "--g", repr(req["g"]), "--w", repr(req["w"]), "--json"]
    seconds, rc, out, err = _run_cli(argv)
    return {"seconds": seconds, "rc": rc, "stdout": out, "stderr": err}


def op_verify(req: dict) -> dict:
    argv = ["verify", "--points", str(req["points"]), "--seed", str(req["seed"])]
    seconds, rc, _, err = _run_cli(argv)
    return {"seconds": seconds, "rc": rc, "stderr": err}


OPS = {"scan": op_scan, "map": op_map, "point": op_point, "verify": op_verify}


def _send(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve(workload: str, trace: bool, spans_path: str) -> None:
    op = OPS[workload]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer("qsep")
        tracer.install()
    _send({"ready": True, "numpy": np.__version__, "report_schema": cli.REPORT_SCHEMA})
    for line in sys.stdin:
        req = json.loads(line)
        cmd = req.get("cmd", "op")
        if cmd == "op":
            if tracer is not None:
                tracer.op = req["index"]
                tracer.active = True
            reply = op(req)
            if tracer is not None:
                tracer.active = False
            _send(reply)
        elif cmd == "ref":
            _send({"seconds": reference_seconds()})
        elif cmd in ("untrace", "retrace"):
            if tracer is not None:
                (tracer.uninstall if cmd == "untrace" else tracer.reinstall)()
            _send({cmd: True})
        elif cmd == "finish":
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if tracer is not None:
                reply["layers"] = tracer.summary()
                reply["counters"] = tracer.counters
                reply["absent"] = tracer.absent
                reply["spans"] = len(tracer.span_start)
                tracer.write(spans_path)
            _send(reply)
            return


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(OPS))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    warnings.simplefilter("ignore", RuntimeWarning)
    if args.probe:
        fill_caches()
        _send({"ready": True})
        return
    warm_up()
    spin_end = time.perf_counter() + SPIN_UP_S
    while time.perf_counter() < spin_end:
        warm_up()
    serve(args.workload, bool(args.trace), args.spans)


if __name__ == "__main__":
    main()
