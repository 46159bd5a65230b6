"""Command-line front end: eval, scan, verify and examples subcommands.

Exit codes: 0 ok, 1 usage error, 2 consistency failure, 3 I/O failure.
The QSEP_TOL environment variable overrides the global PSD tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import classify, concurrence, criteria, linalg, scan, states, tripartite, verdict
from .config import MARGINAL_BAND, psd_tol
from .exceptions import ConsistencyError, ConvergenceError
from .states import SimplexPoint
from .verdict import HOLDS, MARGINAL, VIOLATED

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSISTENCY = 2
EXIT_IO = 3

MAX_POINTS = 100_000  # largest verify sample: about 13 KB per point, 1.3 GB in all

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "qsep point report",
    "type": "object",
    "required": [
        "schema_version", "g", "w", "d", "criteria", "witnesses",
        "concurrence", "classification",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "g": {"type": "number"},
        "w": {"type": "number"},
        "d": {"type": "number"},
        "criteria": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "verdict", "margin", "kind"],
                "properties": {
                    "id": {"type": "string"},
                    "verdict": {"enum": [HOLDS, VIOLATED, MARGINAL]},
                    "margin": {"type": "number"},
                    "kind": {"type": "string"},
                },
            },
        },
        "witnesses": {
            "type": "object",
            "required": list(criteria.GROUPS["witness"]),
            "additionalProperties": {"type": "number"},
        },
        "concurrence": {
            "type": "object",
            "required": ["numeric", "closed_form"],
            "properties": {
                "numeric": {"type": "number"},
                "closed_form": {"type": "number"},
            },
        },
        "classification": {
            "type": "object",
            "required": [
                "g", "w", "possible_classes", "slocc", "exclusions", "exact",
                "pptes_certified", "marginal",
            ],
        },
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage failures exit 1, not argparse's 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate every criterion at one simplex point")
    p_eval.add_argument("--g", type=float, help="GHZ weight")
    p_eval.add_argument("--w", type=float, help="W weight")
    p_eval.add_argument("--json", action="store_true", help="emit the JSON report object")
    p_eval.add_argument("--schema", action="store_true",
                        help="print the JSON schema of the report object and exit")

    p_scan = sub.add_parser("scan", help="sweep the simplex and export artifacts")
    p_scan.add_argument("--resolution", type=int, default=400)
    p_scan.add_argument("--criteria", default="all",
                        help="comma list of criterion ids or groups (default: all)")
    p_scan.add_argument("--out", help="CSV output path")
    p_scan.add_argument("--svg", help="SVG map output path")
    p_scan.add_argument("--json-out", help="JSON report-array output path")
    p_scan.add_argument("--workers", type=functools.partial(_int_at_least, 1),
                        help="threads evaluating chunks (default: the usable cores)")

    p_verify = sub.add_parser("verify", help="run every cross-path consistency suite")
    p_verify.add_argument("--points", type=functools.partial(_int_at_least, 1), default=1000)
    p_verify.add_argument("--tol", type=_tolerance, default=1e-10)
    p_verify.add_argument("--seed", type=functools.partial(_int_at_least, 0), default=0)

    p_ex = sub.add_parser("examples", help="print a published example state and its verdicts")
    p_ex.add_argument("--which", required=True, choices=("class21", "class28", "pptes"))
    p_ex.add_argument("--a", type=float, help="parameter of the class28 family (a > 0)")
    return parser


# ---------------------------------------------------------------------------
# eval


def _point_report(p: SimplexPoint) -> dict:
    margins, codes, report = classify.evaluate_point(p)
    numeric_conc, closed_conc = concurrence.concurrence_23(np.array([p.g]), np.array([p.w]))
    return {
        "schema_version": 1,
        "g": p.g,
        "w": p.w,
        "d": p.d,
        "criteria": [
            {
                "id": cid, "verdict": verdict.CODE_NAMES[codes[cid]], "margin": margin,
                "kind": criteria.BY_ID[cid].kind,
            }
            for cid, margin in margins.items()
        ],
        "witnesses": {cid: margins[cid] for cid in criteria.GROUPS["witness"]},
        "concurrence": {"numeric": float(numeric_conc[0]), "closed_form": float(closed_conc[0])},
        "classification": report.to_dict(),
    }


def cmd_eval(args) -> int:
    if args.schema:
        print(json.dumps(REPORT_SCHEMA, indent=2))
        return EXIT_OK
    if args.g is None or args.w is None:
        raise ValueError("eval needs both --g and --w")
    p = SimplexPoint(args.g, args.w)
    payload = _point_report(p)
    if args.json:
        print(json.dumps(payload))
        return EXIT_OK
    cls = payload["classification"]
    print(f"point: g={p.g:g} w={p.w:g} d={p.d:g}")
    print(f"{'criterion':<20} {'verdict':<9} margin")
    for entry in payload["criteria"]:
        print(f"{entry['id']:<20} {entry['verdict']:<9} {entry['margin']:+.12e}")
    print("witnesses: " + " ".join(f"{k}={v:+.9f}" for k, v in payload["witnesses"].items()))
    conc = payload["concurrence"]
    print(f"concurrence(rho23): numeric={conc['numeric']:.12f} closed={conc['closed_form']:.12f}")
    print(f"possible classes: {{{', '.join(cls['possible_classes'])}}}"
          f"{' (exact)' if cls['exact'] else ''}")
    print(f"slocc: {cls['slocc']}")
    if cls["pptes_certified"]:
        print("PPTES-certified: positive partial transpose, full separability excluded")
    if cls["marginal"]:
        print(f"marginal criteria: {', '.join(cls['marginal'])}")
    for excluded_class, criterion in cls["exclusions"]:
        print(f"excluded class {excluded_class} by {criterion}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    if not (args.out or args.svg or args.json_out):
        raise ValueError("scan needs at least one of --out, --svg or --json-out")
    exports: dict[str, str] = {}  # resolved path -> the option that names it
    for option, path in (("--out", args.out), ("--json-out", args.json_out), ("--svg", args.svg)):
        if path:
            other = exports.setdefault(os.path.realpath(path), option)
            if other != option:
                raise ValueError(f"{other} and {option} name the same file {path!r}")
    grid = scan.grid_scan(args.resolution, args.criteria, workers=args.workers)
    if args.out or args.json_out:
        scan.export_tables(grid, csv_path=args.out, json_path=args.json_out)
    if args.out:
        print(f"wrote CSV: {args.out}")
    if args.json_out:
        print(f"wrote JSON: {args.json_out}")
    if args.svg:
        scan.export(grid, "svg", args.svg)
        print(f"wrote SVG: {args.svg}")
    print(
        f"scanned {grid.cell_count} cells at resolution {grid.resolution} "
        f"({len(grid.criteria)} criteria); "
        f"PPTES-flagged cells: {int(grid.pptes.sum())}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _sample_simplex(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    u, v = rng.random(count), rng.random(count)
    flip = u + v > 1.0
    return np.where(flip, 1.0 - u, u), np.where(flip, 1.0 - v, v)


# swap criteria and the spin criteria equivalent to them here: non-marginal verdicts agree
_EQUIVALENT = (
    ("huber_ghz_k2", "su2_set1"), ("huber_ghz_k3", "su283_set1"),
    ("huber_w_k2", "su2_set2"), ("huber_w_k3", "su283_set2"),
)


def _where(line: tuple) -> str:
    """' at (g=..., w=...)' for a line with a cell, then ' in <family>' if it names one."""
    _, g, w, _, *family = line
    return ("" if g is None else f" at {verdict.cell_name(g, w)}") + "".join(f" in {f}" for f in family)


def _record(lines: dict[str, tuple], name: str, line: tuple) -> None:
    """Add ``line``, ``(worst, g, w, limit[, family])``, to ``lines`` under ``name`` and print it."""
    lines[name] = line
    value, _, _, limit, *_ = line
    print(f"{'pass' if value <= limit else 'FAIL'}  {name:<46}  {value:.3e}{_where(line)}")


def cmd_verify(args) -> int:
    if args.points > MAX_POINTS:
        raise ValueError(f"verify --points {args.points} is over the cap MAX_POINTS = {MAX_POINTS}")
    g, w = _sample_simplex(np.random.default_rng(args.seed), args.points)
    tol = args.tol
    # one line per check: (worst value, g and w of its cell, limit[, family]); a count
    # has no cell.  A check that raises ends the table, as a failure of its own
    lines: dict[str, tuple] = {}
    raised: list[str] = []
    try:
        # the registry's batch: verify reads rho, the closed forms, each family's source and
        # its sorted spectra from it, and its registry pass runs on it
        batch = criteria.Batch(g, w)
        families = {layout: layout.family(batch.source(layout)) for layout in states.FAMILIES}
        # the sum-built templates against the generic maps of the independent mixture,
        # first: the registry reads them, so a broken one fails on its own line
        mixture = states.build_rho_mixture_grid(g, w)
        rho23, rho1 = states.partial_trace_1(mixture), states.partial_trace_23(mixture)
        generic = {
            states.MARGINAL_23_BLOCKS: rho23,
            states.MARGINAL_1_BLOCKS: rho1,
            states.REDUCTION_I123_BLOCKS: np.kron(np.eye(2)[None], rho23) - mixture,
            states.REDUCTION_1I23_BLOCKS: np.kron(rho1, np.eye(4)[None]) - mixture,
        }
        for layout, reference in generic.items():
            value, n = verdict.worst(np.abs(families[layout] - reference))
            _record(lines, f"{layout.name} template vs generic map",
                    (value, g[n], w[n], min(tol, states.TEMPLATE_TOL)))

        # every registry check; evaluate has raised if one is past its own fixed tolerance
        margins = batch.evaluate(criteria.IDS)
        for name, line in batch.deviations.items():
            _record(lines, name, (*line, tol))

        # the block path, as in the registry, against full-matrix LAPACK on every family built
        # in full through its layout's map; the second numeric path of perm222
        full = {layout: linalg.singular_values(m) if layout.singular else linalg.eigh(m)
                for layout, m in families.items()}
        deviation = np.stack([np.max(np.abs(full[layout] - batch.spectrum(layout)), axis=-1)
                              for layout in families])
        _, k = verdict.worst(deviation)  # on a tie, the first family, then its first cell
        value, n = verdict.worst(deviation[k])
        _record(lines, "block spectra vs full LAPACK",
                (value, g[n], w[n], min(tol, linalg.BLOCK_TOL), list(families)[k].name))

        # the production backend against the independent Jacobi reference
        value, n = verdict.worst(np.concatenate(
            [np.abs(full[layout] - linalg.jacobi_eigh(m))
             for layout, m in families.items() if not layout.singular], axis=-1))
        _record(lines, "eigh vs Jacobi reference", (value, g[n], w[n], max(tol, 1e-12)))

        lam = concurrence.wootters_lambdas(families[states.MARGINAL_23_BLOCKS])
        value, n = verdict.worst(np.abs(lam**2 - batch.closed["conc23"]))
        _record(lines, "spectrum[conc23]", (value, g[n], w[n], tol))
        # the Wootters concurrence, max(0, l1 - l2 - l3 - l4), from the same lambdas
        numeric = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
        value, n = verdict.worst(np.abs(numeric - concurrence.concurrence_23_closed(g, w)))
        _record(lines, "concurrence closed vs numeric", (value, g[n], w[n], max(tol, 1e-9)))

        value, n = verdict.worst(np.abs(batch.rho - mixture))
        _record(lines, "rho template vs mixture", (value, g[n], w[n], tol))

        mismatches = verdict.codes(margins["ppt"]) != verdict.codes(margins["reduction"])
        _record(lines, "reduction vs ppt verdict mismatches", (float(np.sum(mismatches)), None, None, 0.0))
        for a, b in _EQUIVALENT:
            codes_a, codes_b = verdict.codes(margins[a]), verdict.codes(margins[b])
            conflicts = (codes_a != codes_b) & (codes_a != 0) & (codes_b != 0)
            _record(lines, f"{a} vs {b} verdict mismatches", (float(np.sum(conflicts)), None, None, 0.0))

        # explicit per-point paths on a deterministic subsample
        settings = tripartite.PUBLISHED_SETTINGS
        phi = {"ghz": tripartite.phi_ghz(), "w": tripartite.phi_w()}
        subsample = np.linspace(0, args.points - 1, num=min(args.points, 20), dtype=int)
        points = [SimplexPoint(g[n], w[n]) for n in subsample]
        everywhere = np.arange(args.points)
        gs2_ghz, gs2_w = tripartite.gs2_element_margins(mixture)
        references = {  # cid -> (the cells it is read on, its margins there)
            **{cid: (subsample, [tripartite.criterion_su(p, (settings[idx],) * 3, level) for p in points])
               for cid, (idx, level) in criteria.SPIN.items()},
            **{cid: (subsample, [tripartite.criterion_huber(p, phi[tag], k) for p in points])
               for cid, (tag, k) in criteria.SWAP.items()},
            # the matrix-element criteria read off the independent mixture, on every point
            "gs2_ghz": (everywhere, gs2_ghz), "gs2_w": (everywhere, gs2_w),
            "gs3": (everywhere, np.min(list(tripartite.gs3_element_margins(mixture).values()), axis=0)),
        }
        for cid, (cells, values) in references.items():
            value, i = verdict.worst(np.abs(values - margins[cid][cells]))
            _record(lines, f"{cid} explicit vs grid", (value, g[cells[i]], w[cells[i]], max(tol, 1e-12)))

        # containment observation for the 2-3 reshuffling criterion (reported only)
        escapees = int(np.sum((margins["perm222"] < -MARGINAL_BAND) & (margins["ppt"] > MARGINAL_BAND)))
        print(
            "note: 2-3 reshuffling violations outside the partial-transposition "
            f"violation set: {escapees} of {args.points} points"
        )
        print(f"verified {args.points} random points (seed {args.seed}, tol {tol:g})")
    except (ConsistencyError, ConvergenceError) as exc:
        raised.append(str(exc))
    failures = [f"{name}: deviation {line[0]:.3e} exceeds {line[3]:.1e}{_where(line)}"
                for name, line in lines.items() if not line[0] <= line[3]] + raised
    if not failures:
        print("all consistency checks passed")
        return EXIT_OK
    for failure in failures:
        print(f"FAILURE: {failure}", file=sys.stderr)
    return EXIT_CONSISTENCY


# ---------------------------------------------------------------------------
# examples


def _print_matrix(matrix: np.ndarray, scale_note: str) -> None:
    print(f"density matrix = {scale_note} x")
    for row in matrix:
        cells = []
        for value in row:
            real = value.real
            cells.append(f"{real:10.6g}" if abs(real) > 1e-14 else f"{'.':>10}")
        print("  [" + " ".join(cells) + "]")


def cmd_examples(args) -> int:
    if args.which == "class28":
        if args.a is None:
            raise ValueError("examples --which class28 needs --a")
        rho = states.example_states("class28", a=args.a)
        scale = states.class28_normaliser(args.a)
        _print_matrix(rho * scale, f"1/{scale:g}")
    elif args.which == "class21":
        rho = states.example_states("class21")
        _print_matrix(rho * 6.0, "1/6")
    else:
        rho = states.example_states("pptes")
        _print_matrix(rho * 120.0, "1/120")
        family = states.build_rho(SimplexPoint(0.2, 0.2))
        print(f"matches rho(g=1/5, w=1/5): max deviation {np.max(np.abs(rho - family)):.2e}")
    pt = linalg.permute_indices(rho, linalg.TRANSPOSE_1_PERM)
    vals = linalg.hermitian_eigenvalues(pt)
    minimum = float(vals[-1])
    if minimum < -MARGINAL_BAND:
        print(f"partial transpose: not positive (min eigenvalue {minimum:+.9e}) -> NPT")
    else:
        print(f"partial transpose: positive semidefinite (min eigenvalue {minimum:+.9e})")
    tn24 = float(linalg.trace_norm(states.reshuffle_24_matrix(rho)))
    tn222 = float(linalg.trace_norm(linalg.permute_indices(rho, linalg.RESHUFFLE_23_PERM)))
    print(f"reshuffling trace norms: 1|23 cut {tn24:.9f}, 2-3 reshuffle {tn222:.9f}")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "eval": cmd_eval,
        "scan": cmd_scan,
        "verify": cmd_verify,
        "examples": cmd_examples,
    }
    try:
        psd_tol()  # validates QSEP_TOL before any work
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"qsep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConsistencyError, ConvergenceError) as exc:
        print(f"qsep: consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except OSError as exc:
        print(f"qsep: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
