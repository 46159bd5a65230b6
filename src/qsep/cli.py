"""Command-line front end: eval, scan, verify and examples subcommands.

Exit codes: 0 ok, 1 usage error, 2 consistency failure, 3 I/O failure.
The QSEP_TOL environment variable overrides the global PSD tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bipartite, classify, concurrence, criteria, linalg, scan, states, tripartite, verdict
from .config import MARGINAL_BAND, psd_tol
from .exceptions import ConsistencyError, ConvergenceError
from .states import SimplexPoint
from .verdict import HOLDS, MARGINAL, VIOLATED

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSISTENCY = 2
EXIT_IO = 3

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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
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
    p_scan.add_argument("--workers", type=_positive_int, default=1)

    p_verify = sub.add_parser("verify", help="run every cross-path consistency suite")
    p_verify.add_argument("--points", type=int, default=1000)
    p_verify.add_argument("--tol", type=_tolerance, default=1e-10)
    p_verify.add_argument("--seed", type=int, default=0)

    p_ex = sub.add_parser("examples", help="print a published example state and its verdicts")
    p_ex.add_argument("--which", required=True, choices=("class21", "class28", "pptes"))
    p_ex.add_argument("--a", type=float, help="parameter of the class28 family (a > 0)")
    return parser


# ---------------------------------------------------------------------------
# eval


def _point_report(p: SimplexPoint) -> dict:
    margins, report = classify.evaluate_point(p)
    numeric_conc, closed_conc = concurrence.concurrence_23(p)
    return {
        "schema_version": 1,
        "g": p.g,
        "w": p.w,
        "d": p.d,
        "criteria": [
            {
                "id": cid, "verdict": verdict.verdict_state(margin), "margin": margin,
                "kind": criteria.BY_ID[cid].kind,
            }
            for cid, margin in margins.items()
        ],
        "witnesses": {cid: margins[cid] for cid in criteria.GROUPS["witness"]},
        "concurrence": {"numeric": numeric_conc, "closed_form": closed_conc},
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
    grid = scan.grid_scan(args.resolution, args.criteria, workers=args.workers)
    if args.out:
        scan.export(grid, "csv", args.out)
        print(f"wrote CSV: {args.out}")
    if args.json_out:
        scan.export(grid, "json", args.json_out)
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
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    return u, v


def cmd_verify(args) -> int:
    if args.points < 1:
        raise ValueError("verify needs at least one point")
    rng = np.random.default_rng(args.seed)
    g, w = _sample_simplex(rng, args.points)
    tol = args.tol
    failures: list[str] = []
    checks: list[tuple[str, float]] = []

    def check(name: str, deviation: float, limit: float | None = None) -> None:
        limit = tol if limit is None else limit
        checks.append((name, deviation))
        if not deviation <= limit:
            failures.append(f"{name}: deviation {deviation:.3e} exceeds {limit:.1e}")

    closed = states.closed_form_spectra_grid(g, w)
    spect_pairs = (
        ("rho", "rho", states.build_rho_grid(g, w)),
        ("rho23", "rho23", states.marginal_23_grid(g, w)),
        ("rho1", "rho1", states.marginal_1_grid(g, w)),
        ("rho_t1", "rho_t1", states.partial_transpose_1_grid(g, w)),
        ("i_rho23", "rho_t1", states.reduction_i123_grid(g, w)),
        ("red1_i23", "red1_i23", states.reduction_1i23_grid(g, w)),
    )
    spect_cache = {}
    backend_worst = 0.0
    for label, key, matrices in spect_pairs:
        numeric = linalg.eigh(matrices)
        backend_worst = max(
            backend_worst, float(np.max(np.abs(numeric - linalg.jacobi_eigh(matrices))))
        )
        spect_cache.setdefault(key, numeric)
        check(f"spectrum[{label}]", float(np.max(np.abs(numeric - closed[key]))))
    # the production backend against the independent Jacobi reference
    check("eigh vs Jacobi reference", backend_worst, max(tol, 1e-12))

    # Wootters lambdas: singular values of sqrt(w) sqrt(wtilde), squared for the spectrum
    roots = linalg.psd_sqrt(states.marginal_23_grid(g, w))
    sy2 = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
    lam = linalg.singular_values(roots @ sy2 @ np.conj(roots) @ sy2)
    check("spectrum[conc23]", float(np.max(np.abs(lam**2 - closed["conc23"]))))

    conc_numeric = np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, None)
    conc_closed = concurrence.concurrence_23_closed(g, w)
    check("concurrence closed vs numeric", float(np.max(np.abs(conc_numeric - conc_closed))),
          max(tol, 1e-9))

    # template vs generic mixture construction
    ghz = states.ghz_vector()
    wv = states.w_vector()
    mixture = (
        (1.0 - g - w)[:, None, None] * (np.eye(8) / 8.0)
        + g[:, None, None] * np.outer(ghz, np.conj(ghz))
        + w[:, None, None] * np.outer(wv, np.conj(wv))
    )
    check("rho template vs mixture", float(np.max(np.abs(states.build_rho_grid(g, w) - mixture))))

    svs = linalg.singular_values(states.reshuffle_24_grid(g, w))
    check(
        "reshuffling singular values",
        float(np.max(np.abs(svs - bipartite.reshuffle24_closed_singular_values(g, w)))),
    )

    closed_wit = tripartite.witness_closed_forms(g, w)
    worst = 0.0
    for name, numeric in tripartite.witness_traces(states.build_rho_grid(g, w)).items():
        worst = max(worst, float(np.max(np.abs(numeric - closed_wit[name]))))
    check("witness traces", worst)

    # sign agreements (violation counts, not deviations)
    m1, m23 = bipartite.majorization_margins_from_spectra(spect_cache)
    c1, c23 = bipartite.majorization_case_margins(g, w)
    bad = int(np.sum(~verdict.signs_agree(m1, c1))) + int(np.sum(~verdict.signs_agree(m23, c23)))
    check("majorization vs case table (sign violations)", float(bad), 0.0)

    q1, q2 = bipartite.ppt_closed_margins(g, w)
    ppt_margin = spect_cache["rho_t1"][:, -1]
    check(
        "ppt vs quadratics (sign violations)",
        float(np.sum(~verdict.signs_agree(ppt_margin, np.minimum(q1, q2)))),
        0.0,
    )

    red_margin = np.minimum(spect_cache["rho_t1"][:, -1], spect_cache["red1_i23"][:, -1])
    agree = verdict.codes(ppt_margin) == verdict.codes(red_margin)
    check("reduction vs ppt verdict mismatches", float(np.sum(~agree)), 0.0)

    su = {  # su_margins_grid raises on any sign conflict with the closed polynomials
        (idx, level): tripartite.su_margins_grid(g, w, idx, level)
        for idx in range(3)
        for level in tripartite.LEVELS
    }
    check("spin criteria vs closed polynomials (sign violations)", 0.0, 0.0)

    hub = {
        (tag, k): tripartite.huber_margins_grid(g, w, tag, k) for tag in ("ghz", "w") for k in (2, 3)
    }
    su_equiv = (
        ("ghz", 2, 0, "2sep"), ("ghz", 3, 0, "28cap3"),
        ("w", 2, 1, "2sep"), ("w", 3, 1, "28cap3"),
    )
    mismatches = 0
    for tag, k, setting_idx, level in su_equiv:
        hub_codes, su_codes = verdict.codes(hub[(tag, k)]), verdict.codes(su[(setting_idx, level)])
        mismatches += int(np.sum((hub_codes != su_codes) & (hub_codes != 0) & (su_codes != 0)))
    check("swap criterion vs spin criteria verdict mismatches", float(mismatches), 0.0)

    # explicit per-point paths on a deterministic subsample
    sub = np.linspace(0, args.points - 1, num=min(args.points, 20), dtype=int)
    worst_su = 0.0
    worst_hub = 0.0
    worst_gs = 0.0
    for n in sub:
        p = SimplexPoint(g[n], w[n])
        # each raises if its generic index path deviates from the entry template
        states.marginals(p)
        states.partial_transpose_1(p)
        states.reduction_matrices(p)
        states.reshuffle_24(p)
        states.reshuffle_222(p)
        for idx2 in range(3):
            for level in tripartite.LEVELS:
                v = tripartite.criterion_su(p, (tripartite.PUBLISHED_SETTINGS[idx2],) * 3, level)
                worst_su = max(worst_su, abs(v.margin - float(su[(idx2, level)][n])))
        for tag, phi in (("ghz", tripartite.phi_ghz()), ("w", tripartite.phi_w())):
            for k in (2, 3):
                v = tripartite.criterion_huber(p, phi, k)
                worst_hub = max(worst_hub, abs(v.margin - float(hub[(tag, k)][n])))
        gs2 = tripartite.criterion_gs_biseparable(p)
        closed_gs2 = tripartite.gs2_closed_margins(g[n], w[n])
        worst_gs = max(worst_gs, abs(gs2.parts["gs2_ghz"] - float(closed_gs2[0])))
        worst_gs = max(worst_gs, abs(gs2.parts["gs2_w"] - float(closed_gs2[1])))
        tripartite.criterion_gs_fullsep(p)  # raises if closed forms deviate
    check("spin criteria explicit vs grid", worst_su, max(tol, 1e-12))
    check("swap criterion explicit vs grid", worst_hub, max(tol, 1e-12))
    check("matrix-element criteria closed forms", worst_gs, max(tol, 1e-12))

    # containment observation for the 2-3 reshuffling criterion (reported only)
    perm_margin = 1.0 - np.sum(linalg.singular_values(states.reshuffle_222_grid(g, w)), axis=-1)
    escapees = int(np.sum((perm_margin < -MARGINAL_BAND) & (ppt_margin > MARGINAL_BAND)))
    print(
        "note: 2-3 reshuffling violations outside the partial-transposition "
        f"violation set: {escapees} of {args.points} points"
    )

    width = max(len(name) for name, _ in checks)
    for name, deviation in checks:
        status = "FAIL" if any(f.startswith(name + ":") for f in failures) else "pass"
        print(f"{status}  {name:<{width}}  {deviation:.3e}")
    print(f"verified {args.points} random points (seed {args.seed}, tol {tol:g})")
    if failures:
        for failure in failures:
            print(f"FAILURE: {failure}", file=sys.stderr)
        return EXIT_CONSISTENCY
    print("all consistency checks passed")
    return EXIT_OK


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
        scale = 2.0 + 3.0 * (args.a + 1.0 / args.a)
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
    tn222 = float(linalg.trace_norm(states.reshuffle_222_matrix(rho)))
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
