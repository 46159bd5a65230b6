"""Code that no caller needs is deleted: every top-level name in ``src/qsep``,
and every public method and property of its classes, must be referenced
from some other line of ``src/``, or be listed below with the reason it
stays.

A name counts as referenced when its own module loads it, when another
module reads it as an attribute of the module (``states.build_rho``,
``registry.IDS``), or when another module imports it by name.  A class
member (``module.Class.member``) counts as referenced when any line of
``src/`` reads an attribute of that name.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qsep"

# module.name or module.Class.member -> why it stays without a caller in src/
ALLOWED_WITHOUT_CALLER = {
    "classify.classify_point": "public API: the class report of one point (README, tests)",
    "cli._Parser.error": "override: argparse calls it, so a usage error exits 1, not 2",
    "scan.boundary_bisect": "public API: boundary constants along a ray (README, acceptance)",
    "scan.import_json": "public API: reads a JSON export back (tests, benchmark output checks)",
    "scan.RegionGrid.pptes_points": "public API: the PPTES cells of a scan (README)",
    "tripartite.random_setting_search": "public API: the search over random spin settings (tests)",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _defined(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assigned names, dunders excluded."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, member) for the public methods and properties of top-level classes."""
    return [
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def _referenced(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) pairs that some line of src/ reads."""
    refs = set()
    for module, tree in modules.items():
        aliases = {}  # local name -> sibling module, from "from . import x [as y]"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        refs.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add((module, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                refs.add((aliases[node.value.id], node.attr))
    return refs


def _without_caller() -> tuple[set[str], set[str]]:
    modules = _modules()
    refs = _referenced(modules)
    read = {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    defined = {f"{module}.{name}" for module, tree in modules.items() for name in _defined(tree)}
    unreferenced = {qualified for qualified in defined if tuple(qualified.split(".")) not in refs}
    for module, tree in modules.items():
        for cls, member in _members(tree):
            defined.add(f"{module}.{cls}.{member}")
            if member not in read:
                unreferenced.add(f"{module}.{cls}.{member}")
    return defined, unreferenced


def test_every_top_level_name_has_a_caller_or_a_reason():
    _, unreferenced = _without_caller()
    assert sorted(unreferenced - set(ALLOWED_WITHOUT_CALLER)) == []


def test_allowlist_names_only_existing_names_without_a_caller():
    defined, unreferenced = _without_caller()
    assert sorted(set(ALLOWED_WITHOUT_CALLER) - defined) == [], "no longer exists"
    assert sorted(set(ALLOWED_WITHOUT_CALLER) - unreferenced) == [], "has a caller now"



def _calls(name: str) -> set[tuple[str, str]]:
    """(module, enclosing top-level definition) of every call of ``name`` in src/,
    as a bare name or as an attribute."""
    return {
        (module, getattr(top, "name", ""))
        for module, tree in _modules().items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def test_cross_checks_are_made_in_one_place():
    # every grid-path check is a recording method of criteria.Batch; the sign checks
    # outside it are the explicit-observable per-point reference and the shared
    # boundaries of the majorization case table, and all of them read verdict.sign_gap
    for name in ("check_close", "check_signs"):
        assert {module for module, _ in _calls(name)} == {"criteria"}, name
    assert _calls("sign_gap") == {
        ("criteria", "Batch"), ("tripartite", "criterion_su"),
        ("bipartite", "majorization_case_margins"),
    }


def test_worst_cell_is_chosen_in_one_place():
    # the registry's recording checks and every verify line name the worst cell through
    # verdict.worst
    assert _calls("worst") == {("criteria", "Batch"), ("cli", "cmd_verify")}


def _is_sign_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "sign"


def test_sign_rule_is_defined_once():
    # the one comparison of the signs of two margins is verdict.sign_gap
    comparisons = {
        (module, getattr(top, "name", ""))
        for module, tree in _modules().items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Compare)
        and sum(map(_is_sign_call, [node.left, *node.comparators])) >= 2
    }
    assert comparisons == {("verdict", "sign_gap")}


def test_lapack_spectra_are_called_only_in_linalg():
    # every eigensolver and SVD call goes through qsep.linalg, whose block pass
    # makes one call per block shape
    spectral = {"eigvalsh", "eigh", "eig", "eigvals", "svd"}
    callers = {
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in spectral
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "linalg"
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id in ("np", "numpy", "scipy")
    }
    assert callers == {"linalg"}
