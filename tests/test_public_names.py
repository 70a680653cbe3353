"""Every public top-level function and class of nllc has a caller.

A name has a caller when another top-level statement of the package, or a
non-test module of perfbench, refers to it by a Name, an Attribute or an
ImportFrom; a docstring that mentions it does not count.  REFERENCES lists
the names that have none, each with the test that compares against it or the
ROADMAP item that waits for it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REFERENCES = {
    "gradient_descent": "test_fixed_point_and_descent_minimisers_agree_and_stay_physical: "
                        "the independent minimiser the EL fixed point is checked against",
    "energy_gradient": "test_energy_gradient_matches_finite_differences: the EL gradient",
    "singular_set": "ROADMAP item 1: convergence.csv from eps-sweep",
    "uniform_convergence_report": "ROADMAP item 1: convergence.csv from eps-sweep",
}


def _names(node):
    """The identifiers a syntax tree refers to."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _uncalled():
    """The package's public top-level definitions without a caller."""
    statements = [stmt for path in sorted((ROOT / "src" / "nllc").glob("*.py"))
                  for stmt in _parse(path).body]
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            bench.update(_names(_parse(path)))
    refs = [set(_names(stmt)) for stmt in statements]
    return {stmt.name for i, stmt in enumerate(statements)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
            and stmt.name not in bench
            and not any(stmt.name in r for j, r in enumerate(refs) if j != i)}


def test_every_public_name_has_a_caller_or_is_a_listed_reference():
    # a listed name that gains a caller, or leaves the package, leaves the list too
    assert sorted(_uncalled()) == sorted(REFERENCES)
