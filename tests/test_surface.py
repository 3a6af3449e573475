"""The package keeps no public surface that nothing in it uses.

Every public top-level function or class of ``src/zetakit`` must be read
somewhere in ``src/`` (a ``Name`` or ``Attribute`` node, through any
import alias) outside its own definition and ``__init__``'s re-exports,
or be named in ``KEPT`` with the reason it stays.  Docstrings and
comments are not references.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zetakit"

KEPT = {
    "integrate_interval": "traced by name in perfbench/layertrace.py",
    "digamma_gap": "the mpf entry to the integral route's gap kernel, checked "
                   "against mpmath's psi by the tests",
    "hurwitz_zeta": "the package's mpmath-checked Hurwitz evaluator and a "
                    "benchmarked job",
}


def _public_definitions(trees):
    return {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _references(trees):
    """Every name read outside ``__init__``, as (module, node, name), with
    import aliases resolved to the name they bind."""
    refs = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        aliases = {a.asname: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            refs.append((module, node, aliases.get(name, name)))
    return refs


def unused_public_names(src=SRC):
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = _references(trees)
    unused = []
    for (module, name), definition in _public_definitions(trees).items():
        own = {id(node) for node in ast.walk(definition)}
        if not any(ref == name and id(node) not in own for _, node, ref in refs):
            unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_caller_or_a_reason():
    unused = [name for name in unused_public_names()
              if name.split(".")[-1] not in KEPT]
    assert not unused, f"public names nothing in src/ uses: {unused}"


def test_every_kept_name_is_still_defined_and_unused():
    # a kept entry whose name gained a caller, or left the package, is stale
    assert sorted(name.split(".")[-1] for name in unused_public_names()) == sorted(KEPT)
