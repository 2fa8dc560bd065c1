"""Every module-level function and class of the package, and every method
of its classes, has a caller.

A name counts as called when it appears in `src/lasagna` outside its own
definition (as a name, an attribute or a string constant, which covers the
lazy exports of `lasagna/__init__.py`), or anywhere in `perfbench/*.py`,
whose tracer wraps functions by name.  A method is looked up by its bare
name, so one that shares its name with a called function or method passes.
`catalog` is exempt: it builds the diagrams the tests and fixtures use; so
are dunders, which Python calls.  Anything else kept without a caller sits
on ALLOWED, under its name or `Class.method`, with its reason, and some
test other than this one must use it: an allowlisted definition that no
test reads is dead code kept alive by the list.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lasagna"

ALLOWED = {
    "eval_closed_surface": "oracle: closed-surface traces of the cobordism category",
    "deloop_maps": "oracle: the delooping isomorphism checked in the tests",
    "birth_map": "Morse move of the neck-cutting relation checked in the tests",
    "LinkDiagram.mirror": "oracle: the mirror's table is the reflected table",
    "DimTable.reflect": "oracle: the mirror's table is the reflected table",
    "LinkDiagram.component_count": "oracle: the Lee total rank is 2^components",
}
EXEMPT_MODULES = {"catalog"}


def _mentions(tree: ast.AST) -> Counter:
    """How often each name, attribute and string constant occurs in tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


DEFS = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level definition and each method."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEFS):
                        yield f"{node.name}.{sub.name}", sub


def _uncalled(allowed) -> list:
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    mentions = {mod: _mentions(tree) for mod, tree in trees.items()}
    missing = []
    for mod, tree in trees.items():
        if mod in EXEMPT_MODULES:
            continue
        for qual, node in _definitions(tree):
            name = node.name
            if qual in allowed or name.startswith("__"):
                continue
            named = sum(seen[name] for seen in mentions.values()) - _mentions(node)[name]
            if not named and not re.search(rf"\b{re.escape(name)}\b", bench):
                missing.append(f"{mod}.{qual}")
    return missing


def test_every_definition_has_a_caller():
    assert _uncalled(ALLOWED) == []


def test_allowlist_names_only_definitions_without_callers():
    # an allowlisted name that gains a caller, or no longer exists, leaves the list
    assert sorted(name.split(".", 1)[1] for name in _uncalled(())) == sorted(ALLOWED)


def test_allowlisted_names_are_used_by_tests():
    tests = "\n".join(p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))
                      if p.name != Path(__file__).name)
    unused = [qual for qual in ALLOWED
              if not re.search(rf"\b{re.escape(qual.rsplit('.', 1)[-1])}\b", tests)]
    assert unused == []
