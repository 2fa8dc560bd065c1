"""Every module-level function and class of the package, and every method
of its classes, has a caller.

A name counts as called when it appears in `src/lasagna` outside its own
definition (as a name, an attribute or a string constant, which covers the
lazy exports of `lasagna/__init__.py`), or anywhere in `perfbench/*.py`,
whose tracer wraps functions by name.  A method is looked up by its bare
name, so a method whose name another package definition also has, or a
method of dict, set, list, tuple or str has, would pass on their mentions;
such a method passes only through SHARED, which names one call site that
reads `.name` there.  `catalog` is exempt: it builds the diagrams the tests
and fixtures use; so are dunders, which Python calls.  Anything else kept
without a caller sits on ALLOWED, under its name or `Class.method`, with
its reason, and some test other than this one must use it: an allowlisted
definition that no test reads is dead code kept alive by the list.
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
# Methods with a shared bare name -> the `module.definition` that calls them.
# Reviewed: at that site, the receiver of `.name` is an instance of the class.
SHARED = {
    "FlatTangle.keys": "complexes.BigradedComplex.homology_dims",
    "_Symmetrizer.apply": "skein._window_stages",
    "BigradedComplex.pivots": "complexes.BigradedComplex.simplify",
    "BigradedComplex.unit": "khovanov.Scan.__init__",
    "BigradedComplex.generators": "complexes.planar_tensor",
    "BigradedComplex.homology_dims": "khovanov.kh_dims",
    "Cube.generators": "densecube.Cube.blocks",
    "Cube.homology_dims": "khovanov.kh_dims_bruteforce",
    "ChainMap.apply": "skein._transition_matrix",
    "Crossing.mirror": "diagram.LinkDiagram.mirror",
    "LinkDiagram.writhe": "khovanov.khr2_dims",
    "LinkDiagram.to_json_obj": "cli.serve",
    "Grading.shift": "complexes.BigradedComplex.deloop_generator",
    "DimTable.add": "gradings.DimTable.__init__",
    "DimTable.items": "gradings.DimTable.to_json_obj",
    "DimTable.shift": "khovanov.tilde_renormalize",
    "DimTable.to_json_obj": "cli.cmd_kh",
    "Scan.add": "khovanov.scan_complex",
    "Echelon.pivots": "linalg.row_reduce",
    "Echelon.reduce": "linalg.kernel_basis",
    "Echelon.add": "densecube.Cube.homology_basis",
    "TwistLadder.writhe": "projector.twisted_tilde_table",
    "RWResult.to_json_obj": "cli._flagged_entry",
    "LasagnaResult.to_json_obj": "cli._flagged_entry",
}
BUILTIN_METHODS = set().union(*map(dir, (dict, set, list, tuple, str)))


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


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _shared(trees) -> list:
    """`Class.method` of each method whose bare name is shared."""
    names = Counter(node.name for tree in trees.values() for _, node in _definitions(tree))
    return [qual for mod, tree in trees.items() if mod not in EXEMPT_MODULES
            for qual, node in _definitions(tree)
            if "." in qual and not node.name.startswith("__")
            and (names[node.name] > 1 or node.name in BUILTIN_METHODS)]


def _uncalled(allowed) -> list:
    trees = _trees()
    shared = set(_shared(trees))
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
            if qual in shared:
                called = qual in SHARED
            else:
                named = sum(seen[name] for seen in mentions.values()) - _mentions(node)[name]
                called = named or re.search(rf"\b{re.escape(name)}\b", bench)
            if not called:
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


def test_shared_names_pass_only_through_a_reviewed_call_site():
    trees = _trees()
    assert sorted(q for q in _shared(trees) if q not in ALLOWED) == sorted(SHARED)
    for qual, site in SHARED.items():
        mod, site_qual = site.split(".", 1)
        [node] = [n for q, n in _definitions(trees[mod]) if q == site_qual]
        name = qual.rsplit(".", 1)[1]
        assert site_qual != qual
        assert any(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node)), site
