"""Every public name in the package has a caller outside the tests.

A public top-level name of a `cdcat` module must be referenced somewhere in
`src/`, `bench/` or `demos/` other than its own definition, or be on
EXEMPT with the reason it stays.  A name only its own unit tests call is
an API nothing uses: delete it, or give it a caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cdcat"
CALLERS = (SRC, ROOT / "bench", ROOT / "demos")

EXEMPT = {
    "FaaSampler": "the Faa sampler of the backend-contract and golden tests",
    "MatSampler": "the Mat sampler of the backend-contract and golden tests",
    "hom_action": "the hom-set action README documents for validate_family",
}


def _trees():
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _defined(stmt):
    """The public names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _referenced(node):
    """Every name a node reads, as a bare name, an attribute or an import."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def uncalled_public_names():
    """module.name of each public name read nowhere but its own definition."""
    definitions, readers = [], {}
    for path, tree in _trees():
        for stmt in tree.body:
            site = (path, stmt.lineno)
            if path.parent == SRC:
                definitions += [(name, f"{path.stem}.{name}", site)
                                for name in _defined(stmt)]
            for name in _referenced(stmt):
                readers.setdefault(name, set()).add(site)
    return sorted(qualified for name, qualified, site in definitions
                  if not readers.get(name, set()) - {site})


def test_every_public_name_has_a_caller_or_an_exemption():
    uncalled = [q for q in uncalled_public_names() if q.split(".")[1] not in EXEMPT]
    assert not uncalled, f"public names only tests call: {uncalled}"


def test_every_exemption_is_still_uncalled():
    uncalled = {q.split(".")[1] for q in uncalled_public_names()}
    assert set(EXEMPT) <= uncalled, set(EXEMPT) - uncalled
