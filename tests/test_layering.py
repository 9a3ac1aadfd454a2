"""The modules of lubinlab form layers: each imports only from lower ones."""

import ast
from pathlib import Path

import lubinlab

# dynamics and formalgroup share a rank: neither may import the other
RANKS = {
    "errors": 0,
    "padic": 1,
    "series": 2,
    "polygon": 3,
    "dynamics": 4,
    "formalgroup": 4,
    "analyzer": 5,
    "cli": 6,
}


def imported_modules(tree):
    """The lubinlab modules an import in ``tree`` names, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if not node.level:
                if parts[:1] != ["lubinlab"]:
                    continue
                parts = parts[1:]
            # ``from . import series`` names the module as an alias
            yield from parts[:1] or [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("lubinlab."))


def test_every_import_goes_to_a_lower_layer():
    src = Path(lubinlab.__file__).parent
    modules = sorted(f.stem for f in src.glob("*.py") if f.stem != "__init__")
    assert modules == sorted(RANKS)
    upward = [
        (name, target)
        for name in modules
        for target in imported_modules(ast.parse((src / f"{name}.py").read_text(encoding="utf-8")))
        if RANKS[target] >= RANKS[name]
    ]
    assert upward == []
