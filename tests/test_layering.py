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


def modular_inverses(tree, module):
    """``module.function`` of each call ``pow(a, -1, m)`` in ``tree``, by
    its innermost enclosing function (methods named through their class)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "pow"
                and len(child.args) == 3
                and ast.unparse(child.args[1]) == "-1"
            ):
                yield ".".join([module] + scope)
            yield from visit(child, scope)

    yield from visit(tree, [])


def test_modular_inverses_live_in_the_division_rules():
    """Every p-adic quotient is ``padic.div_triples``, so only it inverts a
    unit.  ``series._packed_div_int`` is kept apart: it divides a whole
    packed series by one exact integer for the Taylor orders, inverting the
    integer's unit once per call rather than once per slot, and it keeps a
    zero-like slot without digits where ``PadicNum.div_int`` raises."""
    src = Path(lubinlab.__file__).parent
    sites = [
        site
        for path in sorted(src.glob("*.py"))
        for site in modular_inverses(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert sorted(sites) == ["padic.div_triples", "series._packed_div_int"]


def variable_counts(tree, module):
    """(module, line, kind) of each occurrence of ``nvars`` in ``tree``: a
    parameter, a keyword, an attribute, a name or a string (a slot), except
    the target of the class constant ``nvars = 1`` in ``series.PSeries``."""
    constant = None
    for node in ast.walk(tree):
        if module == "series" and isinstance(node, ast.ClassDef) and node.name == "PSeries":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and ast.unparse(stmt) == "nvars = 1":
                    constant = stmt.targets[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg == "nvars":
            yield module, node.lineno, "parameter"
        elif isinstance(node, ast.keyword) and node.arg == "nvars":
            yield module, node.value.lineno, "keyword"
        elif isinstance(node, ast.Attribute) and node.attr == "nvars":
            yield module, node.lineno, "attribute"
        elif isinstance(node, ast.Name) and node.id == "nvars" and node is not constant:
            yield module, node.lineno, "name"
        elif isinstance(node, ast.Constant) and node.value == "nvars":
            yield module, node.lineno, "string"


def test_series_take_no_variable_count():
    """``PSeries`` is a series in one variable, and the law of
    ``formalgroup`` keeps its own coefficient table: ``nvars`` occurs in
    ``src/lubinlab`` only as the class constant ``PSeries.nvars = 1``,
    never as a parameter, a slot, an attribute read or a branch."""
    src = Path(lubinlab.__file__).parent
    uses = [
        use
        for path in sorted(src.glob("*.py"))
        for use in variable_counts(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert uses == []
    assert lubinlab.PSeries.nvars == 1 and "nvars" not in lubinlab.PSeries.__slots__


def private_imports(tree, source):
    """The underscored names an import in ``tree`` takes from the lubinlab
    module ``source``, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (source, f"lubinlab.{source}"):
            yield from (a.name for a in node.names if a.name.startswith("_"))


def test_dynamics_takes_only_the_iterates_and_the_solve_from_the_kernel():
    """The iterate limit runs on the public rules of series and scalars: of
    the private kernel of ``series``, ``dynamics`` takes only the iterate
    chain, its unpacking and the logarithm's solve, and of ``padic`` none."""
    tree = ast.parse((Path(lubinlab.__file__).parent / "dynamics.py").read_text(encoding="utf-8"))
    assert sorted(set(private_imports(tree, "series")) - {"_iterates", "_solve_by_powers", "_unpack"}) == []
    assert list(private_imports(tree, "padic")) == []
