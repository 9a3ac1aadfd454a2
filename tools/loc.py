"""Count the lines of each module of ``src/lubinlab``: total lines and code lines.

A code line holds a token other than a comment or a line break and lies
outside every docstring; a docstring is the leading string of a module,
class or function, as ``ast`` finds it.  Run from anywhere in a checkout:

    python tools/loc.py
"""

import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The line numbers spanned by the docstrings of a module's source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(total lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def main():
    total = code = 0
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "lubinlab").glob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total, code = total + t, code + c
        print(f"{t:6d} {c:6d}  {path.name}")
    print(f"{total:6d} {code:6d}  total")


if __name__ == "__main__":
    main()
