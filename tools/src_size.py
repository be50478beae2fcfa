"""Print the size of the package source: its line count, its code lines and its longest functions.

The line count is that of ``cat src/reebflow/*.py | wc -l``.  The code
lines of the package follow: those lines less the lines of its module,
class and function docstrings (from the syntax tree), the lines that hold
only a comment (from the tokens) and the other blank lines, so prose and
code are counted apart.  The counts of ``tests/*.py`` and ``tools/*.py``
come next, taken as the first.  A function's length is the span of its ``def`` in the syntax tree, from the ``def`` line
to its last line, docstring and comments included.  Nested functions count
inside their parent and are not listed on their own; methods are listed as
``Class.method``.  Run from anywhere:

    python tools/src_size.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spans(path: Path) -> list[tuple[str, int]]:
    """(name, lines) of every function of the module at ``path`` that is not nested in another."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child.end_lineno - child.lineno + 1))
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text()), "")
    return out


def split(path: Path) -> tuple[int, int, int, int]:
    """(code, docstring, comment-only, blank) line counts of the module at ``path``; they sum to its lines.

    A blank line inside a docstring counts as a docstring line."""
    text = path.read_text()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    layout = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = text.splitlines()
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()} - doc - code
    return len(code - doc), len(doc), len(lines) - len(code | doc | blank), len(blank)


def main() -> None:
    files = sorted((ROOT / "src").glob("*/*.py"))
    for part, pattern in (("src", "*/*.py"), ("tests", "*.py"), ("tools", "*.py")):
        counted = sorted((ROOT / part).glob(pattern))
        lines = sum(f.read_text().count("\n") for f in counted)
        print(f"{lines} lines in {len(counted)} files of {part}/")
        if part == "src":
            code, doc, comment, blank = (sum(c) for c in zip(*map(split, files)))
            print(f"{code} code lines of src/, less {doc} of docstrings, {comment} comment-only and {blank} blank")
    rows = [(n, f"{f.name}:{name}") for f in files for name, n in spans(f)]
    for n, name in sorted(rows, key=lambda r: -r[0])[:5]:
        print(f"{n:5d}  {name}")


if __name__ == "__main__":
    main()
