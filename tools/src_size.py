"""Print the size of the package source: its line count and its longest functions.

The line count is that of ``cat src/reebflow/*.py | wc -l``; the counts of
``tests/*.py`` and ``tools/*.py`` follow it, taken the same way.  A function's
length is the span of its ``def`` in the syntax tree, from the ``def`` line
to its last line, docstring and comments included.  Nested functions count
inside their parent and are not listed on their own; methods are listed as
``Class.method``.  Run from anywhere:

    python tools/src_size.py
"""

from __future__ import annotations

import ast
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


def main() -> None:
    files = sorted((ROOT / "src").glob("*/*.py"))
    for part, pattern in (("src", "*/*.py"), ("tests", "*.py"), ("tools", "*.py")):
        counted = sorted((ROOT / part).glob(pattern))
        lines = sum(f.read_text().count("\n") for f in counted)
        print(f"{lines} lines in {len(counted)} files of {part}/")
    rows = [(n, f"{f.name}:{name}") for f in files for name, n in spans(f)]
    for n, name in sorted(rows, key=lambda r: -r[0])[:5]:
        print(f"{n:5d}  {name}")


if __name__ == "__main__":
    main()
