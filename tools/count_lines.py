"""Count the code lines of each module of the package.

A code line is a non-blank line that lies outside every docstring and
is not a comment line.  Docstrings are the string statements that
``ast`` reports as the docstring of a module, class or function; other
string literals count as code.  A line holding code and a trailing
comment counts as code.

    python3 tools/count_lines.py              # src/eigensieve next to this script
    python3 tools/count_lines.py path/to/pkg  # any directory of modules

Prints one ``<lines> <module>`` line per module, largest first, then
the total.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eigensieve"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers, 1-based, that a module, class or function docstring spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Non-blank lines of ``source`` outside docstrings and comment lines."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    for name, lines in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{lines:5d} {name}")
    print(f"{sum(counts.values()):5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
