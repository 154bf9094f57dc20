"""Source size and public surface of the package.

    PYTHONPATH=src python tests/source_lines.py

For each module of ``src/qtsallis/`` and in total, prints its lines as
``wc -l`` counts them, its code lines and its docstring lines, then the
number of names in ``qtsallis.__all__``.  Code lines are those that are
not blank, not ``#`` comments and not docstrings.  A docstring is the
first statement of a module, class or function when that statement is a
string constant, and all its lines count as docstring lines.
"""

import ast
from pathlib import Path

import qtsallis


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int, int]:
    """(``wc -l`` lines, code lines, docstring lines) of one module."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and number not in docs)
    return text.count("\n"), code, len(docs)


def main() -> None:
    rows = [(path.name, *counts(path))
            for path in sorted(Path(qtsallis.__file__).parent.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in zip(*(row[1:] for row in rows)))))
    print(f"{'module':<14} {'wc -l':>6} {'code':>6} {'docstring':>9}")
    for name, lines, code, docs in rows:
        print(f"{name:<14} {lines:>6} {code:>6} {docs:>9}")
    print(f"__all__ names: {len(qtsallis.__all__)}")


if __name__ == "__main__":
    main()
