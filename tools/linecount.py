"""Count the lines of each module of src/colorperm by kind.

Every line is one of four kinds, the first that applies:

* code: it holds a token other than a comment or a docstring;
* docstring: it lies in the string that opens a module, class or
  function body;
* comment: it holds a comment;
* blank: anything else.

Run from the repository root, with the standard library only:

    python tools/linecount.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "colorperm"
KINDS = ("docstring", "comment", "blank", "code")
LAYOUT = tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER


def docstrings(tree: ast.Module) -> dict[tuple[int, int], int]:
    """The end line of every module, class and function docstring, keyed
    by where it starts, (line, column), as tokenize reports a token's start."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found[first.lineno, first.col_offset] = first.end_lineno
    return found


def count(text: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    starts = docstrings(ast.parse(text))
    docstring = {
        line for (start, _), end in starts.items() for line in range(start, end + 1)
    }
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in LAYOUT and token.start not in starts:
            code.update(range(token.start[0], token.end[0] + 1))
    docstring -= code
    comment -= code | docstring
    total = len(text.splitlines())
    sizes = {"docstring": len(docstring), "comment": len(comment), "code": len(code)}
    sizes["blank"] = total - sum(sizes.values())
    return {kind: sizes[kind] for kind in KINDS} | {"total": total}


def main() -> None:
    columns = KINDS + ("total",)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in columns))
    totals = dict.fromkeys(columns, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        sizes = count(path.read_text())
        for kind in columns:
            totals[kind] += sizes[kind]
        print(f"{path.name:<16}" + "".join(f"{sizes[kind]:>11,}" for kind in columns))
    print(f"{'src/colorperm':<16}" + "".join(f"{totals[kind]:>11,}" for kind in columns))


if __name__ == "__main__":
    main()
