"""Count the package's lines without pytest.

    python3 tests/code_lines.py

Prints, for each module in src/ammlab and in total, its line count (what
`wc -l` prints) and its code lines: the lines that hold a token of code,
leaving out docstrings, comments and blank lines.  A line that holds code
and a comment counts as code.  It needs only the standard library.  Its name
keeps pytest from collecting it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ammlab"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
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
    """Lines holding a token that is not a comment or part of a docstring."""
    docstrings = docstring_lines(source)
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstrings:
                code.add(line)
    return len(code)


def main() -> int:
    total_lines = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, code = source.count("\n"), code_lines(source)
        total_lines += lines
        total_code += code
        print(f"{lines:7} {code:7}  {path.name}")
    print(f"{total_lines:7} {total_code:7}  total (wc -l, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
