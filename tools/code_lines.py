"""Count code lines per module of a package: lines that hold a token,
not counting blank lines, comments or docstrings.

    python3 tools/code_lines.py [package-dir]    # default: src/ddquad
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, SCOPES) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(root: str = "src/ddquad") -> None:
    counts = {p.stem: code_lines(p) for p in sorted(Path(root).glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:12s} {n:5d}")
    print(f"{'total':12s} {sum(counts.values()):5d}")


if __name__ == "__main__":
    main(*sys.argv[1:])
