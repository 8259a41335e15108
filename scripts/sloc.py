#!/usr/bin/env python3
"""Count code lines (non-blank, non-comment, non-docstring) per file and in total.

    python scripts/sloc.py 'src/repro/runtime/*.py'
"""
import ast
import glob
import io
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    counts = {path: code_lines(open(path).read()) for pattern in sys.argv[1:] for path in sorted(glob.glob(pattern))}
    for path, count in counts.items():
        print(f"{count:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total ({len(counts)} files)")
