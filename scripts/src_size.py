"""Size of the package source: lines and code lines per module.

Prints one JSON object: for each module of ``src/truncem`` its ``wc -l``
line count and its code lines, and the totals.  A code line is a line
that carries a token which is not a comment and not part of a module,
class or function docstring; blank lines carry none.

    python scripts/src_size.py
"""

import ast
import io
import json
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "truncem"
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main():
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        modules[path.name] = {"lines": text.count("\n"), "code": code_lines(text)}
    total = {key: sum(m[key] for m in modules.values()) for key in ("lines", "code")}
    print(json.dumps({"modules": modules, "total": total}, indent=2))


if __name__ == "__main__":
    main()
