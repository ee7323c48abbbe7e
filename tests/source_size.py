"""Size of the package source: raw lines and code lines of ``src/qrspaces``.

Usage: ``python tests/source_size.py [REV]``

Prints the raw lines of ``src/qrspaces/*.py`` and their code lines: lines
that hold a token other than a comment, counting no docstring and no blank
line, so deleting or rewording comments and docstrings does not move the
count.  With a git revision ``REV`` (such as ``HEAD^``) it also prints both
counts at that revision and the net change against it.  Reads the working
tree and git alone; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/qrspaces"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token that is no comment, outside the
    docstrings of its module, classes and functions."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def sources(rev=None) -> list:
    """The text of every ``src/qrspaces/*.py``, in the working tree or at
    the git revision ``rev``."""
    if rev is None:
        return [p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))]

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout

    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return [git("show", f"{rev}:{PACKAGE}/{name}")
            for name in sorted(names) if name.endswith(".py")]


def size(texts) -> tuple:
    """(raw lines, code lines) summed over the texts."""
    return (sum(len(t.splitlines()) for t in texts),
            sum(code_lines(t) for t in texts))


def main(argv) -> int:
    raw, code = size(sources())
    print(f"{PACKAGE}: {raw} raw lines, {code} code lines")
    if argv:
        old_raw, old_code = size(sources(argv[0]))
        print(f"{PACKAGE} against {argv[0]}: raw {raw - old_raw:+d} "
              f"({old_raw} -> {raw}), code {code - old_code:+d} "
              f"({old_code} -> {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
