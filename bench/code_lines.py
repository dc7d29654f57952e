"""Code lines of the package: lines that hold a token other than a docstring or comment.

Blank lines, comment lines and docstrings (a string that is a whole
statement) do not count; a line that holds any other token does, once. The
count is per module of ``src/openchain`` and in total:

    python bench/code_lines.py [DIRECTORY]
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "openchain"
SKIPPED = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
           tokenize.COMMENT}


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold a token that is not layout, a comment or a docstring."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in SKIPPED]  # NEWLINE stays: it ends each statement
    lines = set()
    for i, token in enumerate(tokens):
        starts = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        if token.type == tokenize.NEWLINE or (
            token.type == tokenize.STRING and starts and tokens[i + 1].type == tokenize.NEWLINE
        ):
            continue  # a docstring is a string that is the whole statement
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.directory.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main()
