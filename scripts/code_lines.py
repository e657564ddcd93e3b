"""Count the code lines of every Python module under a directory.

A code line is a line on which some token starts, other than a comment, a
docstring or a line break.  So blank lines, comment lines and docstrings
count nothing, a statement spread over three lines counts three, and a
multi-line string inside an expression counts only the line it opens on.
A docstring here is any string that stands alone as a statement.

Run from the repository root:

    python scripts/code_lines.py src/simplexgraphs

It prints one ``<module> <lines>`` line per module, in path order, and a last
``total <lines>`` line.
"""

from __future__ import annotations

import argparse
import tokenize
from pathlib import Path


def code_lines(path: Path) -> int:
    layout = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in layout:
            continue
        alone = tokens[i - 1].type in layout and tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and alone:
            continue
        lines.add(tok.start[0])
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path)
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.dir.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.relative_to(args.dir)} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
