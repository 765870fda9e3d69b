"""Compare two experiment output trees, file by file.

Exits 0 only if the trees hold the same files with the same bytes, apart
from the ``wall_ms`` column of history CSVs (any CSV whose header names
that column; its comment lines are compared whole).  Otherwise it names the
first file that differs, in sorted path order, and exits 1.  Outputs are
deterministic apart from wall-clock columns, so two runs of one config, or
one config run on two versions of the code that should agree, must pass:

    python bench/same_outputs.py out/newton_rate out_again/newton_rate
"""

import argparse
import sys
from pathlib import Path


def _files(root: Path) -> set:
    return {path.relative_to(root) for path in root.rglob("*") if path.is_file()}


def _lines(data: bytes) -> list:
    """The file's lines, with the wall_ms cell of every data row blanked."""
    lines = data.decode(errors="replace").split("\n")
    header = lines[0].split(",")
    if "wall_ms" not in header:
        return lines
    col = header.index("wall_ms")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if not line.startswith("#") and len(cells) == len(header):
            cells[col] = ""
            lines[i] = ",".join(cells)
    return lines


def first_difference(a: Path, b: Path) -> str | None:
    """What differs first between trees ``a`` and ``b``; None if nothing."""
    for rel in sorted(_files(a) | _files(b)):
        if not (a / rel).is_file() or not (b / rel).is_file():
            return f"{rel}: only in {a if (a / rel).is_file() else b}"
        x, y = _lines((a / rel).read_bytes()), _lines((b / rel).read_bytes())
        if x != y:
            line = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
            return f"{rel}: differs at line {line + 1}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    diff = first_difference(args.a, args.b)
    if diff is not None:
        print(f"outputs differ: {diff}")
        return 1
    print(f"same outputs: {len(_files(args.a))} files in {args.a} and {args.b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
