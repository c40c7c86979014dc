"""Seeded hostile graph files through label, gen, count and flip.

Run as a script, it caps its own address space at 1 GiB, so a graph
file that makes the program allocate by a huge declared vertex count
fails with MemoryError here instead of exhausting the machine.  It then
runs every mutant of a few small graph files, and a few fixed huge-n
files, through the four commands in process and prints one JSON list:
per file and command, the exit code, stderr, the line a ParseError
from ``parse_graph`` names (None if the file parses) and the traceback
of any exception that escaped ``cli.entry`` (None if none did).

    PYTHONPATH=src python tests/graph_mutants.py SEED COUNT
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import tempfile
import traceback

FAN_EDGES = "0 1\n1 2\n0 2\n2 3\n0 3\n3 4\n0 4\n"
BASES = (
    "5 7\nouter: 0 1 2 3 4\n" + FAN_EDGES,
    "# a diamond, no outer line\n4 5\n0 1\n1 2\n0 2\n2 3\n0 3\n",
    "3 4\ndirected\n0 1\n1 2\n2 0\n1 0\n",
)
# declared vertex counts far beyond what the file lists, with and
# without the fan's outer line
HUGE = tuple(f"{n} 7\n{outer}{FAN_EDGES}"
             for n in ("1000000000", "1" + "0" * 33)
             for outer in ("outer: 0 1 2 3 4\n", ""))
COMMANDS = ("label", "gen", "count", "flip")
STRAY = "01-+#:_ x\t٣"
BIG = ("1000000000", "1" + "0" * 33, "9" * 5000, "-1")


def mutate(text: str, rng: random.Random) -> str:
    """One or two seeded edits of the file's lines: a line cut out or
    cut short, a stray character, an integer made huge or negative, a
    vertex moved in range or out of it, an outer line repeated, two
    lines swapped, a blank or comment line inserted."""
    lines = text.splitlines()
    for _ in range(rng.randrange(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        kind = rng.randrange(8)
        tokens = lines[i].split()
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        elif kind == 2:
            j = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:j] + rng.choice(STRAY) + lines[i][j:]
        elif kind in (3, 4) and tokens:
            j = rng.randrange(len(tokens))
            # huge or negative, or a vertex moved in range or just out of
            # it (every base graph has at most 5 vertices)
            tokens[j] = rng.choice(BIG) if kind == 3 else str(rng.randrange(-1, 7))
            lines[i] = " ".join(tokens)
        elif kind == 5:
            outer = [line for line in lines if line.startswith("outer:")]
            lines.insert(i, outer[0] if outer else "outer: 0 1 2 3")
        elif kind == 6:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, rng.choice(("", "   ", "#", "# note")))
    return "".join(line + "\n" for line in lines)


def run_all(seed: int, count: int) -> list[dict]:
    from spangray import cli
    from spangray.embedgraph import parse_graph
    from spangray.errors import ParseError

    rng = random.Random(seed)
    files = list(HUGE) + [mutate(rng.choice(BASES), rng) for _ in range(count)]
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        for text in files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            line = parse_crash = None
            root = []
            try:
                if parse_graph(text).directed:
                    root = ["--root-vertex", "0"]
            except ParseError as exc:
                line = exc.line
            except Exception:
                parse_crash = traceback.format_exc()
            for command in COMMANDS:
                err = io.StringIO()
                rc, crash = None, parse_crash
                try:
                    with contextlib.redirect_stderr(err):
                        # flip takes --root-vertex on a directed file only
                        extra = root if command == "flip" else []
                        rc = cli.entry([command, path, *extra], out=io.StringIO())
                except Exception:
                    crash = traceback.format_exc()
                out.append({"text": text[:200], "command": command, "rc": rc,
                            "err": err.getvalue(), "parse_line": line, "crash": crash})
    return out


def main() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2 ** 30 if hard == resource.RLIM_INFINITY else min(2 ** 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    print(json.dumps(run_all(int(sys.argv[1]), int(sys.argv[2]))))


if __name__ == "__main__":
    main()
