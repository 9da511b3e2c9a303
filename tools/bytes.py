"""Byte-identity check of the command line against another revision.

    python tools/bytes.py --against REV

Writes REV's src/ into the git-ignored .bench_work/bytes/ with `git archive`
(local; no network), then runs every command of the corpus
tools/bytes_corpus.txt (its header gives the line format) once with REV's
src/ and once with the working tree's, each tree in its own scratch directory
and with the same environment but for PYTHONPATH.  `write` lines and the bench
fixtures go into both directories, so a command that reads a file an earlier
line wrote (`solve --instance F` after `simulate --output F`) reads the file its
own tree wrote.  Both runs pin BLAS to one thread.

Compared per command: exit status, stdout, stderr with the checkout's src path
replaced by <src> and line numbers after it dropped, and the file named by
--output if the command has one.  Prints "N of M identical", then each
differing command with its first differing line per stream, REV first.  Exits
0 when every command is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "bytes"
CORPUS = ROOT / "tools" / "bytes_corpus.txt"
TIMEOUT_S = 300


def corpus_lines(path: Path) -> list[list[str]]:
    """The corpus's commands, each split by shlex; blank and '#' lines skipped."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [shlex.split(line) for line in lines if line and not line.startswith("#")]


def bench_commands(seed: int, cwds: list[Path]) -> list[list[str]]:
    """The benchmark's pass lists at `seed`, as trunceig argvs with paths relative
    to each of cwds; their fixture files are written into each of cwds."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for cwd in cwds:  # each cwd gives the same relative argvs
        commands = [["trunceig", *(arg.replace(f"{cwd}/", "") for arg in c.argv)]
                    for build in workloads.WORKLOADS.values()
                    for c in build(seed, str(cwd)).pass_commands(0)]
    return commands


def archive(rev: str) -> Path:
    """REV's src/ under WORK, written once per commit."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest = WORK / sha
    if not (dest / "src").is_dir():
        dest.mkdir(parents=True, exist_ok=True)
        tar = subprocess.run(["git", "archive", "--format=tar", sha, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest / "src"


def normalise(stderr: str, src: Path) -> str:
    text = stderr.replace(str(src), "<src>")
    text = re.sub(r'(<src>\S*?\.py):\d+', r"\1", text)  # warnings: path:LINE:
    return re.sub(r'(<src>[^"]*\.py", line )\d+', r"\1N", text)  # traceback frames


def run(argv: list[str], src: Path, cwd: Path) -> tuple:
    """(exit status, stdout, normalised stderr, --output bytes or None) of one command."""
    output = cwd / argv[argv.index("--output") + 1] if "--output" in argv[:-1] else None
    if output is not None and output.exists():
        output.unlink()
    program = {"trunceig": ["-m", "trunceig.cli"], "python": []}[argv[0]]
    command = [sys.executable, *program, *argv[1:]]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        result = (proc.returncode, proc.stdout, normalise(proc.stderr, src))
    except subprocess.TimeoutExpired:
        result = (f"timeout after {TIMEOUT_S} s", "", "")
    written = output.read_bytes() if output is not None and output.exists() else None
    return (*result, written)


def first_difference(a, b) -> str:
    if isinstance(a, str) and isinstance(b, str):
        la, lb = a.splitlines(), b.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
        pick = (lambda lines: lines[i] if i < len(lines) else "<end>")
        return f"line {i + 1}: {pick(la)!r} -> {pick(lb)!r}"
    if isinstance(a, bytes) or isinstance(b, bytes):
        return "the written files differ"
    return f"{a!r} -> {b!r}"


def compare(lines: list[list[str]], trees: tuple[Path, Path], work: Path) -> tuple:
    """(identical count, total, differing commands with both results) of the corpus
    lines, run with each of the two src trees in its own fresh directory under work."""
    cwds = [work / f"cwd-{i}" for i in range(len(trees))]
    for cwd in cwds:
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
    same, differing, total = 0, [], 0
    for line in lines:
        if line[0] == "write":
            for cwd in cwds:
                (cwd / line[1]).write_text(line[2].replace("\\n", "\n"), encoding="utf-8")
            continue
        for command in bench_commands(int(line[1]), cwds) if line[0] == "bench" else [line]:
            total += 1
            before, after = (run(command, src, cwd) for src, cwd in zip(trees, cwds))
            if before == after:
                same += 1
            else:
                differing.append((command, before, after))
    return same, total, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)

    trees = (archive(args.against), ROOT / "src")
    same, total, differing = compare(corpus_lines(CORPUS), trees, WORK)
    print(f"{same} of {total} identical")
    for command, before, after in differing:
        print(f"--- {shlex.join(command)}")
        for what, a, b in zip(("exit", "stdout", "stderr", "output"), before, after):
            if a != b:
                print(f"    {what}: {first_difference(a, b)}")
    return 0 if not differing else 1


if __name__ == "__main__":
    sys.exit(main())
