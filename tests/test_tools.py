"""The command corpus of tools/bytes.py, the byte-identity check, stays in step
with the README.  The two-tree run itself is not part of this suite: it starts
a few hundred subprocesses."""

import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bytes_corpus_parses_and_holds_every_readme_command():
    lines = (ROOT / "tools" / "bytes_corpus.txt").read_text(encoding="utf-8").splitlines()
    corpus = [shlex.split(line) for line in map(str.strip, lines)
              if line and not line.startswith("#")]
    for argv in corpus:
        assert argv[0] in ("trunceig", "python", "write", "bench"), argv
        assert argv[0] != "write" or len(argv) == 3, argv
        assert argv[0] != "bench" or (len(argv) == 2 and argv[1].isdigit()), argv

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    commands = [shlex.split(line) for block in blocks for line in block.splitlines()
                if line.startswith("trunceig ")]
    assert len(commands) >= 9
    assert [argv for argv in commands if argv not in corpus] == []
