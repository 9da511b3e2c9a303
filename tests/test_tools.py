"""The command corpus of tools/bytes.py, the byte-identity check, stays in step
with the README, and the check runs each tree in its own directory.  The
two-tree run of the whole corpus is not part of this suite: it starts a few
hundred subprocesses."""

import importlib.util
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


def test_bytes_runs_each_tree_in_its_own_directory(tmp_path):
    spec = importlib.util.spec_from_file_location("bytes_tool", ROOT / "tools" / "bytes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # In one shared directory the second run would find the first run's mark.
    mark = "import os; print(os.path.exists('mark')); open('mark', 'w').close()"
    lines = [["write", "written.txt", "x"],
             ["python", "-c", "print(open('written.txt').read())"],
             ["python", "-c", mark]]
    src = ROOT / "src"
    same, total, differing = tool.compare(lines, (src, src), tmp_path)
    assert (same, total, differing) == (2, 2, [])
    assert (tmp_path / "cwd-0" / "mark").exists() and (tmp_path / "cwd-1" / "mark").exists()
