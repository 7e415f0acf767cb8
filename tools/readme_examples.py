"""Run every ``gcdlab`` example of the README's "Command line" block.

    python tools/readme_examples.py OUTDIR

Each example runs as ``python -m gcdlab.cli ...`` (with this checkout's
``src`` first on PYTHONPATH) in a fresh temporary directory.  OUTDIR/NN/
receives the command line, its stdout, its exit code and, under ``files/``,
every file it created there (``--dump-weights w.csv``).  The output of two
checkouts compares with ``diff -r``.  Exits 1 if any example exits nonzero or
writes to stderr.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def examples(readme: Path) -> list[list[str]]:
    """The argv of each ``gcdlab`` line in the first sh block under "## Command line"."""
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("gcdlab ")]


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    outdir = Path(sys.argv[1])
    if outdir.exists() and any(outdir.iterdir()):
        sys.exit(f"{outdir} is not empty")
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    failed = False
    for i, argv in enumerate(examples(ROOT / "README.md"), 1):
        dest = outdir / f"{i:02d}"
        dest.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, "-m", "gcdlab.cli", *argv[1:]], cwd=tmp,
                                  env=env, capture_output=True, text=True)
            shutil.copytree(tmp, dest / "files")
        (dest / "command").write_text(shlex.join(argv) + "\n")
        (dest / "stdout").write_text(proc.stdout)
        (dest / "exit").write_text(f"{proc.returncode}\n")
        ok = proc.returncode == 0 and not proc.stderr
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {i:02d} exit {proc.returncode}: {shlex.join(argv)}")
        if proc.stderr:
            print(proc.stderr, end="", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
