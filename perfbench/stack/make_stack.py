"""Regenerate the fixed decode stack that the decode workloads load.

Runs the README pipeline through ``mtpspec.cli.main`` with the CLI's
default config (pretrain-main, distill, dedup, train-head at K=6, and
build-vocab at size 128 for each desk language), copies the backbone,
the head and the five vocabularies next to this script, and rewrites
``SHA256SUMS``. Takes about two minutes on one core.

Run from the repository root:

    python3 perfbench/stack/make_stack.py
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from mtpspec import cli  # noqa: E402
from mtpspec.data import LANG_TAGS  # noqa: E402
from workloads import VOCAB_SIZE, sha256_file, stack_files  # noqa: E402


def main() -> int:
    work = HERE.parent / "out" / "stack-build"
    shutil.rmtree(work, ignore_errors=True)
    steps = [["pretrain-main"], ["distill"], ["dedup"], ["train-head"]]
    steps += [["build-vocab", "--lang", lang, "--size", str(VOCAB_SIZE)]
              for lang in LANG_TAGS]
    for step in steps:
        if cli.main(["--out-dir", str(work)] + step) != 0:
            print(f"stage {step[0]} failed", file=sys.stderr)
            return 1
    lines = []
    for name in stack_files():
        shutil.copyfile(work / name, HERE / name)
        lines.append(f"{sha256_file(HERE / name)}  {name}\n")
    (HERE / "SHA256SUMS").write_text("".join(lines))
    shutil.rmtree(work)
    print(f"wrote {len(lines)} stack files and SHA256SUMS to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
