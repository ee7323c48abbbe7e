"""Digest of every benchmark pool item's CLI outcome, for byte-identity checks.

Usage: ``python tests/pool_digest.py OUT.json``

Runs each ``bench/pools.py`` ``all_items()`` entry in-process through
``qrspaces.cli.main`` (from this checkout's ``src``), with a fixed ``--out``
path per item, and writes one entry per item: the argv, the exit code, the
captured stdout and stderr, and the sha256 of the output file (null when the
item wrote none).  Records embed the ``--out`` path, so the path depends only
on the item's position.  Two checkouts behave identically on the pools when
their digests are identical: run the script in each, one after the other
(they share the output directory, removed at the end), then ``diff`` the
two files.  Reads ``bench/`` and writes nothing there; pytest does not
collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pools  # noqa: E402
import qrspaces.cli  # noqa: E402

OUT_DIR = Path(tempfile.gettempdir()) / "qrspaces-pool-digest"


def digest_item(index: int, argv) -> dict:
    suffix = ".csv" if argv[0] == "sweep" else ".jsonl"
    out_path = OUT_DIR / f"item-{index:03d}{suffix}"
    if out_path.exists():
        out_path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = qrspaces.cli.main(list(argv) + ["--out", str(out_path)])
    sha = None
    if out_path.exists():
        sha = hashlib.sha256(out_path.read_bytes()).hexdigest()
        out_path.unlink()
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "out_sha256": sha}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        entries = [digest_item(i, item)
                   for i, item in enumerate(pools.all_items())]
    finally:
        OUT_DIR.rmdir()
    with open(argv[0], "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(f"{len(entries)} items -> {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
