"""SHA-256 digests of the closures a benchmark workload builds.

Usage:
    python3 tools/digest.py --workload pipeline|regular [--seed N]

Runs ``prioclose.cli.main`` in process on every item of the workload,
with the models and argument lists of ``bench/run.py``'s
``prepare_cli``, written to a temporary directory.  It prints one line
per item, sorted by item id: the SHA-256 of the output file (or the
exit code of an item that failed), then the id.  The last line is the
SHA-256 of all item lines.  Two checkouts whose lines are equal build
byte-identical closures.  Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench_run  # noqa: E402  (bench/run.py)
from prioclose import cli  # noqa: E402


def digests(workload: str, seed: int) -> list[str]:
    """One "<digest> <id>" line per item, sorted by id."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        manifest, _ = bench_run.prepare_cli(workload, seed, Path(tmp))
        for item in sorted(manifest["items"], key=lambda item: item["id"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(item["argv"])
            if code == 0:
                result = hashlib.sha256(Path(item["output"]).read_bytes()).hexdigest()
            else:
                result = f"exit {code}"
            lines.append(f"{result}  {item['id']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("pipeline", "regular"), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="the corpus seed (regular) or item order (pipeline)")
    args = parser.parse_args(argv)
    lines = digests(args.workload, args.seed)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines + [f"{total}  total"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
