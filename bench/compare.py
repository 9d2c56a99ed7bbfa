"""Compare two sets of benchmark results.

Usage: python3 bench/compare.py BASE NEW [--items]

BASE and NEW are each a directory of JSON files written by
``run.py --out`` (or one such file).  For every workload and metric the
command prints both medians with their quartiles and sample counts, and
the ratio NEW / BASE together with its base.  ``--items`` adds one row
per (model, order) item with the medians of its median times and its
output states.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def group(runs: list[dict]):
    metrics = defaultdict(lambda: defaultdict(list))
    units = {}
    items = defaultdict(lambda: defaultdict(list))
    for run in runs:
        workload = run["workload"] + (" (traced)" if run["trace"] else "")
        for name, m in run["result"]["metrics"].items():
            metrics[workload][name].append(m["value"])
            units[name] = m["unit"]
        for row in run["items"]:
            items[workload][row["id"]].append(row)
    return metrics, units, items


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--items", action="store_true", help="also compare per item")
    args = parser.parse_args(argv)
    base_m, units, base_i = group(load(args.base))
    new_m, new_units, new_i = group(load(args.new))
    units.update(new_units)

    header = f"{'metric':<40} {'unit':<7} {'base median [q1, q3] n':<32} {'new median [q1, q3] n':<32} new/base"
    for workload in sorted(set(base_m) | set(new_m)):
        print(f"\n== {workload}\n{header}")
        for name in sorted(set(base_m[workload]) | set(new_m[workload])):
            cells = []
            for side in (base_m, new_m):
                values = side[workload].get(name, [])
                if values:
                    med, q1, q3 = spread(values)
                    cells.append((med, f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] {len(values)}"))
                else:
                    cells.append((None, "-"))
            (b, bt), (n, nt) = cells
            ratio = f"{n / b:.4f} (base {fmt(b)})" if b and n is not None else "-"
            print(f"{name:<40} {units.get(name, ''):<7} {bt:<32} {nt:<32} {ratio}")
        if args.items:
            print(f"\n{'item':<36} {'base ms':>10} {'new ms':>10} {'new/base':>9} "
                  f"{'base states':>12} {'new states':>11}")
            for item in sorted(set(base_i[workload]) | set(new_i[workload])):
                b_rows, n_rows = base_i[workload].get(item, []), new_i[workload].get(item, [])
                b = statistics.median(r["median_ms"] for r in b_rows) if b_rows else None
                n = statistics.median(r["median_ms"] for r in n_rows) if n_rows else None
                bs = b_rows[0]["states"] if b_rows else None
                ns = n_rows[0]["states"] if n_rows else None
                ratio = f"{n / b:.3f}" if b and n is not None else "-"
                print(f"{item:<36} {fmt(b) if b else '-':>10} {fmt(n) if n else '-':>10} "
                      f"{ratio:>9} {bs or '-':>12} {ns or '-':>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
