"""The prioclose benchmark.

Usage:
    python3 bench/run.py --workload regular|pipeline|verify --seed N
        --seconds S --trace 0|1 [--out FILE]

Each workload is a closed loop with one caller: passes over the items run
one after another, each in a fresh interpreter (``worker.py``), as many as
fit in ``--seconds`` (at least one pass, two with ``--trace 1``).
Outputs are checked afterwards, untimed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Per-item rows are printed
before it, and ``--out`` writes everything as JSON for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
CACHE = ROOT / ".bench_cache"

# A run must end within 180 seconds; no new pass starts that could not
# finish before this many seconds.
DEADLINE_S = 160.0
# Set-up is timed in every pass and in extra set-up-only spawns, until
# there are this many samples or the extra spawns have used a fifth of
# the measuring time.
SETUP_SAMPLES = 9

WORKLOADS = ("regular", "pipeline", "verify")


def gmean(values) -> float:
    """Geometric mean; counts of zero count as one."""
    values = [max(v, 1e-9 if isinstance(v, float) else 1) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --- inputs -----------------------------------------------------------------


def prepare_cli(workload, seed, workdir):
    """Write the models and one ``closure`` argument list per item."""
    if workload == "regular":
        models = corpus.regular_models(seed)
        pairs = [(name, order) for name in models for order in corpus.ORDERS]
    else:
        models = corpus.pipeline_models()
        pairs = list(corpus.PIPELINE_ITEMS)
    files = {}
    items = []
    for name, order in pairs:
        model = models[name]
        if name not in files:
            files[name] = corpus.write_model(workdir, name, model)
        alphabet, body = files[name]
        output = workdir / f"{name}.{order}.out.json"
        items.append({
            "id": f"{name}:{order}",
            "argv": ["closure", "--type", model["kind"], "--alphabet", alphabet,
                     "--input", body, "--order", order, "--output", str(output)],
            "model": name, "order": order, "output": str(output),
        })
    random.Random(seed).shuffle(items)
    return {"workload": workload, "items": items}, models


def _fault(rng, words: list[list[str]]):
    """A wrong closure: the right words up to the bound with one removed
    or one added, and the report that the oracle must give for it."""
    have = {tuple(w) for w in words}
    absent = [
        list(w)
        for n in range(corpus.VERIFY_BOUND + 1)
        for w in product("ab", repeat=n)
        if w not in have
    ]
    present = [w for w in words if w]
    if present and (not absent or rng.random() < 0.5):
        dropped = rng.choice(present)
        return [w for w in words if w != dropped], {"missing": [dropped], "extra": []}
    added = rng.choice(absent)
    return words + [added], {"missing": [], "extra": [added]}


def prepare_verify(seed):
    import checks

    draw = checks.verify_draw(CACHE)
    rng = random.Random(seed)
    models, items, expect = {}, [], {}

    def compare(item_id, model, order, bound, dom, **extra):
        items.append({"id": item_id, "op": "compare", "model": model, "order": order,
                      "bound": bound, "dom": dom, **extra})

    for i, entry in enumerate(draw):
        name = f"draw-{i:02d}"
        models[name] = entry["model"]
        for order in corpus.ORDERS:
            compare(f"{name}:{order}", name, order, corpus.VERIFY_BOUND, corpus.VERIFY_DOM)
            expect[f"{name}:{order}"] = {"missing": [], "extra": []}
    for name, (model, orders, bound, dom) in corpus.verify_machines().items():
        models[name] = model
        for order in orders:
            compare(f"{name}:{order}", name, order, bound, dom)
            expect[f"{name}:{order}"] = {"missing": [], "extra": []}
    for i in corpus.VERIFY_DEEP_ENUMERATIONS:
        name = f"draw-{i:02d}"
        item_id = f"{name}:enumerate"
        items.append({"id": item_id, "op": "enumerate", "model": name,
                      "bound": corpus.FILTER_DEEP})
        expect[item_id] = {"words": draw[i]["deep"]}
    for j, (i, order) in enumerate(corpus.VERIFY_FAULTS):
        name = f"draw-{i:02d}"
        item_id = f"fault-{j}:{name}:{order}"
        words, report = _fault(rng, draw[i]["closures"][order])
        compare(item_id, name, order, corpus.VERIFY_BOUND, corpus.VERIFY_DOM, fault=words)
        expect[item_id] = report
    rng.shuffle(items)
    return {"workload": "verify", "items": items, "models": models}, expect


# --- passes -----------------------------------------------------------------


class Runner:
    """Spawns worker passes and keeps the run inside its time limit."""

    def __init__(self, workdir: Path, manifest: dict):
        self.workdir = workdir
        self.manifest_path = workdir / "manifest.json"
        self.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        self.started = time.monotonic()
        self.count = 0

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, mode: str, timeout: float):
        """One worker run; (result, set-up seconds) or (None, error text)."""
        self.count += 1
        result_path = self.workdir / f"result-{self.count}.json"
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(self.manifest_path),
                 str(result_path), mode],
                cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            return None, f"worker exceeded {timeout:.0f} s"
        if proc.returncode != 0:
            return None, (proc.stderr or proc.stdout)[-2000:]
        result = json.loads(result_path.read_text(encoding="utf-8"))
        return result, result["first_call"] - spawned


def run_passes(runner: Runner, seconds: float, trace: bool, outputs: list[Path]):
    """Untraced (and, with ``trace``, alternating traced) passes."""
    passes, setups, errors = [], [], []
    began = time.monotonic()
    longest = 0.0
    step = 2 if trace else 1
    while True:
        mode = "1" if len(passes) % step == 1 else "0"
        start = time.monotonic()
        result, info = runner.spawn(mode, runner.left())
        longest = max(longest, time.monotonic() - start)
        if result is None:
            errors.append(info)
            break
        setups.append(info)
        result["traced"] = mode == "1"
        result["digests"] = {str(p): digest(p) if p.is_file() else None for p in outputs}
        passes.append(result)
        # Stop before a pass (or a pair of passes when tracing) that would
        # not fit in the measuring time or before the deadline.
        if longest > runner.left() or (
            len(passes) % step == 0 and time.monotonic() - began + step * longest > seconds
        ):
            break
    extra_began = time.monotonic()
    while not errors and len(setups) < SETUP_SAMPLES and runner.left() > 3 * max(setups):
        if time.monotonic() - extra_began + max(setups) > seconds / 5:
            break
        result, info = runner.spawn("setup", runner.left())
        if result is None:
            errors.append(info)
            break
        setups.append(info)
    return passes, setups, errors


# --- checks -----------------------------------------------------------------


def check_cli(workload, manifest, models, passes):
    """Per item: sizes of the last pass's output and its failure, if any."""
    import checks

    rows = {}
    for item in manifest["items"]:
        out = Path(item["output"])
        row = {"sizes": None, "error": None}
        rows[item["id"]] = row
        if not out.is_file():
            row["error"] = "no output"
            continue
        try:
            row["sizes"], row["error"] = checks.check_output(
                workload, item["model"], models[item["model"]], item["order"], out
            )
        except Exception as exc:  # a malformed output fails its item
            row["error"] = f"unreadable output: {exc!r}"
        row["digest"] = digest(out)
    for result in passes:
        for item in manifest["items"]:
            if result["digests"].get(item["output"]) != rows[item["id"]].get("digest"):
                result.setdefault("mismatch", set()).add(item["id"])
    return rows


def check_verify(row: dict, expect: dict) -> str | None:
    if "words" in expect:
        return None if row["words"] == expect["words"] else "enumeration differs"
    if row["missing"] != expect["missing"] or row["extra"] != expect["extra"]:
        return f"report missing={row['missing']} extra={row['extra']}, expected {expect}"
    return None


def item_failure(workload, row, checked, expect, mismatch) -> str | None:
    if row.get("error"):
        return row["error"].strip().splitlines()[-1]
    if workload == "verify":
        return check_verify(row, expect[row["id"]])
    if row.get("code") != 0:
        return f"exit code {row.get('code')}"
    if row["id"] in mismatch:
        return "output differs from the last pass"
    return checked[row["id"]]["error"]


# --- metrics ----------------------------------------------------------------


def layer_values(trace: dict, live_ratio: float, output_bytes: int) -> dict:
    def get(fn, key):
        return trace.get(fn, {}).get(key, 0)

    def ratio(fn):
        base = get(fn, "base")
        return get(fn, "hits") / base if base else 0.0

    values = {"automata.live_ratio": live_ratio, "cli.output_bytes": output_bytes}
    for fn, t in trace.items():
        for key in ("calls", "s", "self_s", "out_states", "out_edges", "out_states_max"):
            values[f"{fn}.{key}"] = t[key]
    values["core.leq.related_ratio"] = ratio("core.leq")
    values["oracle.subwords_up_to.distinct_ratio"] = ratio("oracle.subwords_up_to")
    values["automata.nfa_enumerate.words"] = get("automata.nfa_enumerate", "hits")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "prioclose" / "__init__.py").is_file():
        print("error: the prioclose sources (src/prioclose) are missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir()
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workdir: Path) -> int:
    workload = args.workload
    if workload == "verify":
        manifest, expect = prepare_verify(args.seed)
        models, outputs = None, []
    else:
        (manifest, models), expect = prepare_cli(workload, args.seed, workdir), None
        outputs = [Path(item["output"]) for item in manifest["items"]]
    runner = Runner(workdir, manifest)
    passes, setups, errors = run_passes(runner, args.seconds, bool(args.trace), outputs)
    for error in errors:
        print(f"worker failed: {error}", file=sys.stderr)
    if not passes or (args.trace and not any(p["traced"] for p in passes)):
        return 1

    checked = check_cli(workload, manifest, models, passes) if workload != "verify" else {}
    ids = [item["id"] for item in manifest["items"]]
    attempted = failed = 0
    failures = {}
    for result in passes:
        mismatch = result.get("mismatch", set())
        for row in result["items"]:
            attempted += 1
            why = item_failure(workload, row, checked, expect, mismatch)
            if why:
                failed += 1
                failures.setdefault(row["id"], why)
    # A pass cut short by a crashed worker counts all its items as failed.
    if errors:
        attempted += len(ids)
        failed += len(ids)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    times = {i: statistics.median(r["s"] for p in untraced for r in p["items"] if r["id"] == i)
             for i in ids}
    if workload == "verify":
        item_sizes = passes[0]["sizes"]
    else:
        item_sizes = {i: c["sizes"] for i, c in checked.items() if c["sizes"]}
    sizes = [(c["states"], c["edges"], c["live"]) for c in item_sizes.values()]
    states_total = sum(s[0] for s in sizes)
    live_ratio = sum(s[2] for s in sizes) / states_total if states_total else 0.0

    print(f"# {workload} seed={args.seed}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes, {len(setups)} set-ups")
    print(f"# {'item':<34} {'median_ms':>11} {'states':>8} {'edges':>8} {'live':>7}  check")
    layers = {r["id"]: r.get("layers") for r in traced[0]["items"]} if traced else {}
    rows = []
    for i in sorted(ids):
        c = item_sizes.get(i, {})
        row = {"id": i, "median_ms": times[i] * 1000, "states": c.get("states"),
               "edges": c.get("edges"), "live": c.get("live"), "failure": failures.get(i),
               "layer_out_states": layers.get(i)}
        rows.append(row)
        print(f"  {i:<34} {row['median_ms']:>11.3f} {row['states'] or '':>8} "
              f"{row['edges'] or '':>8} {row['live'] or '':>7}  {row['failure'] or 'ok'}")
    if any(layers.values()):
        print("# states returned per layer function in the traced pass")
        for i in sorted(i for i in ids if layers[i]):
            print(f"  {i:<34} " + " ".join(f"{fn}={n}" for fn, n in sorted(layers[i].items())))

    values = {
        "setup_s": statistics.median(setups),
        "item_gmean_ms": gmean([t * 1000 for t in times.values()]),
        "pass_s": statistics.median(p["pass_s"] for p in untraced),
        "output_states_gmean": gmean([s[0] for s in sizes]),
        "output_edges_gmean": gmean([s[1] for s in sizes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "ok_ratio": 1 - failed / attempted,
    }
    chosen = spec["end_to_end"]
    if args.trace:
        output_bytes = sum(Path(p).stat().st_size for p in map(str, outputs) if Path(p).is_file())
        per_pass = [layer_values(p["trace"], live_ratio, output_bytes) for p in traced]
        values = {name: statistics.median(v.get(name, 0) for v in per_pass)
                  for name in {m["name"] for m in spec["per_layer"]}}
        values["trace.overhead_ratio"] = (
            statistics.median(p["pass_s"] for p in traced)
            / statistics.median(p["pass_s"] for p in untraced)
        )
        chosen = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        full = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "result": result, "items": rows,
                "pass_s": [p["pass_s"] for p in untraced], "setup_s": setups,
                "spans": traced[0]["spans"] if traced else None}
        Path(args.out).write_text(json.dumps(full, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
