"""One pass over a workload's items, in a fresh interpreter.

Usage: python3 bench/worker.py MANIFEST RESULT TRACE

Run by ``run.py`` once per repetition, so every timed pass starts with
the cold in-process caches a CLI run has.  ``TRACE`` is 1 to install
``tracer.Tracer`` after set-up, 0 for an untraced pass, and ``setup`` to
stop right after set-up.  The result is written to RESULT as JSON.
``first_call`` is ``time.monotonic()`` when set-up ended, which the
parent compares with its own clock at spawn.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup_cli(prioclose, manifest):
    """Items are argument lists for the ``prioclose`` entry point."""
    import prioclose.cli as cli

    def run(tracer):
        rows = []
        for item in manifest["items"]:
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(item["argv"])
                error = None if code == 0 else sink.getvalue()[-500:]
            except SystemExit as exc:  # argparse rejected the arguments
                code, error = exc.code, sink.getvalue()[-500:]
            except Exception:  # a crash fails this item; the pass goes on
                code, error = None, traceback.format_exc(limit=4)
            rows.append({"id": item["id"], "s": time.perf_counter() - start,
                         "code": code, "error": error})
            if tracer is not None:
                rows[-1]["layers"] = tracer.out_states_since_last()
        return rows

    return run, {}


def setup_verify(prioclose, manifest):
    """Parse the models and build the closures that the pass compares."""
    alphabets = {}
    models = {}
    for name, spec in manifest["models"].items():
        alphabet = prioclose.PriorityAlphabet.from_map(spec["alphabet"])
        alphabets[name] = alphabet
        parse = {"nfa": prioclose.nfa_parse, "oca": prioclose.oca_parse,
                 "cfg": prioclose.cfg_parse}[spec["kind"]]
        models[name] = parse(spec["data"], alphabet)
    builders = {
        ("nfa", "subword"): lambda m: prioclose.closure_regular(m, prioclose.OrderKind.SUBWORD),
        ("nfa", "priority"): lambda m: prioclose.closure_regular(m, prioclose.OrderKind.PRIORITY),
        ("nfa", "block"): lambda m: prioclose.closure_regular(m, prioclose.OrderKind.BLOCK),
        ("oca", "block"): prioclose.oca_block_closure,
        ("oca", "priority"): prioclose.oca_priority_closure,
        ("cfg", "priority"): prioclose.cfg_priority_closure,
    }
    closures = {}  # item id -> the automaton it compares
    built = {}  # the closures among them, without the seeded faults
    for item in manifest["items"]:
        if item["op"] != "compare":
            continue
        if "fault" in item:
            closures[item["id"]] = prioclose.nfa_for_words(
                alphabets[item["model"]], [tuple(w) for w in item["fault"]]
            )
        else:
            kind = manifest["models"][item["model"]]["kind"]
            closures[item["id"]] = built[item["id"]] = builders[(kind, item["order"])](
                models[item["model"]]
            )

    def run(tracer):
        rows = []
        for item in manifest["items"]:
            model = models[item["model"]]
            start = time.perf_counter()
            try:
                if item["op"] == "enumerate":
                    words = prioclose.nfa_enumerate(model, item["bound"])
                    row = {"words": [list(w) for w in words]}
                else:
                    report = prioclose.compare_closure(
                        model, prioclose.OrderKind(item["order"]), closures[item["id"]],
                        item["bound"], item["dom"],
                    )
                    row = {"equal": report.equal,
                           "missing": [list(w) for w in report.missing_words[:20]],
                           "extra": [list(w) for w in report.extra_words[:20]]}
                row["error"] = None
            except Exception:  # a crash fails this item; the pass goes on
                row = {"error": traceback.format_exc(limit=4)}
            row["s"] = time.perf_counter() - start
            row["id"] = item["id"]
            if tracer is not None:
                row["layers"] = tracer.out_states_since_last()
            rows.append(row)
        return rows

    return run, built


def sizes(prioclose, built) -> dict:
    """States, edges and live states of each closure the set-up built."""
    from lang import Automaton

    out = {}
    for item_id, nfa in built.items():
        reader = Automaton(prioclose.nfa_serialize(nfa), nfa.alphabet.letters)
        out[item_id] = {"states": reader.n_states, "edges": reader.n_edges,
                        "live": reader.live_states()}
    return out


def main(argv: list[str]) -> int:
    manifest_path, result_path, mode = argv
    sys.path.insert(0, str(ROOT / "src"))
    import prioclose

    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    setup = setup_verify if manifest["workload"] == "verify" else setup_cli
    run, built = setup(prioclose, manifest)
    tracer = None
    if mode == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    first_call = time.monotonic()
    result = {"first_call": first_call}
    if mode != "setup":
        start = time.perf_counter()
        result["items"] = run(tracer)
        result["pass_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode != "setup":
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.totals()
            result["spans"] = tracer.span_rows()
        result["sizes"] = sizes(prioclose, built)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
