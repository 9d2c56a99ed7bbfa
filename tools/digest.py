"""SHA-256 digests of the closures or reports a workload makes.

Usage:
    python3 tools/digest.py --workload pipeline|regular|verify|grammars [--seed N]

For ``pipeline`` and ``regular`` it runs ``prioclose.cli.main`` in
process on every item of the workload, with the models and argument
lists of ``bench/run.py``'s ``prepare_cli``, written to a temporary
directory, and digests each output file (or gives the exit code of an
item that failed).  For ``pipeline`` it digests every pipeline model
in all three orders, as the workload itself closes no grammar in
subword order.  For ``verify`` it runs one pass of
``bench/worker.py``'s ``setup_verify`` over ``bench/run.py``'s
``prepare_verify`` manifest, and digests each item's verdict with its
missing and extra words, or its enumerated words (or gives the last
line of an item's error).  For ``grammars`` it draws seeded random
grammars (``random_grammar``), closes each in all three orders at
``GRAMMAR_CAP`` states in process, and digests each closure's JSON form
(or gives the message of the cap that stopped it); it does the same for
the shared family (``shared_grammar``) at the sizes and orders of
``SHARED_ITEMS``.  For each block and priority item it also prints a
``:raw`` line, one digest over the JSON forms of every automaton that
``cfg.acyclic_nfa`` returns during that closure, the skeletons before
reduction; the function is wrapped for the call, so the lines compare
checkouts that both have it.  No benchmark workload times these.  It
prints one line per item, sorted by item id: the result, then the id.
The last line is the SHA-256 of all item lines.  Two checkouts whose
lines are equal build byte-identical closures, or give identical
reports or cap messages.  Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench_run  # noqa: E402  (bench/run.py)
import worker as bench_worker  # noqa: E402  (bench/worker.py)
import prioclose  # noqa: E402
import prioclose.cfg as cfg_module  # noqa: E402
from prioclose import cli  # noqa: E402


def verify_digests(seed: int) -> list[str]:
    """One "<digest> <id>" line per ``verify`` item, sorted by id."""
    manifest, _ = bench_run.prepare_verify(seed)
    # The worker reads the manifest back from JSON.
    run, _ = bench_worker.setup_verify(prioclose, json.loads(json.dumps(manifest)))
    lines = []
    for row in sorted(run(None), key=lambda row: row["id"]):
        if row["error"]:
            result = "error " + row["error"].strip().splitlines()[-1]
        else:
            report = {key: row[key] for key in ("equal", "missing", "extra", "words") if key in row}
            result = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        lines.append(f"{result}  {row['id']}")
    return lines


# (nonterminals, top priority, grammars) per cell of ``grammars``
GRAMMAR_CELLS = ((3, 1, 6), (3, 2, 6), (5, 1, 3), (5, 2, 3))
GRAMMAR_CAP = 5000


def random_grammar(rng: random.Random, n: int, d: int) -> prioclose.Cfg:
    """Nonterminals X0..X(n-1), start X0, over a0..ad with a_p of
    priority p.  Each nonterminal has one single-letter rule and two
    rules of 2 or 3 symbols, each symbol a letter or a nonterminal with
    probability 1/2."""
    letters = [f"a{p}" for p in range(d + 1)]
    nts = [f"X{i}" for i in range(n)]
    prods = []
    for x in nts:
        prods.append((x, (rng.choice(letters),)))
        for _ in range(2):
            size = rng.choice((2, 3))
            body = [rng.choice(letters if rng.random() < 0.5 else nts) for _ in range(size)]
            prods.append((x, tuple(body)))
    alphabet = prioclose.PriorityAlphabet.from_map({a: p for p, a in enumerate(letters)})
    return prioclose.Cfg(alphabet, tuple(nts), tuple(prods), nts[0])


# (k, orders) of the shared family; priority order at k = 8 and 10 takes
# seconds on the Kleene route, so only k = 6 digests it.
SHARED_ITEMS = ((6, ("subword", "block", "priority")), (8, ("subword", "block")), (10, ("subword", "block")))


def shared_grammar(k: int) -> prioclose.Cfg:
    """X_i -> X_(i+1) X_(i+1) for i < k, and X_k -> X_k a | a, over {a:0}:
    each X_(i+1) is a component that X_i uses twice."""
    prods = [(f"X{i}", (f"X{i + 1}", f"X{i + 1}")) for i in range(k)]
    prods += [(f"X{k}", (f"X{k}", "a")), (f"X{k}", ("a",))]
    alphabet = prioclose.PriorityAlphabet.from_map({"a": 0})
    return prioclose.Cfg(alphabet, tuple(f"X{i}" for i in range(k + 1)), tuple(prods), "X0")


def closure_digest(g: prioclose.Cfg, order: prioclose.OrderKind) -> str:
    """The digest of the closure's JSON form, or the cap that stopped it."""
    try:
        closed = prioclose.cfg_closure(g, order, GRAMMAR_CAP)
    except prioclose.ResourceLimit as exc:
        return f"stopped {exc}"
    data = json.dumps(prioclose.nfa_serialize(closed), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def closure_lines(g: prioclose.Cfg, order: prioclose.OrderKind, item_id: str) -> list[str]:
    """The closure's line, and for block and priority order the ``:raw``
    line of the automata ``cfg.acyclic_nfa`` returns meanwhile."""
    if order is prioclose.OrderKind.SUBWORD:
        return [f"{closure_digest(g, order)}  {item_id}"]
    acyclic_nfa = cfg_module.acyclic_nfa
    raw = []

    def recorded(*args, **kwargs):
        nfa = acyclic_nfa(*args, **kwargs)
        raw.append(prioclose.nfa_serialize(nfa))
        return nfa

    cfg_module.acyclic_nfa = recorded
    try:
        result = closure_digest(g, order)
    finally:
        cfg_module.acyclic_nfa = acyclic_nfa
    raw_digest = hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()
    return [f"{result}  {item_id}", f"{raw_digest}  {item_id}:raw"]


def grammar_digests(seed: int) -> list[str]:
    """One "<digest> <id>" line per grammar and order, and a ``:raw``
    line per block and priority item, sorted by id."""
    rng = random.Random(seed)
    lines = []
    for n, d, count in GRAMMAR_CELLS:
        for i in range(count):
            g = random_grammar(rng, n, d)
            for order in prioclose.OrderKind:
                lines += closure_lines(g, order, f"n{n}-d{d}-{i}:{order.value}")
    for k, orders in SHARED_ITEMS:
        for order in orders:
            lines += closure_lines(shared_grammar(k), prioclose.OrderKind(order), f"shared-{k}:{order}")
    return sorted(lines, key=lambda line: line.rsplit("  ", 1)[1])


def in_all_orders(items: list[dict], workdir: Path) -> list[dict]:
    """The items' models in every order, with the items' argument lists."""
    out = {}
    for item in items:
        for order in bench_run.corpus.ORDERS:
            output = workdir / f"{item['model']}.{order}.out.json"
            argv = list(item["argv"])
            argv[argv.index("--order") + 1] = order
            argv[argv.index("--output") + 1] = str(output)
            item_id = f"{item['model']}:{order}"
            out[item_id] = {"id": item_id, "argv": argv, "output": str(output)}
    return list(out.values())


def digests(workload: str, seed: int) -> list[str]:
    """One "<digest> <id>" line per item, sorted by id."""
    if workload == "verify":
        return verify_digests(seed)
    if workload == "grammars":
        return grammar_digests(seed)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        manifest, _ = bench_run.prepare_cli(workload, seed, Path(tmp))
        items = manifest["items"]
        if workload == "pipeline":
            items = in_all_orders(items, Path(tmp))
        for item in sorted(items, key=lambda item: item["id"]):
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
    parser.add_argument("--workload", choices=("pipeline", "regular", "verify", "grammars"), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="the corpus seed (regular), fault draw (verify), grammar draw "
                        "(grammars) or item order")
    args = parser.parse_args(argv)
    lines = digests(args.workload, args.seed)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines + [f"{total}  total"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
