"""Command-line interface tests: exit codes, file formats, determinism."""

import json

import pytest

from prioclose.automata import nfa_enumerate, nfa_for_words, nfa_parse, nfa_serialize
from prioclose.cli import _build_parser, main
from prioclose.core import PriorityAlphabet, parse_word

w = parse_word

EX = PriorityAlphabet.from_map(
    {"0a": 0, "0b": 0, "1a": 1, "1b": 1, "2a": 2, "2b": 2}
)
P12 = PriorityAlphabet.from_map({"1": 1, "2": 2})
AB01 = PriorityAlphabet.from_map({"a": 0, "b": 1})
AB0 = PriorityAlphabet.from_map({"a": 0, "b": 0})
A0 = PriorityAlphabet.from_map({"a": 0})

FLAGSHIP_JSON = {
    "start": "X",
    "nonterminals": ["X"],
    "terminals": ["1", "2"],
    "productions": [["X", ["1", "X", "1"]], ["X", ["2"]]],
}

ANBN_JSON = {
    "start": "S",
    "nonterminals": ["S"],
    "terminals": ["a", "b"],
    "productions": [["S", ["a", "S", "b"]], ["S", ["a", "b"]]],
}

SOCA_ANBN_JSON = {
    "simple": True,
    "states": ["q0", "q1"],
    "initial": "q0",
    "final": "q1",
    "edges": [
        ["q0", "a", "inc", "q0"],
        ["q0", None, "noop", "q1"],
        ["q1", "b", "dec", "q1"],
    ],
}

NFA_AB_JSON = {
    "states": ["q0", "q1"],
    "initial": "q0",
    "finals": ["q1"],
    "edges": [["q0", "a", "q1"], ["q1", "b", "q1"]],
}

NFA_PQ_JSON = {
    "states": ["p", "q"],
    "initial": "p",
    "finals": ["q"],
    "edges": [["p", "a", "q"]],
}

OCA_PQ_JSON = {
    "states": ["p", "q"],
    "initial": "p",
    "finals": ["q"],
    "acceptMode": "anyCounter",
    "edges": [["p", "a", "inc", "q"], ["q", "b", "dec", "q"]],
}

# A simple counter machine whose states and edge endpoints are integers.
SOCA_INT_STATES_JSON = {
    "simple": True,
    "states": [1, 2],
    "initial": 1,
    "final": 2,
    "edges": [[1, "a", "inc", 1], [1, None, "noop", 2], [2, "b", "dec", 2]],
}

OCA_AB_JSON = {
    "states": ["q0", "q1"],
    "initial": "q0",
    "finals": ["q1"],
    "acceptMode": "anyCounter",
    "edges": [["q0", "a", "inc", "q1"], ["q1", "b", "dec", "q1"]],
}


@pytest.fixture
def files(tmp_path):
    def save(name, payload):
        path = tmp_path / name
        if isinstance(payload, str):
            path.write_text(payload, encoding="utf-8")
        else:
            path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return tmp_path, save


def alphabet_file(save, name, alphabet):
    return save(name, alphabet.to_json())


class TestCheckOrder:
    def test_block_negative(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "ex.json", EX)
        code = main(
            ["check-order", "--alphabet", alpha, "--order", "block", "1a,1b", "1a,2a,1b"]
        )
        assert code == 1
        assert capsys.readouterr().out == "false\n"

    def test_block_vs_priority(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "ex.json", EX)
        assert (
            main(
                ["check-order", "--alphabet", alpha, "--order", "block", "1a,0a", "1a,1b,0a"]
            )
            == 0
        )
        assert capsys.readouterr().out == "true\n"
        assert (
            main(
                [
                    "check-order",
                    "--alphabet",
                    alpha,
                    "--order",
                    "priority",
                    "1a,0a",
                    "1a,1b,0a",
                ]
            )
            == 1
        )
        assert capsys.readouterr().out == "false\n"

    def test_empty_below_letter(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "x.json", PriorityAlphabet.from_map({"x": 0}))
        code = main(["check-order", "--alphabet", alpha, "--order", "subword", "", "x"])
        assert code == 0
        assert capsys.readouterr().out == "true\n"

    def test_unknown_letter(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "ex.json", EX)
        code = main(["check-order", "--alphabet", alpha, "--order", "block", "zz", "1a"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_alphabet_file(self, files, capsys):
        tmp_path, _ = files
        code = main(
            [
                "check-order",
                "--alphabet",
                str(tmp_path / "absent.json"),
                "--order",
                "block",
                "1a",
                "1a",
            ]
        )
        assert code == 2

    def test_bad_order_flag(self, files):
        _, save = files
        alpha = alphabet_file(save, "ex.json", EX)
        with pytest.raises(SystemExit) as err:
            main(["check-order", "--alphabet", alpha, "--order", "sideways", "1a", "1a"])
        assert err.value.code == 2


class TestClosure:
    def test_grammar_block_pipeline(self, files, capsys):
        tmp_path, save = files
        alpha = alphabet_file(save, "p12.json", P12)
        model = save("flagship.json", FLAGSHIP_JSON)
        out = str(tmp_path / "closure.json")
        code = main(
            [
                "closure",
                "--type",
                "cfg",
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--output",
                out,
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("states=")
        closed = nfa_parse(json.loads(open(out, encoding="utf-8").read()), P12)
        expected = sorted(
            (
                ("1",) * i + ("2",) + ("1",) * j
                for i in range(8)
                for j in range(8)
                if i + 1 + j <= 8
            ),
            key=lambda u: (len(u), u),
        )
        assert nfa_enumerate(closed, 8) == expected

    def test_output_deterministic(self, files, capsys):
        tmp_path, save = files
        alpha = alphabet_file(save, "p12.json", P12)
        model = save("flagship.json", FLAGSHIP_JSON)
        first = str(tmp_path / "one.json")
        second = str(tmp_path / "two.json")
        base = [
            "closure",
            "--type",
            "cfg",
            "--order",
            "block",
            "--alphabet",
            alpha,
            "--input",
            model,
        ]
        assert main(base + ["--output", first]) == 0
        assert main(base + ["--output", second]) == 0
        capsys.readouterr()
        one = open(first, "rb").read()
        two = open(second, "rb").read()
        assert one == two

    def test_nfa_priority(self, files, capsys):
        tmp_path, save = files
        alpha = alphabet_file(save, "ex.json", EX)
        model = save(
            "word.json", nfa_serialize(nfa_for_words(EX, [w("0a,1b,0a")]))
        )
        out = str(tmp_path / "closure.json")
        code = main(
            [
                "closure",
                "--type",
                "nfa",
                "--order",
                "priority",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--output",
                out,
            ]
        )
        assert code == 0
        capsys.readouterr()
        closed = nfa_parse(json.loads(open(out, encoding="utf-8").read()), EX)
        assert nfa_enumerate(closed, 3) == [(), w("1b,0a"), w("0a,1b,0a")]

    def test_counter_machine_block(self, files, capsys):
        tmp_path, save = files
        alpha = alphabet_file(save, "ab.json", AB01)
        model = save("soca.json", SOCA_ANBN_JSON)
        out = str(tmp_path / "closure.json")
        dot = str(tmp_path / "closure.dot")
        code = main(
            [
                "closure",
                "--type",
                "oca",
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--output",
                out,
                "--dot",
                dot,
            ]
        )
        assert code == 0
        capsys.readouterr()
        closed = nfa_parse(json.loads(open(out, encoding="utf-8").read()), AB01)
        expected = sorted(
            [()]
            + [
                ("a",) * i + ("b",) * j
                for i in range(7)
                for j in range(1, 8)
                if i + j <= 7
            ],
            key=lambda u: (len(u), u),
        )
        assert nfa_enumerate(closed, 7) == expected
        assert open(dot, encoding="utf-8").read().startswith("digraph")

    def test_state_cap(self, files, capsys):
        tmp_path, save = files
        alpha = alphabet_file(save, "p12.json", P12)
        model = save("flagship.json", FLAGSHIP_JSON)
        code = main(
            [
                "closure",
                "--type",
                "cfg",
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--output",
                str(tmp_path / "closure.json"),
                "--state-cap",
                "10",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_state_cap_subword_grammar(self, files, capsys):
        """The largest component automaton of the flagship grammar walks 6 states."""
        tmp_path, save = files
        alpha = alphabet_file(save, "p12.json", P12)
        model = save("flagship.json", FLAGSHIP_JSON)
        code = main(
            [
                "closure",
                "--type",
                "cfg",
                "--order",
                "subword",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--output",
                str(tmp_path / "closure.json"),
                "--state-cap",
                "5",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: component automaton exceeded 5 states\n"

    @pytest.mark.parametrize("order", ["priority", "block"])
    @pytest.mark.parametrize("kind", ["nfa", "oca", "cfg"])
    def test_state_cap_every_kind(self, files, capsys, kind, order):
        tmp_path, save = files
        if kind == "nfa":
            alpha = alphabet_file(save, "ex.json", EX)
            model = save(
                "word.json", nfa_serialize(nfa_for_words(EX, [w("0a,1b,0a,2a")]))
            )
        elif kind == "oca":
            alpha = alphabet_file(save, "ab.json", AB01)
            model = save("soca.json", SOCA_ANBN_JSON)
        else:
            alpha = alphabet_file(save, "p12.json", P12)
            model = save("flagship.json", FLAGSHIP_JSON)
        code = main(
            [
                "closure",
                "--type",
                kind,
                "--order",
                order,
                "--alphabet",
                alpha,
                "--input",
                model,
                "--output",
                str(tmp_path / "closure.json"),
                "--state-cap",
                "5",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "exceeded 5 states" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["closure", "verify"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_state_cap_below_one(self, files, capsys, command, cap):
        tmp_path, save = files
        alpha = alphabet_file(save, "ab.json", AB01)
        model = save("nfa.json", NFA_AB_JSON)
        code = main(
            [
                command,
                "--type",
                "nfa",
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--output",
                str(tmp_path / "out.json"),
                "--state-cap",
                cap,
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: --state-cap must be at least 1\n"
        assert not (tmp_path / "out.json").exists()

    def test_malformed_model(self, files, capsys):
        tmp_path, save = files
        alpha = alphabet_file(save, "p12.json", P12)
        model = save("bad.json", {"start": "X"})
        code = main(
            [
                "closure",
                "--type",
                "cfg",
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--output",
                str(tmp_path / "closure.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "kind, model",
        [
            ("nfa", dict(NFA_AB_JSON, edges=[5])),
            ("nfa", dict(NFA_AB_JSON, edges=[["q0", ["a"], "q1"]])),
            ("nfa", dict(NFA_AB_JSON, states=["q0", "q1", ["x"]])),
            ("oca", dict(OCA_AB_JSON, edges=[5])),
            ("oca", dict(OCA_AB_JSON, edges=[["q0", ["a"], "inc", "q1"]])),
            ("oca", dict(OCA_AB_JSON, states=["q0", "q1", ["x"]])),
            ("cfg", dict(ANBN_JSON, nonterminals=["S", ["T"]])),
            ("cfg", dict(ANBN_JSON, productions=[["S", ["a", ["S"], "b"]]])),
            ("cfg", dict(ANBN_JSON, productions=[["S", "ab"]])),
            ("cfg", dict(ANBN_JSON, productions=["Sa"])),
            ("nfa", dict(NFA_PQ_JSON, states="pq")),
            ("nfa", dict(NFA_PQ_JSON, finals="q")),
            ("oca", dict(OCA_PQ_JSON, states="pq")),
            ("oca", dict(OCA_PQ_JSON, finals="q")),
            ("cfg", dict(ANBN_JSON, nonterminals="S")),
            ("cfg", dict(ANBN_JSON, terminals="ab")),
            ("oca", SOCA_INT_STATES_JSON),
        ],
        ids=[
            "nfa-edge-int",
            "nfa-label-list",
            "nfa-state-list",
            "oca-edge-int",
            "oca-label-list",
            "oca-state-list",
            "cfg-nonterminal-list",
            "cfg-symbol-list",
            "cfg-rhs-string",
            "cfg-production-string",
            "nfa-states-string",
            "nfa-finals-string",
            "oca-states-string",
            "oca-finals-string",
            "cfg-nonterminals-string",
            "cfg-terminals-string",
            "soca-int-states",
        ],
    )
    def test_malformed_shapes(self, files, capsys, kind, model):
        tmp_path, save = files
        alpha = alphabet_file(save, "ab.json", AB01)
        code = main(
            [
                "closure",
                "--type",
                kind,
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                save("bad.json", model),
                "--output",
                str(tmp_path / "closure.json"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestVerify:
    def test_grammar_subword(self, files, capsys):
        tmp_path, save = files
        alpha = alphabet_file(save, "ab.json", AB0)
        model = save("anbn.json", ANBN_JSON)
        report_path = str(tmp_path / "report.json")
        code = main(
            [
                "verify",
                "--type",
                "cfg",
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--bound",
                "6",
                "--dom-bound",
                "14",
                "--output",
                report_path,
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "equal=true missing=0 extra=0\n"
        report = json.loads(open(report_path, encoding="utf-8").read())
        assert report["equal"] is True
        assert report["missingWords"] == [] and report["extraWords"] == []
        assert report["model"] == "anbn.json"

    def test_counter_machine_block(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "ab.json", AB01)
        model = save("soca.json", SOCA_ANBN_JSON)
        code = main(
            [
                "verify",
                "--type",
                "oca",
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                model,
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("equal=true")

    def test_bound_zero(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "ab.json", AB0)
        model = save("anbn.json", ANBN_JSON)
        code = main(
            [
                "verify",
                "--type",
                "cfg",
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--bound",
                "0",
                "--dom-bound",
                "4",
            ]
        )
        assert code == 0

    def test_bad_bounds(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "ab.json", AB0)
        model = save("anbn.json", ANBN_JSON)
        code = main(
            [
                "verify",
                "--type",
                "cfg",
                "--order",
                "block",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--bound",
                "6",
                "--dom-bound",
                "2",
            ]
        )
        assert code == 2


class TestEnumerate:
    def test_grammar(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "p12.json", P12)
        model = save("flagship.json", FLAGSHIP_JSON)
        code = main(
            [
                "enumerate",
                "--type",
                "cfg",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--bound",
                "3",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "2\n1,2,1\n"

    def test_counter_machine(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "ab.json", AB01)
        model = save("soca.json", SOCA_ANBN_JSON)
        code = main(
            [
                "enumerate",
                "--type",
                "oca",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--bound",
                "4",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "\na,b\na,a,b,b\n"

    def test_single_letter_loop(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "a.json", A0)
        loop = {
            "states": ["q"],
            "initial": "q",
            "finals": ["q"],
            "edges": [["q", "a", "q"]],
        }
        model = save("astar.json", loop)
        code = main(
            [
                "enumerate",
                "--type",
                "nfa",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--bound",
                "1",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "\na\n"

    def test_negative_counter_cap(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "ab.json", AB01)
        model = save("soca.json", SOCA_ANBN_JSON)
        args = ["enumerate", "--type", "oca", "--alphabet", alpha, "--input", model]
        assert main(args + ["--bound", "4", "--counter-cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "counter cap" in captured.err
        assert main(args + ["--bound", "4", "--counter-cap", "0"]) == 0
        assert capsys.readouterr().out == "\n"

    def test_negative_bound(self, files, capsys):
        _, save = files
        alpha = alphabet_file(save, "p12.json", P12)
        model = save("flagship.json", FLAGSHIP_JSON)
        code = main(
            [
                "enumerate",
                "--type",
                "cfg",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--bound",
                "-1",
            ]
        )
        assert code == 2


class TestRender:
    def test_grammar(self, files):
        tmp_path, save = files
        alpha = alphabet_file(save, "p12.json", P12)
        model = save("flagship.json", FLAGSHIP_JSON)
        out = str(tmp_path / "g.dot")
        code = main(
            [
                "render",
                "--type",
                "cfg",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--output",
                out,
            ]
        )
        assert code == 0
        text = open(out, encoding="utf-8").read()
        assert text.startswith("digraph")
        assert '"X"' in text

    def test_nfa_keeps_state_names(self, files):
        tmp_path, save = files
        alpha = alphabet_file(save, "ab.json", AB01)
        # already in the serialised order: names sorted, ε-edges first per state
        data = {
            "states": ["busy", "idle", "q10", "q2"],
            "initial": "idle",
            "finals": ["idle", "q2"],
            "edges": [
                ["busy", None, "q10"],
                ["busy", "a", "busy"],
                ["busy", "b", "idle"],
                ["idle", "a", "busy"],
                ["idle", "a", "q10"],
                ["q10", "b", "q2"],
            ],
        }
        assert nfa_serialize(nfa_parse(data, AB01)) == data
        shuffled = {**data, "states": data["states"][::-1], "edges": data["edges"][::-1]}
        assert nfa_serialize(nfa_parse(shuffled, AB01)) == data
        out = str(tmp_path / "n.dot")
        code = main(
            ["render", "--type", "nfa", "--alphabet", alpha, "--input", save("n.json", data),
             "--output", out]
        )
        assert code == 0
        text = open(out, encoding="utf-8").read()
        assert '__start -> "idle";' in text
        assert '"idle" [shape=doublecircle];' in text
        assert '"busy" -> "q10" [label="&epsilon;"];' in text
        assert '"q10" -> "q2" [label="b"];' in text

    def test_counter_machine_dot_alias(self, files):
        tmp_path, save = files
        alpha = alphabet_file(save, "ab.json", AB01)
        model = save("soca.json", SOCA_ANBN_JSON)
        out = str(tmp_path / "m.dot")
        code = main(
            [
                "render",
                "--type",
                "oca",
                "--alphabet",
                alpha,
                "--input",
                model,
                "--dot",
                out,
            ]
        )
        assert code == 0
        assert open(out, encoding="utf-8").read().startswith("digraph")

    def test_requires_target(self, files):
        _, save = files
        alpha = alphabet_file(save, "p12.json", P12)
        model = save("flagship.json", FLAGSHIP_JSON)
        with pytest.raises(SystemExit) as err:
            main(
                ["render", "--type", "cfg", "--alphabet", alpha, "--input", model]
            )
        assert err.value.code == 2


def test_one_parser_serves_every_call(files, capsys):
    # the parser is built once per process, so a rejected call must leave
    # nothing behind that changes the next one
    tmp_path, save = files
    alpha = alphabet_file(save, "ex.json", EX)
    model = save("word.json", nfa_serialize(nfa_for_words(EX, [parse_word("0a,1b,0a")])))
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    closure = ["closure", "--type", "nfa", "--order", "priority", "--alphabet", alpha,
               "--input", model, "--output"]
    assert main([*closure, str(first)]) == 0
    with pytest.raises(SystemExit) as err:
        main(["closure", "--type", "xyz", "--order", "priority", "--alphabet", alpha,
              "--input", model, "--output", str(again)])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["render", "--type", "nfa", "--alphabet", alpha, "--input", model])
    assert err.value.code == 2
    assert main([*closure, str(again)]) == 0
    capsys.readouterr()
    assert again.read_bytes() == first.read_bytes()
    assert _build_parser() is _build_parser()
