"""End-to-end runs of the command line front end."""

import json

import pytest

from cfcgf import cfc_automaton, fsa, lexnf
from cfcgf.cli import main, verify
from cfcgf.core import preset_system
from cfcgf.errors import InternalError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_agreement(capsys):
    code, out, _ = run(capsys, "verify", "--system", "B3", "--max-len", "6")
    assert code == 0
    assert out == "ok: lengths 0..6 agree\n"


def linear_pipeline(system):
    # checks no cyclic condition, so it accepts 010, whose rotation 001
    # is not reduced
    return fsa.intersect(
        cfc_automaton.build(system, mode="fc"), lexnf.build(system)
    )


def test_verify_reports_wrap_check_regression():
    system = preset_system("I2:5")
    assert verify(system, linear_pipeline(system), 5) == (
        3, 2, 0, (0, 1, 0), "automaton only"
    )


def test_verify_reports_unbounded_tracking_regression():
    system = preset_system("tA1")
    assert verify(system, linear_pipeline(system), 5) == (
        3, 2, 0, (0, 1, 0), "automaton only"
    )


def test_verify_reports_words_only_the_oracle_accepts(capsys, monkeypatch):
    # a pipeline that misses a word on purpose: the state reached by 01
    # in B3 no longer accepts
    exact = cfc_automaton.build

    def missing(system, mode="cfc", state_budget=None):
        a = exact(system, mode)
        q = a.delta[a.delta[a.initial][0]][1]
        return fsa.Dfa(a.alphabet_size, a.delta, a.initial, a.finals - {q},
                       a.dead, a.letter_names)

    monkeypatch.setattr(cfc_automaton, "build", missing)
    code, out, _ = run(capsys, "verify", "--system", "B3", "--max-len", "4")
    assert code == 1
    assert out == (
        "mismatch at length 2: automaton 4 vs oracle 5\n"
        "witness [0,1] (oracle only)\n"
    )


def test_unknown_system_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--system", "Z9", "--max-len", "3")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_matrix_exits_2(capsys):
    code, _, err = run(
        capsys, "series", "--system", '{"matrix": [[1, 3], [2, 1]]}',
        "--max-len", "3",
    )
    assert code == 2
    assert "symmetric" in err


def test_tiny_state_budget_exits_3(capsys):
    code, _, err = run(
        capsys, "automaton", "--system", "B3", "--state-budget", "4",
    )
    assert code == 3
    assert "budget" in err


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cfc_automaton, "build", exhausted)
    code, out, err = run(capsys, "automaton", "--system", "A3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: out of memory")


def test_broken_pair_rule_exits_4(capsys, monkeypatch):
    # every step of the linear recognizer goes through the chain rule, and
    # the rule's invariant errors reach the command line
    def broken(system, pair, chain, s):
        raise InternalError(f"broken rule for pair {pair}")

    monkeypatch.setattr(cfc_automaton, "_chain_step", broken)
    code, out, err = run(capsys, "automaton", "--system", "A3")
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


def test_missing_required_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--system", "A2"])
    assert exc.value.code == 2


def test_negative_max_len_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--system", "A2", "--max-len", "-1"])
    assert exc.value.code == 2


def test_series_counts_elements(capsys):
    code, out, _ = run(capsys, "series", "--system", "A2", "--max-len", "4")
    assert code == 0
    assert json.loads(out) == {"coeffs": ["1", "2", "2", "0", "0"]}


def test_series_per_expression_counts_words(capsys):
    code, out, _ = run(
        capsys, "series", "--system", "A3", "--max-len", "4", "--per-expression",
    )
    assert code == 0
    assert json.loads(out) == {"coeffs": ["1", "3", "6", "6", "0"]}
    # with no commuting pairs every element has a single expression
    code, out, _ = run(
        capsys, "series", "--system", "A2", "--max-len", "4", "--per-expression",
    )
    assert code == 0
    assert json.loads(out) == {"coeffs": ["1", "2", "2", "0", "0"]}


def test_genfun_prints_rational_form(capsys):
    code, out, _ = run(capsys, "genfun", "--system", "tA1")
    assert code == 0
    assert out == "(1 + 2x + x^2 - 2x^3)/(1 - x^2)\n"


def test_genfun_writes_json_document(capsys, tmp_path):
    target = tmp_path / "gf.json"
    code, out, _ = run(
        capsys, "genfun", "--system", "I2:5", "--out", str(target),
    )
    assert code == 0
    assert out == "(1 + 2x + 2x^2 + 2x^4)/(1)\n"
    doc = json.loads(target.read_text())
    assert doc["num"] == ["1", "2", "2", "0", "2"]
    assert doc["den"] == ["1"]
    assert doc["coeffs"][:5] == ["1", "2", "2", "0", "2"]
    assert set(doc["coeffs"][5:]) == {"0"}


def test_genfun_counts_to_twice_the_minimized_states(capsys, tmp_path):
    target = tmp_path / "gf.json"
    code, _, _ = run(capsys, "genfun", "--system", "tA3", "--out", str(target))
    assert code == 0
    system = preset_system("tA3")
    raw = fsa.intersect(cfc_automaton.build(system), lexnf.build(system))
    m = fsa.minimize(fsa.trim(raw)).num_states
    doc = json.loads(target.read_text())
    # the horizon is 2*m+2, so the counts cover lengths 0..2m+2
    assert len(doc["coeffs"]) == 2 * m + 3
    assert len(doc["coeffs"]) < 2 * raw.num_states + 3


def test_oracle_report(capsys):
    code, out, _ = run(
        capsys, "oracle", "--system", "I2:5", "--max-len", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "cfc"
    assert doc["cfc_counts"] == ["1", "2", "2", "0", "2"]
    assert doc["fc_counts"] == ["1", "2", "2", "2", "2"]


def test_oracle_witnesses(capsys):
    code, out, _ = run(
        capsys, "oracle", "--system", "A2", "--max-len", "2", "--witnesses",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["witnesses"]["1"] == [[0], [1]]
    assert doc["witnesses"]["2"] == [[0, 1], [1, 0]]


def test_automaton_stats(capsys):
    code, out, _ = run(capsys, "automaton", "--system", "A1", "--stats")
    assert code == 0
    assert out == "states 3\ntrimmed 3\nminimized 3\n"


def test_automaton_json_roundtrip(capsys):
    code, out, _ = run(capsys, "automaton", "--system", "A2")
    assert code == 0
    doc = json.loads(out)
    assert doc["initial"] == 0
    assert len(doc["delta"]) == 6


def test_automaton_dot_output(capsys, tmp_path):
    target = tmp_path / "a.dot"
    code, _, _ = run(
        capsys, "automaton", "--system", "A2", "--dot", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("digraph")


def test_system_from_file(capsys, tmp_path):
    doc = tmp_path / "sys.json"
    doc.write_text('{"matrix": [[1, 5], [5, 1]]}')
    code, out, _ = run(capsys, "series", "--system", str(doc), "--max-len", "4")
    assert code == 0
    assert json.loads(out) == {"coeffs": ["1", "2", "2", "0", "2"]}


def test_runs_are_deterministic(capsys):
    _, first, _ = run(capsys, "automaton", "--system", "tA2")
    _, second, _ = run(capsys, "automaton", "--system", "tA2")
    assert first == second
