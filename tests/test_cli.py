"""End-to-end runs of the command line front end."""

import errno
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cfcgf
from cfcgf import cfc_automaton, core, fsa, lexnf, oracle
from cfcgf.cli import main, verify
from cfcgf.core import preset_system
from cfcgf.errors import InternalError
from cfcgf.genfun import RationalGF
from helpers import count_words, to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict[str, str]:
    """The environment of a child Python that imports this cfcgf."""
    return dict(os.environ, PYTHONPATH=str(Path(cfcgf.__file__).resolve().parents[1]))


def run_under_256_mb(*args: str, timeout: int) -> subprocess.CompletedProcess:
    """Python with args in a child process whose address space is capped
    at 256 MB; the cap is set in the child only."""
    def cap():
        limit = 256 << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, *args], preexec_fn=cap, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def test_verify_agreement(capsys):
    code, out, _ = run(capsys, "verify", "--system", "B3", "--max-len", "6")
    assert code == 0
    assert out == "ok: lengths 0..6 agree\n"


def linear_pipeline(system):
    # checks no cyclic condition, so it accepts 010, whose rotation 001
    # is not reduced
    return fsa.product(
        [cfc_automaton.build(system, mode="fc"), lexnf.build(system)]
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
                       a.dead)

    monkeypatch.setattr(cfc_automaton, "build", missing)
    code, out, _ = run(capsys, "verify", "--system", "B3", "--max-len", "4")
    assert code == 1
    assert out == (
        "mismatch at length 2: automaton 4 vs oracle 5\n"
        "witness [0,1] (oracle only)\n"
    )


def reversed_pipeline(system):
    # letters c -> rank-1-c: the lex-greatest normal form of each element
    # instead of the least one, so every length has the right count
    a = cfc_automaton.build(system, "pipeline")
    return fsa.Dfa(a.alphabet_size, tuple(row[::-1] for row in a.delta),
                   a.initial, a.finals, a.dead)


def test_verify_compares_words_not_counts():
    system = preset_system("A3")
    assert verify(system, reversed_pipeline(system), 6) == (
        2, 5, 5, (0, 2), "oracle only"
    )


def test_verify_reports_a_mismatch_with_equal_counts(capsys, monkeypatch):
    machine = reversed_pipeline(preset_system("A3"))
    monkeypatch.setattr(cfc_automaton, "build", lambda *args: machine)
    code, out, _ = run(capsys, "verify", "--system", "A3", "--max-len", "6")
    assert code == 1
    assert out == (
        "mismatch at length 2: automaton 5 vs oracle 5\n"
        "witness [0,2] (oracle only)\n"
    )


VERIFY_ALL_WORDS = """
from cfcgf import cfc_automaton, fsa
from cfcgf.cli import verify
from cfcgf.core import preset_system

system = preset_system("tA3")
a = cfc_automaton.build(system, "pipeline")
# the pipeline's words plus every word of length 10
machine = fsa.explore(
    (a.initial, 0), lambda q, c: (a.delta[q[0]][c], min(q[1] + 1, 11)),
    lambda q: q[0] in a.finals or q[1] == 10, a.alphabet_size, 10**6)
print(verify(system, machine, 10))
"""


def test_machines_do_not_depend_on_string_hashing():
    # the searches find states again through dicts, which hash them; the
    # states must still be numbered in the order they are found
    outputs = []
    for seed in ("0", "12345"):
        done = subprocess.run(
            [sys.executable, "-m", "cfcgf.cli", "automaton", "--stage", "pipeline",
             "--system", "tA5"],
            capture_output=True, env=dict(child_env(), PYTHONHASHSEED=seed), timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["states"] == 992


def test_verify_mismatch_on_a_huge_language_fits_in_256_mb():
    # listing the machine's 4^10 words of length 10 to find the witness
    # ran out of memory
    done = run_under_256_mb("-c", VERIFY_ALL_WORDS, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == repr(
        (10, 4**10, 0, (0,) * 10, "automaton only")
    ) + "\n"


def test_unknown_system_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--system", "Z9", "--max-len", "3")
    assert code == 2
    assert err.startswith("error:")
    # neither a preset name nor a file that can be read: the OS says why
    for source, reason in [(str(tmp_path / "nonexist.json"), errno.ENOENT),
                           (str(tmp_path), errno.EISDIR)]:
        code, _, err = run(capsys, "genfun", "--system", source)
        assert code == 2
        assert err == (f"error: --system {source!r} is neither a preset name nor "
                       f"a readable file: {os.strerror(reason)}\n")


def test_a_preset_name_is_never_read_as_a_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, a3, _ = run(capsys, "genfun", "--system", "A3")
    assert code == 0
    # the answer written to a file named A3 does not shadow the preset
    assert run(capsys, "genfun", "--system", "A3", "--out", "A3")[0] == 0
    assert run(capsys, "genfun", "--system", "A3") == (0, a3, "")
    # a system file named like a preset is read through a path
    (tmp_path / "A3").write_text(json.dumps({"matrix": [[1, 3], [3, 1]]}))
    assert run(capsys, "genfun", "--system", "./A3") == (0, "(1 + 2x + 2x^2)/(1)\n", "")


def test_malformed_matrix_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "series", "--system", '{"matrix": [[1, 3], [2, 1]]}',
        "--max-len", "3",
    )
    assert code == 2
    assert "symmetric" in err
    not_utf8 = tmp_path / "system.json"
    not_utf8.write_bytes(b'{"matrix": [[1, 3], [3, 1]], "generators": ["\xe9"]}')
    rank_17 = json.dumps(
        {"matrix": [[1 if i == j else 2 for j in range(17)] for i in range(17)]}
    )
    repeated = json.dumps({"generators": ["a", "a"], "matrix": [[1, 3], [3, 1]]})
    unnamed = json.dumps({"generators": [], "matrix": [[1, 3], [3, 1]]})
    unreadable = json.dumps({"generators": ["a,b", "c"], "matrix": [[1, 3], [3, 1]]})
    not_a_list = json.dumps({"generators": "ab", "matrix": [[1, 3], [3, 1]]})
    not_strings = json.dumps({"generators": [1, 2], "matrix": [[1, 3], [3, 1]]})
    for argv, message in [
        (("series", "--system", '{"matrix": [1, 2]}', "--max-len", "3"),
         "list of rows"),
        (("genfun", "--system", "{}"), 'needs a "matrix" field'),
        (("genfun", "--system", '{"matrix": [[1, 2.5], [2.5, 1]]}'),
         'must be an integer or "inf"'),
        (("genfun", "--system", '{"matrix": [[1, true], [true, 1]]}'),
         'must be an integer or "inf"'),
        (("genfun", "--system", not_a_list), "must be a list of strings"),
        (("genfun", "--system", not_strings), "must be a list of strings"),
        (("genfun", "--system", str(not_utf8)), "UTF-8"),
        (("genfun", "--system", rank_17), "rank"),
        (("genfun", "--system", repeated), "distinct"),
        (("verify", "--system", repeated, "--max-len", "3"), "distinct"),
        (("genfun", "--system", unnamed), "matrix size"),
        (("genfun", "--system", unreadable), "non-empty"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and message in err


def test_huge_preset_exits_2_without_building(capsys, monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("matrix built before the rank check")

    monkeypatch.setattr(core, "diagram", no_matrix)
    for name in ("A100000", "tA100000"):
        code, _, err = run(capsys, "genfun", "--system", name)
        assert code == 2
        assert err.startswith("error:") and "rank" in err


def test_tiny_state_budget_exits_3(capsys):
    code, _, err = run(
        capsys, "automaton", "--system", "B3", "--state-budget", "4",
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("command, owner, attr, argv", [
    ("automaton", cfc_automaton, "build", []),
    ("oracle", oracle, "count_elements", ["--max-len", "4"]),
    ("verify", oracle, "count_elements", ["--max-len", "4"]),
], ids=["automaton", "oracle", "verify"])
def test_out_of_memory_exits_3(capsys, monkeypatch, command, owner, attr, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(owner, attr, exhausted)
    code, out, err = run(capsys, command, "--system", "A3", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: out of memory")
    # the advice names only options this command takes
    named = set(re.findall(r"--[a-z-]+", err))
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert named and named <= set(re.findall(r"--[a-z-]+", capsys.readouterr().out))


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


def test_unwritable_output_exits_2(capsys, tmp_path):
    # exit 1 is kept for a verify mismatch, so a path that cannot be
    # written is an input error, reported without a traceback
    target = str(tmp_path / "missing" / "x.json")
    for argv in [
        ("genfun", "--system", "A2", "--out", target),
        ("series", "--system", "A2", "--max-len", "3", "--out", target),
        ("automaton", "--system", "A2", "--out", target),
        ("automaton", "--system", "A2", "--dot", target),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and target in err, argv


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("streams", ["stdout-pipe", "shared-pipe", "dev-full",
                                     "stdout-closed", "both-closed"])
@pytest.mark.parametrize("argv", [
    ["automaton", "--system", "tA6"],
    ["genfun", "--system", "A3"],
    ["series", "--system", "A3", "--max-len", "3"],
    ["oracle", "--system", "A3", "--max-len", "3"],
    ["verify", "--system", "A3", "--max-len", "4"],
    pytest.param(["--help"], id="help"),
    pytest.param(["genfun", "--help"], id="genfun-help"),
], ids=lambda argv: argv[0])
def test_an_unwritable_stdout_exits_2_without_a_traceback(argv, streams, unbuffered):
    # stdout is a pipe whose read end is closed before the child writes its
    # first byte, that pipe shared with stderr, a full device, or a
    # descriptor the child starts without, alone or with stderr's
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if streams == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout, reason = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
        reason = errno.EBADF if streams.endswith("closed") else errno.EPIPE
    # the descriptors the child closes before it starts Python
    closed = {"stdout-closed": (1,), "both-closed": (1, 2)}.get(streams, ())
    stderr = stdout if streams in ("shared-pipe", "both-closed") else subprocess.PIPE
    try:
        done = subprocess.run([sys.executable, "-m", "cfcgf.cli", *argv],
                              stdout=stdout, stderr=stderr, env=env, text=True,
                              timeout=60, preexec_fn=lambda: list(map(os.close, closed)))
    finally:
        os.close(stdout)
    assert done.returncode == 2, done.stderr
    if stderr == subprocess.PIPE:
        assert done.stderr == f"error: cannot write stdout: {os.strerror(reason)}\n"


def test_a_closed_stream_keeps_the_commands_exit_code(tmp_path):
    # a command that writes nothing to a stdout the child starts without
    # succeeds, and without stderr an error keeps its own exit code
    target = tmp_path / "a.json"
    for argv, fd, code in [
        (["automaton", "--system", "A3", "--out", str(target)], 1, 0),
        (["genfun", "--system", "bogus"], 2, 2),
        (["automaton", "--system", "B3", "--state-budget", "4"], 2, 3),
    ]:
        done = subprocess.run([sys.executable, "-m", "cfcgf.cli", *argv],
                              capture_output=True, env=child_env(), timeout=60,
                              preexec_fn=lambda: os.close(fd))
        assert done.returncode == code, argv
        assert fd == 2 or done.stderr == b"", argv
    a3 = preset_system("A3")
    assert target.read_text() == to_json(cfc_automaton.build(a3), a3.names)


TRIANGLE_4_INF_2 = '{"matrix": [[1, 4, 2], [4, 1, "inf"], [2, "inf", 1]]}'


@pytest.mark.parametrize("system", ["tA3", TRIANGLE_4_INF_2])
@pytest.mark.parametrize("stage", cfc_automaton.MODES)
def test_automaton_json_is_the_same_on_stdout_in_a_file_and_in_to_json(
        capsys, tmp_path, system, stage):
    # the text is written out in pieces, never held whole
    parsed = core.parse_system(system)
    want = to_json(cfc_automaton.build(parsed, stage), parsed.names)
    code, out, _ = run(capsys, "automaton", "--system", system, "--stage", stage)
    assert code == 0 and out == want
    target = tmp_path / "a.json"
    code, out, _ = run(capsys, "automaton", "--system", system, "--stage", stage,
                       "--stats", "--out", str(target))
    assert code == 0 and out.startswith("states ")
    assert target.read_bytes() == want.encode()
    unwritable = str(tmp_path / "missing" / "a.json")
    code, out, err = run(capsys, "automaton", "--system", system, "--stage", stage,
                         "--out", unwritable)
    # main returns, so no traceback escapes
    assert code == 2 and out == "" and err.startswith("error:")


def test_cfc_stage_of_the_rank_8_cycle_fits_in_256_mb(tmp_path):
    # the product of the closed factors needs about 30 MB, where closing
    # the whole linear recognizer ran out
    done = run_under_256_mb("-m", "cfcgf.cli", "automaton", "--system", "tA7",
                            "--stage", "cfc", "--out", str(tmp_path / "ta7.json"),
                            timeout=120)
    assert done.returncode == 0, done.stderr


def test_per_expression_genfun_of_the_rank_8_cycle_fits_in_256_mb():
    # counting 2m+2 terms on the minimal cfc-stage machine did not end
    # within two minutes under this cap; the certificate stops at 256
    done = run_under_256_mb("-m", "cfcgf.cli", "genfun", "--per-expression",
                            "--system", "tA7", timeout=60)
    assert done.returncode == 0, done.stderr


def test_series_past_4300_digits_exits_0():
    # every label of this rank-8 system is infinite, so a word is CFC iff
    # no two cyclically adjacent letters are equal, and from length 2 on
    # the count is that of the proper 8-colourings of an n-cycle, 7^n +
    # 7(-1)^n: 4,311 digits at n = 5,100, past the default int -> str limit
    n = 5100
    matrix = [[1 if i == j else "inf" for j in range(8)] for i in range(8)]
    done = run_under_256_mb("-m", "cfcgf.cli", "series", "--system",
                            json.dumps({"matrix": matrix}), "--max-len", str(n),
                            timeout=60)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout)["coeffs"][-1]
    want = 7**n + 7
    # checked without an int <-> str conversion of the whole count
    assert 10 ** (len(last) - 1) <= want < 10 ** len(last)
    assert int(last[-30:]) == want % 10**30


def _genfun_under_256_mb(name: str, tmp_path, *options: str) -> RationalGF:
    out = tmp_path / f"{name}.json"
    done = run_under_256_mb("-m", "cfcgf.cli", "genfun", "--system", name,
                            "--out", str(out), *options, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    return RationalGF(tuple(map(int, doc["num"])), tuple(map(int, doc["den"])))


@pytest.mark.slow
def test_genfun_of_a12_fits_in_256_mb(tmp_path):
    # a finite group: a polynomial of degree the rank, whose top
    # coefficient 2^11 counts the Coxeter elements of the path
    gf = _genfun_under_256_mb("A12", tmp_path)
    assert gf.den == (1,)
    assert len(gf.num) == 13 and gf.num[12] == 2**11


@pytest.mark.slow
def test_genfun_of_the_rank_11_cycle_fits_in_256_mb(tmp_path):
    # past length 10 the counts are 2^11 - 2 at the multiples of 11 and 0
    # elsewhere, as on every smaller cycle the tests check
    counts = _genfun_under_256_mb("tA10", tmp_path).expand(66)
    for length in range(11, 67):
        assert counts[length] == (2046 if length % 11 == 0 else 0), length


# the denominator of tA8's per-expression series, a polynomial in x^9 of
# degree 26 there; its coefficients pass 2^61, so two primes are combined
TA8_PER_EXPRESSION_DEN = (
    1, -20160, 100739489, -165399444240, 112549149138849, -24369369339916704,
    10179580496736467321, 2082785062088637732744, -1676277164633972257913519,
    106828850859251010193606984, -7274046925994621797028829447,
    -164422944587187610217848752904, 23210916448668137759930534311605,
    -153900088107988576233143848443960, 637761296506447645060223448836967,
    -23107341717299225559878268085896808, -144759756071381286370429055481851889,
    -948334460342790563522016416996903432, -131242515584197795543831286340238401,
    975917401351206980033812449657829248, 275066963162247601637842634642725551,
    -4315765513900334779810602239747040, 274366697452623626761853036729847,
    -5769373026383858452765137728472, -23141353191169427244364510305,
    31169830245400407684744, 125015825667824393931)


@pytest.mark.slow
def test_per_expression_genfun_of_the_rank_9_cycle_fits_in_256_mb(tmp_path):
    gf = _genfun_under_256_mb("tA8", tmp_path, "--per-expression")
    assert gf.den[::9] == TA8_PER_EXPRESSION_DEN
    assert len(gf.den) == 235 and not any(c for i, c in enumerate(gf.den) if i % 9)
    # 243 numerator terms of up to 139 bits, frozen by their digest
    num = ",".join(map(str, gf.num)).encode()
    assert hashlib.sha256(num).hexdigest() == (
        "9302726a15178edb1c54c91307ef4b4276368cdb8f55e40b82e8d9c078b95bca")


def test_missing_required_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--system", "A2"])
    assert exc.value.code == 2


def test_options_a_command_does_not_read_exit_2(capsys):
    for argv in [
        ("genfun", "--system", "A2", "--class-budget", "3"),
        ("series", "--system", "A2", "--max-len", "3", "--class-budget", "3"),
        ("automaton", "--system", "A2", "--class-budget", "3"),
        ("oracle", "--system", "A2", "--max-len", "3", "--state-budget", "3"),
        ("verify", "--system", "A2", "--max-len", "3", "--out", "v.txt"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv


def test_negative_max_len_exits_2(capsys):
    # and budgets below 1, and a length that is not a number
    for argv, message in [
        (("series", "--system", "A2", "--max-len", "-1"), "must be >= 0"),
        (("series", "--system", "A2", "--max-len", "x"), "'x' is not an integer"),
        (("automaton", "--system", "A2", "--state-budget", "-5"), "must be >= 1"),
        (("automaton", "--system", "A2", "--state-budget", "0"), "must be >= 1"),
        (("oracle", "--system", "A2", "--max-len", "3", "--class-budget", "-1"),
         "must be >= 1"),
        (("oracle", "--system", "A2", "--max-len", "3", "--class-budget", "0"),
         "must be >= 1"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


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


def test_series_past_a_certified_pq_is_the_direct_count(capsys):
    # tA5's cfc stage certifies its P/Q on 65 counted terms; the other
    # 236 come from its expansion
    a = cfc_automaton.build(preset_system("tA5"), "cfc")
    code, out, _ = run(capsys, "series", "--system", "tA5", "--max-len", "300",
                       "--per-expression")
    assert code == 0
    assert json.loads(out) == {"coeffs": [str(c) for c in count_words(a, 300)]}


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


def test_genfun_coeffs_are_the_certified_prefix(capsys, tmp_path):
    target = tmp_path / "gf.json"
    code, _, _ = run(capsys, "genfun", "--system", "tA3", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    # P/Q is certified on the first prefix, lengths 0..64; the cap would
    # be 2l+2 for the pipeline's l live states
    a = cfc_automaton.build(preset_system("tA3"), "pipeline")
    assert doc["coeffs"] == [str(c) for c in count_words(a, 64)]
    assert 2 * sum(fsa.coreachable(a)) + 3 > 65


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
    assert len(doc["delta"]) == 5


def test_automaton_dot_output(capsys, tmp_path):
    target = tmp_path / "a.dot"
    code, _, _ = run(
        capsys, "automaton", "--system", "A2", "--dot", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("digraph")


@pytest.mark.parametrize("stage", cfc_automaton.MODES)
def test_automaton_writes_the_system_generator_names(capsys, tmp_path, stage):
    names = ['b"q', "é", "line\nbreak"]
    system = json.dumps({"generators": names,
                         "matrix": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]})
    out, dot = tmp_path / "a.json", tmp_path / "a.dot"
    code, _, _ = run(capsys, "automaton", "--system", system, "--stage", stage,
                     "--out", str(out), "--dot", str(dot))
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["alphabet"] == names
    # inside a DOT string a backslash, a quote and a newline are escaped
    escaped = {n.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
               for n in names}
    labels = [m.group(1) for m in re.finditer(r'^  q\d+ -> q\d+ \[label="(.*)"\];$',
                                              dot.read_text(encoding="utf-8"), re.M)]
    assert labels
    used = [part for label in labels for part in label.split(",")]
    assert set(used) == escaped


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


def test_importing_the_cli_pulls_in_no_heavy_stdlib_chain():
    # dataclasses (inspect, ast, dis, tokenize) and fractions (decimal,
    # numbers) once made up most of every command's start-up time; -S
    # keeps site's own imports out of the comparison
    code = ("import sys; before = set(sys.modules); import cfcgf.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(cfcgf.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    added = set(done.stdout.split())
    assert "cfcgf.cli" in added
    assert not added & {"dataclasses", "inspect", "fractions", "decimal"}


def test_the_benchmark_tracer_still_finds_the_layers(tmp_path):
    # perfbench/traced_cli.py wraps package functions by name and leaves
    # out one it cannot find, so a rename would only zero a layer's row;
    # it also reads fsa.trim unguarded, so losing that fails the run
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    names = set()
    for argv in [("genfun", "--system", "tA3", "--out", str(tmp_path / "gf.json")),
                 ("automaton", "--system", "A3", "--stage", "cfc", "--stats")]:
        spans = tmp_path / "spans.json"
        done = subprocess.run(
            [sys.executable, str(tracer), str(spans),
             str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)), "--", *argv],
            capture_output=True, text=True, env=child_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        doc = json.loads(spans.read_text())
        assert not [s for s in doc["spans"] if s.get("counts_failed")], argv
        names |= {s["name"] for s in doc["spans"]}
    assert names >= {"cli.main", "core.parse_system", "cfc_automaton.build",
                     "lexnf.build", "fsa.minimize", "genfun.find_recurrence",
                     "genfun.to_rational"}
