from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest
from hypothesis import given, settings

import sdepthlab.cli as cli
import sdepthlab.corpus as corpus
from helpers import quotient_pairs
from sdepthlab.fuzz import FuzzConfig, run_fuzz
from sdepthlab.io import ParseError, load_pair, parse_input, serialize_pair
from sdepthlab.monomials import EmptyQuotientError, InputError
from sdepthlab.surgery import DriverFailure

EX1 = "n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n"


# -- parsing ------------------------------------------------------------------

@given(quotient_pairs(normalized=False))
@settings(max_examples=40)
def test_serialize_round_trip(Q):
    text = serialize_pair(Q)
    assert parse_input(text) == Q


def test_parse_flexible_layout():
    Q = parse_input(
        "# leading comment\n"
        "J = x1*x2*x3   # trailing comment\n"
        "\n"
        "n=4\n"
        "I = x1*x2, x3*x4\n"
    )
    assert Q.ambient == 4
    assert str(Q.I) == "x1*x2, x3*x4"
    assert str(Q.J) == "x1*x2*x3"
    zero = parse_input("n=3\nI = x1\nJ = 0\n")
    assert zero.J.is_zero()
    assert serialize_pair(zero) == "n=3\nI = x1\nJ = 0\n"


@pytest.mark.parametrize(
    "text, line, col, fragment",
    [
        ("n=3\nnonsense\nI = x1\nJ = 0\n", 2, 1, "expected"),
        ("n=x\nI = x1\nJ = 0\n", 1, 3, "bad integer"),
        ("n=0\nI = x1\nJ = 0\n", 1, 3, "out of range"),
        ("n=17\nI = x1\nJ = 0\n", 1, 3, "out of range"),
        ("n=3\nn=4\nI = x1\nJ = 0\n", 2, 1, "duplicate n="),
        ("n=3\nI = x1\nI = x2\nJ = 0\n", 3, 1, "duplicate I"),
        ("n=3\nK = x1\n", 2, 1, "unknown key"),
        ("I = x1\nJ = 0\n", 1, 1, "missing n="),
        ("n=3\nJ = 0\n", 1, 1, "missing I"),
        ("n=3\nI = x1\n", 1, 1, "missing J"),
        ("n=3\nI = x1,,x2\nJ = 0\n", 2, 8, "empty monomial"),
        ("n=3\nI = y1\nJ = 0\n", 2, 5, "y1"),
        ("n=3\nI = x1*x1, x2\nJ = 0\n", 2, 5, "repeated"),
        # constructor-level errors point at the whole list, not one chunk
        ("n=2\nI = x3\nJ = 0\n", 2, 4, "ambient"),
    ],
)
def test_parse_errors_carry_positions(text, line, col, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_input(text)
    err = exc_info.value
    assert (err.line, err.col) == (line, col)
    assert fragment in str(err)
    assert str(err).startswith(f"line {line}, column {col}:")


def test_semantic_errors_are_not_parse_errors():
    with pytest.raises(InputError) as exc_info:
        parse_input("n=3\nI = x1\nJ = x2\n")
    assert not isinstance(exc_info.value, ParseError)
    with pytest.raises(EmptyQuotientError):
        parse_input("n=2\nI = x1\nJ = x1\n")


def test_load_pair(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(EX1, encoding="utf-8")
    Q = load_pair(str(path))
    assert Q.ambient == 5 and Q == parse_input(EX1)


# -- CLI ----------------------------------------------------------------------

@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.txt"
    path.write_text(EX1, encoding="utf-8")
    return str(path)


def test_cli_analyze_plain(ex1_file, capsys):
    assert cli.main(["analyze", ex1_file]) == 0
    out = capsys.readouterr().out
    assert "strata: d=2 r=3 s=7 q=4" in out
    assert "sdepth = 3" in out
    assert "depth  = 3" in out
    assert "0 inconsistent" in out
    assert "[ok] three_generators_step" in out


def test_cli_analyze_json(ex1_file, capsys):
    assert cli.main(["analyze", ex1_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "input", "strata", "sdepth", "depth",
        "hdepth", "verdicts", "audit", "inconsistent", "findings",
    }
    assert report["strata"]["d"] == 2
    assert report["sdepth"]["value"] == 3
    assert report["sdepth"]["free"] == 0  # ex1 uses all five variables
    assert report["depth"]["depth"] == 3
    assert report["inconsistent"] == [] and report["findings"] == []
    assert report["audit"]["ok"] is True


def test_cli_analyze_reads_the_normal_form(tmp_path, capsys):
    # x2 lies in J, so the module is (x1)/(x1*x2): r = 1, and the depth
    # rules of that shape apply to it
    path = tmp_path / "low.txt"
    path.write_text("n=3\nI = x1, x2\nJ = x2\n", encoding="utf-8")
    assert cli.main(["analyze", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "strata: d=1 r=1 s=1 q=0 |E|=0" in out
    assert "verdicts: 7 applicable, 0 inconsistent" in out
    assert [ln.strip() for ln in out.splitlines() if ln.startswith("  [")] == [
        "[ok] depth_ge_min_degree: depth >= 1",
        "[ok] sdepth_ge_min_degree: sdepth >= 1",
        "[ok] sdepth_le_hilbert_depth: sdepth <= 2",
        "[ok] b_count_below_2r_sdepth: sdepth <= 2",
        "[ok] b_count_below_2r: depth <= 2",
        "[ok] conjecture_small_cases: depth <= 2",
        "[ok] three_generators_step: depth <= 2",
    ]


@pytest.mark.parametrize("text, char", [
    ("n=3\nI = 1\nJ = 0\n", 0),
    ("n=3\nI = 1\nJ = x1*x2*x3\n", 0),
    (corpus.ITEMS["pp2"], 0),
    (corpus.ITEMS["pp2"], 2),
], ids=["unit", "unit_over_m", "rp2_char0", "rp2_char2"])
def test_cli_analyze_unit_ideal_is_consistent(tmp_path, capsys, text, char):
    # at d = 0 (I = (1)) every b is a variable whose only degree-0 divisor is
    # the generator 1, so the all-low-divisors rule must not claim depth 0
    path = tmp_path / "unit.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["analyze", str(path), "--char", str(char)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "0 inconsistent" in out
    assert "all_low_divisors_generate" not in out


def test_cli_analyze_json_is_pinned(tmp_path, capsys):
    # sha256 of `analyze --json` on each corpus item in chars 0, 2 and 3, in
    # that order: every strata, depth, verdict and audit field of the reports
    h = hashlib.sha256()
    for name, text in corpus.ITEMS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        for char in (0, 2, 3):
            assert cli.main(["analyze", str(path), "--json", "--char", str(char)]) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == (
        "02490f89454310cd65785c19d8c281035ed34e04ca06f49a0756199605d8bffb"
    )


@pytest.mark.parametrize("command", ["analyze", "depth"])
def test_cli_rejects_an_unsupported_characteristic(ex1_file, capsys, command):
    assert cli.main([command, ex1_file, "--char", "5"]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "field characteristic 5" in captured.err


def test_cli_analyze_inconsistent_exit(ex1_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "inconsistencies", lambda v, audit=None: (v[0],))
    assert cli.main(["analyze", ex1_file]) == cli.EXIT_INCONSISTENT


def test_cli_depth_char_sweep(tmp_path, capsys):
    path = tmp_path / "pp2.txt"
    path.write_text(corpus.ITEMS["pp2"], encoding="utf-8")
    assert cli.main(["depth", str(path)]) == 0
    assert "depth = 3 (char 0" in capsys.readouterr().out
    assert cli.main(["depth", str(path), "--char", "2"]) == 0
    assert "depth = 2 (char 2" in capsys.readouterr().out


def test_cli_sdepth(ex1_file, capsys):
    assert cli.main(["sdepth", ex1_file]) == 0
    out = capsys.readouterr().out
    assert "sdepth = 3" in out and "[x1*x2," in out
    assert "(k = 4 refuted by search)" in out
    assert cli.main(["sdepth", ex1_file, "--decide", "4"]) == 0
    assert "sdepth >= 4: unsat" in capsys.readouterr().out
    assert cli.main(["sdepth", ex1_file, "--decide", "3"]) == 0
    assert "certificate" in capsys.readouterr().out


def test_cli_hdepth_and_sdepth_on_a_gapped_pair(tmp_path, capsys):
    # hdepth1 comes from the layer counts, so n = 16 answers at once
    path = tmp_path / "gapped16.txt"
    j = ", ".join(f"x{min(k, 4)}*x{max(k, 4)}" for k in range(1, 17) if k != 4)
    path.write_text(f"n=16\nI = x4, x2*x5*x10\nJ = {j}\n")
    assert cli.main(["hdepth", str(path)]) == 0
    out = capsys.readouterr().out
    assert "hdepth1 = 1" in out
    assert "(coefficient 2 fails at value+1)" in out
    assert cli.main(["sdepth", str(path)]) == 0
    assert "sdepth = 1  (k = 2 refuted by hdepth1)" in capsys.readouterr().out


def test_cli_sdepth_reports_free_variables(tmp_path, capsys):
    # x4 divides no generator: the search runs on x1..x3 and adds one
    path = tmp_path / "free.txt"
    path.write_text("n=4\nI = x1*x2, x3\nJ = x1*x2*x3\n", encoding="utf-8")
    assert cli.main(["sdepth", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sdepth = 3  (k = 4 refuted by hdepth1; 1 free variable)"
    assert out[1:] == [
        "  [x3, x1*x3*x4]", "  [x1*x2, x1*x2*x4]", "  [x2*x3, x2*x3*x4]",
    ]


def test_cli_sdepth_on_m14(tmp_path, capsys):
    # 1 715 chosen intervals: deeper than Python's recursion limit
    path = tmp_path / "m14.txt"
    gens = ", ".join(f"x{i}" for i in range(1, 15))
    path.write_text(f"n=14\nI = {gens}\nJ = 0\n", encoding="utf-8")
    assert cli.main(["sdepth", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sdepth = 7  (k = 8 refuted by hdepth1)"


def test_cli_hdepth(tmp_path, capsys):
    path = tmp_path / "m2.txt"
    path.write_text("n=2\nI = x1, x2\nJ = 0\n", encoding="utf-8")
    assert cli.main(["hdepth", str(path)]) == 0
    out = capsys.readouterr().out
    assert "hdepth1 = 1" in out
    assert "coefficient 2 fails" in out


def test_cli_herzog(capsys):
    assert cli.main(["herzog", "6"]) == 0
    assert "3 != hdepth1(S+m) = 4" in capsys.readouterr().out
    assert cli.main(["herzog", "4"]) == 0
    assert " = " in capsys.readouterr().out
    assert cli.main(["herzog", "13"]) == cli.EXIT_PARSE


def test_cli_surgery(tmp_path, capsys):
    path = tmp_path / "drv.txt"
    path.write_text(
        "n=6\nI = x1*x4, x4*x5, x2*x4*x6, x3*x4*x6\n"
        "J = x1*x2*x3*x4, x1*x4*x5*x6, x2*x3*x4*x5\n",
        encoding="utf-8",
    )
    assert cli.main(["surgery", str(path), "--b", "x1*x2*x4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "upgraded_partition"
    assert payload["value"] == 4
    assert "trace" not in payload
    assert cli.main(["surgery", str(path), "--b", "x1*x2*x4", "--trace"]) == 0
    traced = json.loads(capsys.readouterr().out)
    assert any("case 3" in t for t in traced["trace"])


def test_cli_surgery_hypothesis_failure(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(corpus.ITEMS["bad"], encoding="utf-8")
    assert cli.main(["surgery", str(path), "--b", "x1*x4"]) == cli.EXIT_PARSE
    assert "r=2 fails" in capsys.readouterr().err


def test_cli_corpus(capsys):
    assert cli.main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert "checks passed" in out


def test_cli_corpus_mismatch_exit(capsys, monkeypatch):
    monkeypatch.setitem(corpus.EXPECTED["ex1"], "sdepth", 4)
    assert cli.main(["corpus"]) == cli.EXIT_INCONSISTENT
    assert "MISMATCH" in capsys.readouterr().out


def test_cli_fuzz(tmp_path, capsys):
    log = tmp_path / "fuzz.jsonl"
    assert cli.main([
        "fuzz", "--n", "4", "--count", "5", "--seed", "3",
        "--out", str(log),
    ]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["count"] == 5 and summary["inconsistent"] == 0
    assert summary["char2_passes"] == 0
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert all(json.loads(ln)["seed"] == 3 for ln in lines)
    # --max-gens and --max-degree reach FuzzConfig unchanged
    narrow, ref = tmp_path / "narrow.jsonl", tmp_path / "ref.jsonl"
    assert cli.main([
        "fuzz", "--n", "4", "--count", "5", "--seed", "3",
        "--max-gens", "3", "--max-degree", "2", "--out", str(narrow),
    ]) == 0
    run_fuzz(FuzzConfig(n=4, count=5, seed=3, max_gens=3, max_degree=2,
                        out=str(ref)))
    assert narrow.read_bytes() == ref.read_bytes() != log.read_bytes()


def test_cli_fuzz_bad_config_is_a_parse_error(capsys):
    for argv in (["--max-gens", "0"], ["--n", "9"]):
        assert cli.main(["fuzz", *argv]) == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_fuzz_inconsistent_exit(capsys, monkeypatch):
    fake = SimpleNamespace(inconsistent=2, to_json=lambda: {"inconsistent": 2})
    seen = []
    monkeypatch.setattr(cli, "run_fuzz", lambda cfg: seen.append(cfg) or fake)
    assert cli.main(["fuzz", "--count", "1"]) == cli.EXIT_INCONSISTENT
    # every flag left unset takes FuzzConfig's default
    assert seen == [FuzzConfig(count=1)]


def test_cli_usage_errors():
    for argv in ([], ["analyze"], ["nope"], ["herzog", "abc"]):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        assert exc_info.value.code == cli.EXIT_USAGE


def test_cli_parse_exit_codes(tmp_path):
    assert cli.main(["depth", str(tmp_path / "absent.txt")]) == cli.EXIT_PARSE
    broken = tmp_path / "broken.txt"
    broken.write_text("n=0\nI = x1\nJ = 0\n", encoding="utf-8")
    assert cli.main(["depth", str(broken)]) == cli.EXIT_PARSE
    semantic = tmp_path / "semantic.txt"
    semantic.write_text("n=3\nI = x1\nJ = x2\n", encoding="utf-8")
    assert cli.main(["analyze", str(semantic)]) == cli.EXIT_PARSE


def test_cli_unreadable_input_is_a_parse_error(tmp_path, capsys):
    # a directory opens with IsADirectoryError, an OSError like a missing file
    assert cli.main(["sdepth", str(tmp_path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_ends_quietly_when_the_reader_closes_the_pipe(tmp_path):
    # m_14's certificate (~100 KB) outgrows the pipe, so the writer meets
    # the closed end whatever the timing
    path = tmp_path / "m14.txt"
    gens = ", ".join(f"x{i}" for i in range(1, 15))
    path.write_text(f"n=14\nI = {gens}\nJ = 0\n", encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdepthlab.cli", "sdepth", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    head = proc.stdout.read(60)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_OK
    assert head.startswith(b"sdepth = 7") and err == b""


def test_cli_internal_exit_codes(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "herzog", boom)
    assert cli.main(["herzog", "3"]) == cli.EXIT_INTERNAL
    assert "internal error: boom" in capsys.readouterr().err

    def driver_down(args):
        raise DriverFailure("stuck", ("step one", "step two"))

    monkeypatch.setitem(cli._COMMANDS, "herzog", driver_down)
    assert cli.main(["herzog", "3"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "driver failure: stuck" in err
    assert "step one" in err and "step two" in err


# -- the package root -----------------------------------------------------------

def test_import_loads_the_engine_modules_and_binds_them():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sdepthlab; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('sdepthlab'))))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert out == ["sdepthlab"] + [f"sdepthlab.{m}" for m in (
        "corpus", "depth", "engines", "fuzz", "hilbert", "io", "linalg",
        "monomials", "poset", "reisner", "sdepth", "surgery", "verdicts")]
    import sdepthlab.sdepth as m
    assert isinstance(m, ModuleType) and callable(m.sdepth_decide)
