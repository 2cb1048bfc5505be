"""End-to-end tests for the command-line surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import logicast
from logicast.algset import entails, zeros
from logicast.bitcodec import BitWriter
from logicast import bitcodec, protocols
from logicast.cli import main
from logicast.partition import J_MAX
from logicast.protocols import Transmission
from logicast.simlab import Conditional, Nested, Single, sample
from logicast.statements import parse_statements, render_statements

ALICE = "NOT (x1 AND x2 AND x3)\nNOT (NOT x1 AND NOT x2 AND NOT x3)\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- encode

def test_encode_t1_reports_payload_bits(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text(ALICE)
    out = tmp_path / "tx.bin"
    code, stdout, _ = run(capsys, [
        "encode", "--scenario", "t1", "--in", str(src),
        "--vars", "3", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    # |Z| = 6 of 8 points: elias(7) is 5 bits, the colex rank needs
    # ceil(log2 C(8,6)) = 5 more.
    assert stdout == "payload_bits=10\n"
    assert out.exists()


def test_encode_decode_prove_pipeline(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text(ALICE)
    tx = tmp_path / "tx.bin"
    assert main(["encode", "--scenario", "t1", "--in", str(src),
                 "--vars", "3", "--out", str(tx)]) == 0
    capsys.readouterr()
    dec = tmp_path / "shat.logic"
    code, stdout, _ = run(capsys, ["decode", "--in", str(tx), "--out", str(dec)])
    assert code == 0
    assert stdout == "scenario=t1\n"
    shat = parse_statements(dec.read_text(), 3)
    s = parse_statements(ALICE, 3)
    assert zeros(shat) == zeros(s)
    code, stdout, _ = run(capsys, [
        "prove", "--knowledge", str(dec), "--query", str(src)])
    assert code == 0
    assert stdout == "entailed\n"


def test_encode_t4_requires_query(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text("x1 = 0\n")
    code, _, stderr = run(capsys, [
        "encode", "--scenario", "t4", "--in", str(src),
        "--vars", "2", "--out", str(tmp_path / "tx.bin"),
    ])
    assert code == 2
    assert "--query" in stderr


def test_encode_t2_not_entailed_background(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text("x1\n")  # holds on {x1=1}
    bg = tmp_path / "r.logic"
    bg.write_text("x1 AND x2\n")
    code, _, stderr = run(capsys, [
        "encode", "--scenario", "t2", "--in", str(src), "--background", str(bg),
        "--vars", "2", "--out", str(tmp_path / "tx.bin"),
    ])
    assert code == 1
    assert "NotEntailed" in stderr
    assert "Traceback" not in stderr


def test_encode_rejects_stray_flags(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text("x1 = 0\n")
    code, _, stderr = run(capsys, [
        "encode", "--scenario", "t1", "--in", str(src), "--vars", "2",
        "--codec", "linear", "--out", str(tmp_path / "tx.bin"),
    ])
    assert code == 2
    assert "--codec" in stderr


def test_encode_missing_input_file(tmp_path, capsys):
    code, _, stderr = run(capsys, [
        "encode", "--scenario", "t1", "--in", str(tmp_path / "nope.logic"),
        "--vars", "2", "--out", str(tmp_path / "tx.bin"),
    ])
    assert code == 1
    assert "error" in stderr
    assert "Traceback" not in stderr


# ---------------------------------------------------------------- decode

def test_decode_t2_needs_background(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text("x1 AND x2\n")
    bg = tmp_path / "r.logic"
    bg.write_text("x1\n")
    tx = tmp_path / "tx.bin"
    assert main(["encode", "--scenario", "t2", "--in", str(src),
                 "--background", str(bg), "--vars", "2", "--out", str(tx)]) == 0
    capsys.readouterr()
    code, _, stderr = run(capsys, ["decode", "--in", str(tx),
                                   "--out", str(tmp_path / "d.logic")])
    assert code == 2
    assert "--background" in stderr
    dec = tmp_path / "shat.logic"
    code, _, _ = run(capsys, ["decode", "--in", str(tx), "--background", str(bg),
                              "--out", str(dec)])
    assert code == 0
    shat = parse_statements(dec.read_text(), 2)
    assert zeros(shat) == zeros(parse_statements("x1 AND x2\n", 2))


@pytest.mark.parametrize("scenario", ["t1", "t4"])
@pytest.mark.parametrize("background", ["missing", "malformed"])
def test_decode_refuses_background_the_scenario_does_not_take(tmp_path, capsys, scenario,
                                                              background):
    src = tmp_path / "s.logic"
    src.write_text("x1 = 0\n")
    query = tmp_path / "q.logic"
    query.write_text("x1*x2 = 0\n")
    tx = tmp_path / "tx.bin"
    extra = ["--query", str(query)] if scenario == "t4" else []
    assert main(["encode", "--scenario", scenario, "--in", str(src), *extra,
                 "--vars", "2", "--out", str(tx)]) == 0
    bg = tmp_path / "r.logic"
    if background == "malformed":
        bg.write_text("x1 NAND x2\n")
    capsys.readouterr()
    out = tmp_path / "d.logic"
    code, stdout, stderr = run(capsys, ["decode", "--in", str(tx), "--background", str(bg),
                                        "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert stderr == f"usage error: {scenario} does not take --background\n"
    assert not out.exists()


def test_decode_t3_writes_difference(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text("x1\n")
    bg = tmp_path / "r.logic"
    bg.write_text("x1\n")
    tx = tmp_path / "tx.bin"
    assert main(["encode", "--scenario", "t3", "--in", str(src),
                 "--background", str(bg), "--vars", "2", "--out", str(tx)]) == 0
    capsys.readouterr()
    dec = tmp_path / "delta.logic"
    code, stdout, _ = run(capsys, ["decode", "--in", str(tx),
                                   "--background", str(bg), "--out", str(dec)])
    assert code == 0
    assert stdout == "scenario=t3\n"
    assert dec.read_text() == ""  # s == r, nothing new to say


def test_decode_rejects_corrupt_magic(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text("x1 = 0\n")
    tx = tmp_path / "tx.bin"
    assert main(["encode", "--scenario", "t1", "--in", str(src),
                 "--vars", "2", "--out", str(tx)]) == 0
    capsys.readouterr()
    blob = bytearray(tx.read_bytes())
    blob[0] ^= 0xFF
    tx.write_bytes(bytes(blob))
    code, _, stderr = run(capsys, ["decode", "--in", str(tx),
                                   "--out", str(tmp_path / "d.logic")])
    assert code == 1
    assert "MalformedHeader" in stderr


@pytest.mark.parametrize("codec", ["linear", "random"])
@pytest.mark.parametrize("j", [J_MAX + 1, 1 << 40, 1 << 70])
def test_decode_rejects_row_index_past_j_max(tmp_path, capsys, codec, j):
    body = BitWriter()
    body.write_elias_delta(j)
    tx = tmp_path / "tx.bin"
    tx.write_bytes(Transmission("t4", 3, codec, 0, (16384, 32768, 0, 0),
                                body.to_bits()).to_bytes())
    code, stdout, stderr = run(capsys, ["decode", "--in", str(tx),
                                        "--out", str(tmp_path / "d.logic")])
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: MalformedCodeword: ")


def test_t4_cli_roundtrip_is_sandwiched(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text("x1 = 0\nx2 = 0\n")
    query = tmp_path / "q.logic"
    query.write_text("x1*x2 = 0\n")
    tx = tmp_path / "tx.bin"
    assert main(["encode", "--scenario", "t4", "--in", str(src),
                 "--query", str(query), "--vars", "3", "--codec", "linear",
                 "--seed", "5", "--out", str(tx)]) == 0
    capsys.readouterr()
    dec = tmp_path / "shat.logic"
    assert main(["decode", "--in", str(tx), "--out", str(dec)]) == 0
    capsys.readouterr()
    s = parse_statements(src.read_text(), 3)
    q = parse_statements(query.read_text(), 3)
    shat = parse_statements(dec.read_text(), 3)
    assert entails(s, shat)
    assert entails(shat, q)


def test_t5_cli_roundtrip_with_background(tmp_path, capsys):
    src = tmp_path / "s.logic"
    src.write_text("x1 = 0\nx2 = 0\n")
    query = tmp_path / "q.logic"
    query.write_text("x1*x2 = 0\n")
    bg = tmp_path / "r.logic"
    bg.write_text("x3 = 0\n")
    tx = tmp_path / "tx.bin"
    assert main(["encode", "--scenario", "t5", "--in", str(src),
                 "--query", str(query), "--background", str(bg),
                 "--vars", "3", "--codec", "random", "--out", str(tx)]) == 0
    capsys.readouterr()
    dec = tmp_path / "shat.logic"
    assert main(["decode", "--in", str(tx), "--background", str(bg),
                 "--out", str(dec)]) == 0
    capsys.readouterr()
    s = parse_statements(src.read_text(), 3)
    q = parse_statements(query.read_text(), 3)
    shat = parse_statements(dec.read_text(), 3)
    assert entails(s, shat)
    assert entails(shat, q)


@pytest.mark.parametrize("scenario, codec", [
    ("t1", None), ("t2", None), ("t3", None), ("t4", None), ("t4", "random"),
    ("t5", None), ("t5", "random"),
])
def test_cli_bytes_and_output_match_the_library(tmp_path, capsys, scenario, codec):
    """The CLI passes each file, the seed and the codec to the library as
    the library's own signature orders them."""
    m, seed = 4, 11
    # Nested draws Z(s) inside Z(q); for t2/t3 that outer set is the background
    law = Conditional(0.5, 0.2, 0.6, 0.1, 0.7) if scenario == "t5" else Nested(0.2, 0.6)
    _, stmts = sample(law, m, 5)
    names = {"t1": "s", "t2": "sr", "t3": "sr", "t4": "sq", "t5": "sqr"}[scenario]
    files = {}
    for name, stmt in zip(names, stmts):
        files[name] = tmp_path / f"{name}.logic"
        files[name].write_text(render_statements(stmt))
    argv = ["encode", "--scenario", scenario, "--in", str(files["s"]),
            "--vars", str(m), "--seed", str(seed), "--out", str(tmp_path / "tx.bin")]
    for name, flag in (("q", "--query"), ("r", "--background")):
        if name in files:
            argv += [flag, str(files[name])]
    if codec:
        argv += ["--codec", codec]
    assert main(argv) == 0
    dec_argv = ["decode", "--in", str(tmp_path / "tx.bin"), "--out", str(tmp_path / "d.logic")]
    if "r" in files:
        dec_argv += ["--background", str(files["r"])]
    assert main(dec_argv) == 0
    capsys.readouterr()

    operands = [parse_statements(files[n].read_text(), m) for n in "sqr" if n in files]
    kw = {"seed": seed} if codec is None else {"seed": seed, "codec": codec}
    tx = getattr(protocols, f"{scenario}_encode")(*operands, **kw)
    assert (tmp_path / "tx.bin").read_bytes() == tx.to_bytes()
    background = operands[-1:] if "r" in files else []
    out = getattr(protocols, f"{scenario}_decode")(tx, *background)
    assert (tmp_path / "d.logic").read_text() == render_statements(out)


# ---------------------------------------------------------------- outputs

def _encode_decode(tmp_path, tx, dec, src_text=ALICE, m=3):
    src = tmp_path / "s.logic"
    src.write_text(src_text)
    assert main(["encode", "--scenario", "t1", "--in", str(src), "--vars", str(m),
                 "--seed", "5", "--out", str(tx)]) == 0
    assert main(["decode", "--in", str(tx), "--out", str(dec)]) == 0


def test_outputs_written_over_longer_files_hold_exactly_the_new_bytes(tmp_path, capsys):
    _encode_decode(tmp_path, tmp_path / "tx0.bin", tmp_path / "d0.logic")
    tx, dec = tmp_path / "tx.bin", tmp_path / "d.logic"
    tx.write_bytes(b"\xff" * 5000)
    dec.write_bytes(b"x9 = 0\n" * 1000)
    _encode_decode(tmp_path, tx, dec)
    assert tx.read_bytes() == (tmp_path / "tx0.bin").read_bytes()
    assert dec.read_bytes() == (tmp_path / "d0.logic").read_bytes()


def test_outputs_written_over_shorter_files_grow_them(tmp_path, capsys):
    tx, dec = tmp_path / "tx.bin", tmp_path / "d.logic"
    _encode_decode(tmp_path, tx, dec)
    short = tx.read_bytes(), dec.read_bytes()
    # a larger universe: a longer transmission and more statement lines
    (zs,), (s,) = sample(Single(0.3), 6, 3)
    _encode_decode(tmp_path, tx, dec, render_statements(s), 6)
    assert len(tx.read_bytes()) > len(short[0]) and len(dec.read_bytes()) > len(short[1])
    assert tx.read_bytes() == protocols.t1_encode(s, seed=5).to_bytes()
    assert zeros(parse_statements(dec.read_text(), 6)) == zs


def test_outputs_keep_an_existing_files_mode_and_inode(tmp_path, capsys):
    tx, dec = tmp_path / "tx.bin", tmp_path / "d.logic"
    for path in (tx, dec):
        path.write_bytes(b"old contents, longer than the new ones" * 10)
        path.chmod(0o600)
    before = [os.stat(path) for path in (tx, dec)]
    _encode_decode(tmp_path, tx, dec)
    for path, old in zip((tx, dec), before):
        now = os.stat(path)
        assert now.st_mode & 0o777 == 0o600
        assert (now.st_ino, now.st_dev) == (old.st_ino, old.st_dev)


def test_new_outputs_get_the_umasked_default_mode(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        _encode_decode(tmp_path, tmp_path / "tx.bin", tmp_path / "d.logic")
    finally:
        os.umask(old)
    for name in ("tx.bin", "d.logic"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~0o027


def test_outputs_to_the_null_device(tmp_path, capsys):
    # not a regular file: written, never truncated
    tx = tmp_path / "tx.bin"
    _encode_decode(tmp_path, tx, tmp_path / "d.logic")
    src = tmp_path / "s.logic"
    assert main(["encode", "--scenario", "t1", "--in", str(src), "--vars", "3",
                 "--out", os.devnull]) == 0
    assert main(["decode", "--in", str(tx), "--out", os.devnull]) == 0


def test_repeated_round_trips_into_the_same_paths_give_identical_files(tmp_path, capsys):
    tx, dec = tmp_path / "tx.bin", tmp_path / "d.logic"
    _encode_decode(tmp_path, tx, dec)
    first = tx.read_bytes(), dec.read_bytes()
    _encode_decode(tmp_path, tx, dec)
    assert (tx.read_bytes(), dec.read_bytes()) == first


def test_cli_t1_decode_builds_the_binomial_once(tmp_path, capsys, monkeypatch):
    # framing the payload sizes the rank by log-gamma and builds no
    # binomial; the unrank builds C(2^m, |Z(s)|) once, first, to refuse a
    # rank past it, and then the halving order's binomials of the halves
    m = 12
    (zs,), (s,) = sample(Single(0.2), m, 3)
    data = protocols.t1_encode(s).to_bytes()
    tx = tmp_path / "tx.bin"
    tx.write_bytes(data)
    built = []
    binom = bitcodec.binom

    def counting_binom(n, k):
        built.append((n, k))
        return binom(n, k)

    monkeypatch.setattr(bitcodec, "binom", counting_binom)
    protocols.read_transmission(data)
    assert built == []
    assert main(["decode", "--in", str(tx), "--out", str(tmp_path / "d.logic")]) == 0
    assert built and built[0] == (1 << m, zs.size), built[:3]
    assert built.count((1 << m, zs.size)) == 1


# ---------------------------------------------------------------- prove

def test_prove_exit_codes(tmp_path, capsys):
    k = tmp_path / "k.logic"
    k.write_text("x1 = 0\n")
    q = tmp_path / "q.logic"
    q.write_text("x1*x2 = 0\n")
    for engine in ("brute", "groebner"):
        code, stdout, _ = run(capsys, ["prove", "--knowledge", str(k),
                                       "--query", str(q), "--engine", engine])
        assert code == 0
        assert stdout == "entailed\n"
        code, stdout, _ = run(capsys, ["prove", "--knowledge", str(q),
                                       "--query", str(k), "--engine", engine])
        assert code == 1
        assert stdout == "not entailed\n"


def test_prove_empty_knowledge_proves_nothing(tmp_path, capsys):
    k = tmp_path / "k.logic"
    k.write_text("")
    q = tmp_path / "q.logic"
    q.write_text("x1 = 0\n")
    code, stdout, _ = run(capsys, ["prove", "--knowledge", str(k),
                                   "--query", str(q)])
    assert code == 1
    assert stdout == "not entailed\n"


def test_prove_syntax_error(tmp_path, capsys):
    k = tmp_path / "k.logic"
    k.write_text("x1 AND AND\n")
    q = tmp_path / "q.logic"
    q.write_text("x1 = 0\n")
    code, stdout, stderr = run(capsys, ["prove", "--knowledge", str(k),
                                        "--query", str(q)])
    assert code == 1
    assert stdout == ""
    assert "StatementSyntaxError" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("flag", ["encode --in", "prove --knowledge", "decode --background"])
def test_statement_file_that_is_not_utf8_is_a_syntax_error(tmp_path, capsys, flag):
    good = tmp_path / "good.logic"
    good.write_text("x1 AND x2\n")
    bad = tmp_path / "bad.logic"
    bad.write_bytes(b"\xff x1\n")
    tx = tmp_path / "tx.bin"
    assert main(["encode", "--scenario", "t2", "--in", str(good), "--background", str(good),
                 "--vars", "2", "--out", str(tx)]) == 0
    capsys.readouterr()
    argv = {
        "encode --in": ["encode", "--scenario", "t1", "--in", str(bad), "--vars", "2",
                        "--out", str(tmp_path / "out.bin")],
        "prove --knowledge": ["prove", "--knowledge", str(bad), "--query", str(good)],
        "decode --background": ["decode", "--in", str(tx), "--background", str(bad),
                                "--out", str(tmp_path / "d.logic")],
    }[flag]
    code, stdout, stderr = run(capsys, argv)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: StatementSyntaxError: line 1, col 1: ")


def test_non_utf8_byte_is_reported_where_it_sits(tmp_path, capsys):
    bad = tmp_path / "bad.logic"
    # the column counts characters, so the two-byte é is one column
    bad.write_bytes("x1\r\n\nx1 AND é".encode() + b"\xff\n")
    code, _, stderr = run(capsys, ["prove", "--knowledge", str(bad), "--query", str(bad)])
    assert code == 1
    assert stderr.startswith("error: StatementSyntaxError: line 3, col 9: byte 0xff ")


def test_prove_deep_nesting_is_a_syntax_error(tmp_path, capsys):
    k = tmp_path / "k.logic"
    k.write_text("x1\n" + "NOT " * 5000 + "x1\n")
    q = tmp_path / "q.logic"
    q.write_text("x1 = 0\n")
    code, stdout, stderr = run(capsys, ["prove", "--knowledge", str(k),
                                        "--query", str(q)])
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: StatementSyntaxError: line 2, col 1: ")


def test_prove_groebner_rejects_large_universe(tmp_path, capsys):
    # the engine stops at GB_M_MAX = 16, so m = 17 is refused before any work
    k = tmp_path / "k.logic"
    k.write_text("x17 = 0\n")
    code, stdout, stderr = run(capsys, ["prove", "--knowledge", str(k),
                                        "--query", str(k), "--engine", "groebner"])
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: UniverseTooLarge: ")


# ---------------------------------------------------------------- simulate

def test_simulate_t1_report(capsys):
    code, stdout, _ = run(capsys, [
        "simulate", "--scenario", "t1", "--ps", "0.2",
        "--m", "6", "--trials", "5", "--seed", "3",
    ])
    assert code == 0
    assert "scenario=t1" in stdout
    assert "trials=5" in stdout
    assert "lower_violation=no" in stdout
    assert "upper_violation=no" in stdout


def test_simulate_t2_takes_conditional_density(capsys):
    code, stdout, _ = run(capsys, [
        "simulate", "--scenario", "t2", "--pr", "0.5", "--ps", "0.5",
        "--m", "6", "--trials", "4",
    ])
    assert code == 0
    assert "law=Nested(p_s=0.25, p_q=0.5)" in stdout


def test_simulate_usage_errors(capsys):
    code, _, stderr = run(capsys, ["simulate", "--scenario", "t1",
                                   "--m", "6", "--trials", "2"])
    assert code == 2
    assert "--ps" in stderr
    code, _, stderr = run(capsys, ["simulate", "--scenario", "t1", "--ps", "0.2",
                                   "--codec", "linear", "--trials", "2"])
    assert code == 2
    code, _, stderr = run(capsys, ["simulate", "--scenario", "t4", "--ps", "0.25",
                                   "--m", "5", "--trials", "2"])
    assert code == 2
    assert "--pq" in stderr


def test_simulate_bad_probability_is_domain_error(capsys):
    code, _, stderr = run(capsys, ["simulate", "--scenario", "t1", "--ps", "1.5",
                                   "--m", "5", "--trials", "2"])
    assert code == 1
    assert "DomainError" in stderr


@pytest.mark.parametrize("command", ["simulate", "bounds"])
@pytest.mark.parametrize("m, error", [("30", "UniverseTooLarge"),
                                      ("-3", "DomainError"),
                                      ("0", "DomainError")])
def test_out_of_range_m_is_rejected_up_front(capsys, command, m, error):
    argv = [command, "--scenario", "t1", "--ps", "0.2", "--m", m]
    if command == "simulate":
        argv += ["--trials", "1"]
    code, stdout, stderr = run(capsys, argv)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {error}: ")


# ---------------------------------------------------------------- bounds

def test_bounds_t4_prints_lambda(capsys):
    code, stdout, _ = run(capsys, [
        "bounds", "--scenario", "t4", "--ps", "0.25", "--pq", "0.75"])
    assert code == 0
    assert "lambda=0.500000" in stdout
    assert "trials=0" in stdout


def test_bounds_t2_conditional_half(capsys):
    code, stdout, _ = run(capsys, [
        "bounds", "--scenario", "t2", "--pr", "0.5", "--ps", "0.5"])
    assert code == 0
    assert "lower_bound=0.500000" in stdout


def test_bounds_t5_certain_background_matches_t4(capsys):
    _, t4_out, _ = run(capsys, [
        "bounds", "--scenario", "t4", "--ps", "0.25", "--pq", "0.75"])
    code, t5_out, _ = run(capsys, [
        "bounds", "--scenario", "t5", "--pr", "1.0",
        "--ps-in", "0.25", "--pq-in", "0.75",
        "--ps-out", "0.1", "--pq-out", "0.9",
    ])
    assert code == 0
    get = lambda text, key: [ln for ln in text.splitlines()
                             if ln.startswith(key + "=")][0]
    assert get(t5_out, "lower_bound") == get(t4_out, "lower_bound")
    assert get(t5_out, "upper_bound") == get(t4_out, "upper_bound")


# ---------------------------------------------------------------- sweep

def test_sweep_emits_csv(capsys):
    code, stdout, _ = run(capsys, ["sweep", "--grid", "0.1:0.1:0.3"])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "p_a,p_b,h_a,h_b,linear_rate,lambda"
    assert len(lines) == 10  # 3x3 grid, every pair inside the simplex
    assert any(row.startswith("0.100000,0.100000,") for row in lines[1:])


def test_sweep_drops_pairs_outside_simplex(capsys):
    code, stdout, _ = run(capsys, ["sweep", "--grid", "0.3:0.3:0.9"])
    assert code == 0
    lines = stdout.strip().split("\n")
    sums = [float(r.split(",")[0]) + float(r.split(",")[1]) for r in lines[1:]]
    assert all(s <= 1.0 for s in sums)
    assert len(lines) == 1 + 3  # only (.3,.3) (.3,.6) (.6,.3) stay inside


def test_sweep_rejects_malformed_grid(capsys):
    for spec in ("zero-to-one", "nan:0.1:0.3", "inf:1:inf", "0.1:nan:0.3",
                 "0.1:0.1:inf", "0:0.00001:1"):
        code, _, stderr = run(capsys, ["sweep", "--grid", spec])
        assert code == 2, spec
        assert "grid" in stderr


def test_sweep_rejects_nonpositive_block_length(capsys):
    for n in ("0", "-5"):
        code, stdout, stderr = run(capsys, ["sweep", "--grid", "0.1:0.1:0.3",
                                            "--n", n])
        assert code == 1, n
        assert stdout == ""
        assert "DomainError" in stderr


# ---------------------------------------------------------------- process

def test_module_entrypoint_subprocess():
    # the child imports the same logicast as this test, installed or not
    src = str(Path(logicast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "logicast.cli",
         "bounds", "--scenario", "t4", "--ps", "0.25", "--pq", "0.75"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "lambda=0.500000" in proc.stdout


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
