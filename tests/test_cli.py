"""Command-line behavior: outputs, file formats, exit codes.

Most cases drive main() in process; one end-to-end case goes through a real
subprocess to check interpreter-level exit codes.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import thetaparity as tp
from thetaparity.cli import main


def run(args):
    return main(args)


# child processes import the package from where this process found it
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(Path(tp.__file__).parents[1]), os.environ.get("PYTHONPATH"))))}


def test_gen_writes_loadable_bitmap(tmp_path, capsys):
    out = tmp_path / "b.f2s"
    assert run(["gen", "inv-theta", "2^8", "--out", str(out)]) == 0
    line = capsys.readouterr().out
    b = tp.read_f2s(out)
    assert b.length == 256
    assert f"{b.popcount()} set bits" in line
    assert b == tp.build_B(256)


def test_gen_all_series_kinds(tmp_path):
    for kind in ("theta", "pentagonal", "inv-theta", "inv-pentagonal", "inv-theta7"):
        out = tmp_path / f"{kind}.f2s"
        assert run(["gen", kind, "100", "--out", str(out)]) == 0
        assert tp.read_f2s(out).length == 100


def test_series_table():
    # gen's constructors live in one table, f2series.SERIES, which stays
    # readable as cli._BUILDERS, where bench/selftest.py checks that the
    # tracer wraps them; the package re-exports the same builders
    from thetaparity import cli, f2series as f2

    assert cli._BUILDERS is f2.SERIES
    assert tp.build_B is f2.build_B and tp.build_Bstar is f2.build_Bstar

    n = 100
    expected = {"theta": f2.from_exponents(f2.squares(n), n),
                "pentagonal": f2.from_exponents(f2.generalized_pentagonals(n), n),
                "inv-theta": tp.build_B(n),
                "inv-pentagonal": tp.build_Bstar(n),
                "inv-theta7": f2.inverse_seventh_power(n)}
    assert sorted(cli._BUILDERS) == sorted(cli._SERIES) == sorted(expected)
    for kind, series in expected.items():
        assert cli._BUILDERS[kind](n) == series, kind
    assert cli._BUILDERS["inv-theta7"] is f2.inverse_seventh_power


def test_gen_count_expressions(tmp_path):
    out = tmp_path / "b.f2s"
    assert run(["gen", "theta", "2^4+1", "--out", str(out)]) == 0
    assert tp.read_f2s(out).length == 17
    assert run(["gen", "theta", "5*2^2", "--out", str(out)]) == 0
    assert tp.read_f2s(out).length == 20


def test_gen_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "theta", "0", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["gen", "theta", "2^99", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["gen", "nonsense", "16", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_gen_refuses_a_bitmap_larger_than_memory(tmp_path, capsys, monkeypatch):
    # the bitmap's size is checked before any exponent list is built
    from thetaparity import f2series

    def never(*args):
        raise AssertionError("a builder ran")

    monkeypatch.setattr(f2series, "squares", never)
    monkeypatch.setattr(f2series, "generalized_pentagonals", never)
    out = tmp_path / "x.f2s"
    need = 8 * (2 ** 58 + 1)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for series in ("theta", "pentagonal", "inv-theta", "inv-pentagonal", "inv-theta7"):
        assert run(["gen", series, "2^64+1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert f"{need}-byte bitmap" in err and f"{have} bytes" in err
        assert not out.exists()


def test_no_threads_option(tmp_path):
    # every scan runs on one thread, so no subcommand takes --threads
    bmp = str(tmp_path / "b.f2s")
    for argv in (["gen", "inv-theta", "8", "--out", bmp],
                 ["verify", "T1_1", "0", "1", "--inv-theta", bmp],
                 ["census", "--bitmap", bmp, "--x", "1", "--intervals", "1"],
                 ["alpha", "--bitmap", bmp, "--max-x", "1", "--step", "1"],
                 ["repcount", "--n", "11", "--form", "1,1,1"],
                 ["classnum", "--disc", "-47"],
                 ["jacobi", "--a", "-2", "--n", "7"]):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--threads", "2"])
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv", [
    ["gen", "theta", "16"],
    ["verify", "T1_1", "0", "10", "--inv-theta", "{bmp}"],
    ["census", "--x", "1", "--intervals", "2", "--bitmap", "{bmp}"],
    ["alpha", "--max-x", "2", "--step", "1", "--bitmap", "{bmp}"],
], ids=["gen", "verify", "census", "alpha"])
def test_out_in_missing_directory(argv, tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    tp.write_f2s(tp.build_B(64), bmp)
    argv = [arg.format(bmp=bmp) for arg in argv]
    assert run([*argv, "--out", str(tmp_path / "no" / "dir" / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_t1_1_range(tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    run(["gen", "inv-theta", "101", "--out", str(bmp)])
    capsys.readouterr()
    assert run(["verify", "T1_1", "0", "100", "--inv-theta", str(bmp)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "statement_id,n_lo,n_hi,holds,vacuous,violated,first_violation_n"
    assert out[1] == "T1_1,0,100,51,0,0,"


def test_verify_all_statements(tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    bmp7 = tmp_path / "b7.f2s"
    run(["gen", "inv-theta", "401", "--out", str(bmp)])
    run(["gen", "inv-theta7", "401", "--out", str(bmp7)])
    report = tmp_path / "report.csv"
    capsys.readouterr()
    code = run(["verify", "all", "0", "400", "--inv-theta", str(bmp),
                "--inv-theta7", str(bmp7), "--out", str(report)])
    assert code == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 19  # header plus one row per statement
    for line in lines[1:]:
        assert line.split(",")[5] == "0"  # violated column


def test_verify_exit_three_on_short_bitmap(tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    run(["gen", "inv-theta", "16", "--out", str(bmp)])
    capsys.readouterr()
    assert run(["verify", "T1_1", "0", "100", "--inv-theta", str(bmp)]) == 3
    err = capsys.readouterr().err
    assert "101" in err
    bmp7 = tmp_path / "b7.f2s"
    run(["gen", "inv-theta7", "16", "--out", str(bmp7)])
    capsys.readouterr()
    assert run(["verify", "L3_5", "0", "100", "--inv-theta", str(bmp),
                "--inv-theta7", str(bmp7)]) == 3
    assert "1/g^7 bitmap holds 16 coefficients" in capsys.readouterr().err


def test_verify_exit_one_on_violation(tmp_path, capsys):
    # corrupt one even coefficient so T1_1 fails at n = 6
    good = tp.build_B(101)
    bad = tp.BitSeries(good.length, good.bits ^ (1 << 6))
    bmp = tmp_path / "bad.f2s"
    tp.write_f2s(bad, bmp)
    assert run(["verify", "T1_1", "0", "100", "--inv-theta", str(bmp)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "T1_1,0,100,50,0,1,6"


def test_verify_usage_errors(tmp_path):
    bmp = tmp_path / "b.f2s"
    run(["gen", "inv-theta", "64", "--out", str(bmp)])
    with pytest.raises(SystemExit) as exc:
        run(["verify", "T9_9", "0", "10", "--inv-theta", str(bmp)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify", "L3_5", "0", "10", "--inv-theta", str(bmp)])
    assert exc.value.code == 2  # needs --inv-theta7
    with pytest.raises(SystemExit) as exc:
        run(["verify", "T1_1", "10", "0", "--inv-theta", str(bmp)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify", "T1_1", "-5", "10", "--inv-theta", str(bmp)])
    assert exc.value.code == 2


def test_verify_class_number_ceiling(tmp_path, capsys):
    # past the ceiling verify stops before it reads a bitmap or builds a column
    top = tp.theorems.CLASS_NUMBER_HI_MAX
    for ids in ("GAUSS_24H", "T1_1,GAUSS_12H", "all"):
        with pytest.raises(SystemExit) as exc:
            run(["verify", ids, "0", str(top + 1),
                 "--inv-theta", str(tmp_path / "missing.f2s")])
        assert exc.value.code == 2
        assert f"hi <= {top}" in capsys.readouterr().err


def test_memory_error_is_exit_two(monkeypatch, capsys):
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(tp.quadarith, "count_signed_representations", too_big)
    assert run(["repcount", "--n", "10^11", "--form", "1,1,1", "--signed"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "745" in err


def test_verify_rejects_damaged_bitmap_file(tmp_path, capsys):
    bad = tmp_path / "bad.f2s"
    bad.write_bytes(b"not a bitmap at all")
    assert run(["verify", "T1_1", "0", "10", "--inv-theta", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_census_csv(tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    run(["gen", "inv-theta", "2^7", "--out", str(bmp)])
    capsys.readouterr()
    assert run(["census", "--x", "2", "--intervals", "4",
                "--bitmap", str(bmp)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "interval_index,lo,hi,count,count_minus_half_x"
    assert len(lines) == 5
    # x = 2: the first interval's candidates are 15 and 31
    b = tp.build_B(128)
    expect0 = b.coefficient(15) + b.coefficient(31)
    assert lines[1] == f"0,0,32,{expect0},{expect0 - 1}"
    table = tp.interval_counts(b, 2, 4)
    for j, count in enumerate(table.counts):
        assert lines[1 + j].split(",")[3] == str(count)


def test_census_odd_x_half_column(tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    run(["gen", "inv-theta", "2^6", "--out", str(bmp)])
    capsys.readouterr()
    assert run(["census", "--x", "3", "--intervals", "1",
                "--bitmap", str(bmp)]) == 0
    lines = capsys.readouterr().out.splitlines()
    count = int(lines[1].split(",")[3])
    assert lines[1].split(",")[4] == f"{count - 1.5:.1f}"


def test_census_exit_three(tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    run(["gen", "inv-theta", "16", "--out", str(bmp)])
    capsys.readouterr()
    assert run(["census", "--x", "2", "--intervals", "1",
                "--bitmap", str(bmp)]) == 3
    assert "32" in capsys.readouterr().err


def test_alpha_exit_three(tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    run(["gen", "inv-theta", "16", "--out", str(bmp)])
    capsys.readouterr()
    assert run(["alpha", "--max-x", "2", "--step", "1",
                "--bitmap", str(bmp)]) == 3
    assert "32" in capsys.readouterr().err


def test_alpha_step_past_max_x_is_usage_error(tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    run(["gen", "inv-theta", "2^8", "--out", str(bmp)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["alpha", "--max-x", "2", "--step", "4", "--bitmap", str(bmp)])
    assert exc.value.code == 2
    assert "need 1 <= step <= max_x" in capsys.readouterr().err


def test_alpha_csv(tmp_path, capsys):
    bmp = tmp_path / "b.f2s"
    run(["gen", "inv-theta", "2^8", "--out", str(bmp)])
    capsys.readouterr()
    assert run(["alpha", "--max-x", "16", "--step", "4",
                "--bitmap", str(bmp)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,beta,alpha"
    assert len(lines) == 5
    sweep = tp.alpha_sweep(tp.build_B(256), 16, 4)
    for line, row in zip(lines[1:], sweep.rows):
        assert line == f"{row.x},{row.beta},{row.alpha:.6f}"


def _spy_limits(monkeypatch):
    # the limits each handler passes to read_f2s, in call order
    from thetaparity import cli

    limits = []
    read = cli.read_f2s

    def spy(path, limit=None):
        limits.append(limit)
        return read(path, limit)

    monkeypatch.setattr(cli, "read_f2s", spy)
    return limits


# each scan with the coefficients its library check needs: hi + 1,
# 16 * x * intervals and 16 * max_x; {b} is the bitmap made short
@pytest.mark.parametrize("argv, needed, build", [
    (["verify", "T1_1", "64", "128", "--inv-theta", "{b}"], 129, "build_B"),
    (["verify", "L3_5", "64", "128", "--inv-theta", "{full}", "--inv-theta7", "{b}"],
     129, "inverse_seventh_power"),
    (["census", "--x", "5", "--intervals", "3", "--bitmap", "{b}"], 240, "build_B"),
    (["alpha", "--max-x", "13", "--step", "4", "--bitmap", "{b}"], 208, "build_B"),
], ids=["verify", "verify-inv-theta7", "census", "alpha"])
def test_commands_read_the_prefix_they_scan(argv, needed, build, tmp_path, capsys,
                                            monkeypatch):
    full = tmp_path / "full.f2s"
    tp.write_f2s(tp.build_B(1000), full)
    limits = _spy_limits(monkeypatch)
    for length, code in ((needed, 0), (needed - 64, 3)):
        b = tmp_path / f"{length}.f2s"
        tp.write_f2s(getattr(tp, build)(length), b)
        limits.clear()
        assert run([arg.format(b=b, full=full) for arg in argv]) == code
        assert limits == [needed] * (1 + ("{full}" in argv))
        err = capsys.readouterr().err
        if code:
            assert f"holds {length} coefficients, need at least {needed}" in err


def test_census_zero_intervals_prints_header(tmp_path, capsys, monkeypatch):
    bmp = tmp_path / "b.f2s"
    tp.write_f2s(tp.build_B(100), bmp)
    limits = _spy_limits(monkeypatch)
    assert run(["census", "--x", "5", "--intervals", "0", "--bitmap", str(bmp)]) == 0
    assert limits == [0]
    assert capsys.readouterr().out == "interval_index,lo,hi,count,count_minus_half_x\n"


def _csv_outputs(argv, tmp_path, capsys):
    # (exit code, stdout) of argv, then (exit code, bytes of --out)
    out = tmp_path / "out.csv"
    code = run(argv)
    printed = capsys.readouterr().out
    assert run([*argv, "--out", str(out)]) == code
    return code, printed, out.read_bytes()


@pytest.mark.parametrize("lines", (1, 3))
def test_chunked_writes_do_not_change_outputs(lines, tmp_path, capsys, monkeypatch):
    # every CSV is written _LINES_PER_WRITE lines at a time; chunks of one
    # and three lines split the header from the rows and end mid-output
    from thetaparity import cli

    bmp, bmp7 = tmp_path / "b.f2s", tmp_path / "b7.f2s"
    tp.write_f2s(tp.build_B(2000), bmp)
    tp.write_f2s(tp.inverse_seventh_power(2000), bmp7)
    cases = [["census", "--x", "7", "--intervals", "17", "--bitmap", str(bmp)],
             ["census", "--x", "7", "--intervals", "0", "--bitmap", str(bmp)],
             ["alpha", "--max-x", "100", "--step", "3", "--bitmap", str(bmp)],
             ["verify", "all", "0", "1000", "--inv-theta", str(bmp), "--inv-theta7", str(bmp7)]]
    expect = [_csv_outputs(argv, tmp_path, capsys) for argv in cases]
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", lines)
    for argv, want in zip(cases, expect):
        assert _csv_outputs(argv, tmp_path, capsys) == want
    assert len(expect[3][1].splitlines()) == 1 + len(tp.theorems.ALL_STATEMENTS)


def test_alpha_csv_holds_one_chunk_of_lines(tmp_path, monkeypatch):
    # beyond the sweep's rows, alpha holds one chunk of CSV lines, never
    # all of them: 2^14 lines and their joined copy take about 2 MB, a
    # chunk of 2^10 lines about 0.2 MB
    from thetaparity import census, cli

    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 1 << 10)
    bmp, out = tmp_path / "b.f2s", tmp_path / "alpha.csv"
    tp.write_f2s(tp.build_B(1 << 18), bmp)
    argv = ["alpha", "--max-x", "2^14", "--step", "1", "--bitmap", str(bmp), "--out", str(out)]
    peaks = []
    for fn in (lambda: census.alpha_sweep(tp.read_f2s(bmp, 1 << 18), 1 << 14, 1),
               lambda: run(argv)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    sweep, command = peaks
    assert len(out.read_text().splitlines()) == 1 + (1 << 14)
    assert command - sweep <= 1 << 19


def test_repcount_outputs(capsys):
    assert run(["repcount", "--n", "11", "--form", "1,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["repcount", "--n", "11", "--form", "1,1,1",
                "--signed", "--primitive"]) == 0
    assert capsys.readouterr().out.strip() == "24"
    assert run(["repcount", "--n", "17", "--form", "1,4"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    with pytest.raises(SystemExit) as exc:
        run(["repcount", "--n", "11", "--form", "1,1,1", "--primitive"])
    assert exc.value.code == 2
    # the parser reads integers, the count checks the form
    for form, message in (("1,2,3,4", "one to three variables"), ("0,1", "[1, 2^63)"),
                          ("1.5", "bad form '1.5'")):
        with pytest.raises(SystemExit) as exc:
            run(["repcount", "--n", "11", "--form", form])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err, form


def test_repcount_int64_edges(capsys):
    # the last representable n is counted; 2^63 is a usage error
    top = str((1 << 63) - 1)
    assert run(["repcount", "--n", top, "--form", "1", "--signed"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    square = str(3037000499 ** 2)
    assert run(["repcount", "--n", square, "--form", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["repcount", "--n", square, "--form", "1", "--signed"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    for form_args in (["--form", "3"], ["--form", "1,2", "--signed"]):
        with pytest.raises(SystemExit) as exc:
            run(["repcount", "--n", "2^63", *form_args])
        assert exc.value.code == 2
        assert "2**63" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["census", "--x", "2", "--intervals", "-1", "--bitmap", "b.f2s"],
    ["repcount", "--n", "-3", "--form", "1,1"],
])
def test_negative_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "inv-theta", "0", "--out", "b.f2s"],
    ["census", "--x", "0", "--intervals", "1", "--bitmap", "b.f2s"],
    ["alpha", "--max-x", "4", "--step", "0", "--bitmap", "b.f2s"],
    ["alpha", "--max-x", "-4", "--step", "1", "--bitmap", "b.f2s"],
])
def test_zero_counts_are_usage_errors(argv, capsys):
    # sizes and steps count from 1, and each count names its own floor
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["census", "--x=-2^2", "--intervals", "3"],
    ["census", "--x", "4", "--intervals=-3*-1"],
    ["repcount", "--n=-2^2", "--form", "1,1"],
])
def test_sign_inside_count_expression_is_usage_error(argv, tmp_path):
    # the minus covers the whole expression, so no even power or product of
    # negative factors turns these into valid counts
    bmp = tmp_path / "b.f2s"
    assert run(["gen", "inv-theta", "2^8", "--out", str(bmp)]) == 0
    if argv[0] == "census":
        argv = [*argv, "--bitmap", str(bmp)]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_signed_expression_arguments(capsys):
    assert run(["classnum", "--disc=-8*10^5"]) == 0
    assert capsys.readouterr().out.strip() == str(tp.quadarith.class_number(-800000))
    assert run(["classnum", "--disc", "-47"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert run(["jacobi", "--a=-2^3", "--n", "7"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    for argv in (["classnum", "--disc=--47"], ["jacobi", "--a=2^-1", "--n", "7"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_classnum_outputs(capsys):
    assert run(["classnum", "--disc", "-56"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert run(["classnum", "--disc", "-23"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    with pytest.raises(SystemExit) as exc:
        run(["classnum", "--disc", "-5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["classnum", "--disc", "-10000000000000000000"])
    assert exc.value.code == 2
    assert "-3*2^61" in capsys.readouterr().err


def test_jacobi_outputs(capsys):
    assert run(["jacobi", "--a", "-2", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["jacobi", "--a", "3", "--n", "7"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    with pytest.raises(SystemExit) as exc:
        run(["jacobi", "--a", "3", "--n", "8"])
    assert exc.value.code == 2


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_subprocess_end_to_end(tmp_path):
    bmp = tmp_path / "b.f2s"
    gen = subprocess.run(
        [sys.executable, "-m", "thetaparity", "gen", "inv-theta", "2^10",
         "--out", str(bmp)],
        capture_output=True, text=True, env=_CHILD_ENV)
    assert gen.returncode == 0
    assert "set bits" in gen.stdout
    ver = subprocess.run(
        [sys.executable, "-m", "thetaparity", "verify", "T1_1,T1_2", "0", "1000",
         "--inv-theta", str(bmp)],
        capture_output=True, text=True, env=_CHILD_ENV)
    assert ver.returncode == 0
    assert ver.stdout.splitlines()[1].startswith("T1_1,0,1000,")


def test_subcommands_import_only_their_layers(tmp_path):
    # a fresh process compiles every module it imports, so gen, census and
    # alpha must not pull in the statement registry or the arithmetic
    # oracles, and census and alpha, which only load and count bits, must
    # not import numpy or dataclasses either
    probe = ("import sys\n"
             "from thetaparity.cli import main\n"
             "main(sys.argv[1:])\n"
             "print(sorted(m for m in sys.modules if m.startswith('thetaparity.')))\n"
             "print(sorted(m for m in ('numpy', 'dataclasses') if m in sys.modules))\n")
    bmp = str(tmp_path / "b.f2s")
    gen = ["bitseries", "cli", "f2series"], ["dataclasses", "numpy"]
    scan = ["bitseries", "census", "cli"], []
    for argv, (layers, libraries) in (
            (["gen", "theta", "2^12", "--out", bmp], gen),
            (["gen", "pentagonal", "2^12", "--out", bmp], gen),
            (["gen", "inv-theta", "2^12", "--out", bmp], gen),
            (["gen", "inv-theta7", "2^12", "--out", bmp], gen),
            (["census", "--bitmap", bmp, "--x", "2^4", "--intervals", "4"], scan),
            (["alpha", "--bitmap", bmp, "--max-x", "2^6", "--step", "2^2"], scan)):
        out = subprocess.run([sys.executable, "-c", probe, *argv],
                             capture_output=True, text=True, check=True,
                             env=_CHILD_ENV).stdout
        assert out.splitlines()[-2:] == [
            str([f"thetaparity.{m}" for m in layers]), str(libraries)], argv
