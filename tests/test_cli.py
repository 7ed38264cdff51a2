import csv
import errno
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats

import quakewait
from quakewait import cli, statfn
from quakewait.cli import main
from quakewait.nhpp import read_events_csv

CONSTANT_MODEL = '{"segments":[[0,1]],"tail_start":0,"tail_rate":1}'


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSimulate:
    def test_zero_horizon(self, capsys, tmp_path):
        out = tmp_path / "ev.csv"
        code, stdout, _ = run(capsys, "simulate", "--model", CONSTANT_MODEL,
                              "--horizon", "0", "--seed", "1", "--out", str(out))
        assert code == 0
        assert out.read_text() == "time\n"
        assert json.loads(stdout)["count"] == 0

    def test_determinism(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run(capsys, "simulate", "--model", CONSTANT_MODEL,
                "--horizon", "1000", "--seed", "5", "--out", str(p))
        assert paths[0].read_text() == paths[1].read_text()

    def test_count_in_poisson_band(self, capsys, tmp_path):
        out = tmp_path / "ev.csv"
        _, stdout, _ = run(capsys, "simulate", "--model", CONSTANT_MODEL,
                           "--horizon", "1000", "--seed", "5", "--out", str(out))
        assert 900 <= json.loads(stdout)["count"] <= 1100

    def test_round_trip_where_two_events_print_alike(self, capsys, tmp_path):
        # seed 138 draws two events that agree to 12 significant digits
        out = tmp_path / "ev.csv"
        code, _, _ = run(capsys, "simulate", "--model", CONSTANT_MODEL,
                         "--horizon", "1e5", "--seed", "138", "--out", str(out))
        assert code == 0
        with open(out) as fp:
            back = read_events_csv(fp, 1e5)
        ev = quakewait.simulate_path(quakewait.IntensityModel.constant(1.0), 1e5, 138)
        assert [f"{t:.12g}" for t in back.times] == [f"{t:.12g}" for t in ev.times]

    def test_bad_model(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--model", '{"nope": 1}',
                           "--horizon", "1", "--seed", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "error" in err


class TestGof:
    def test_from_percentages(self, capsys, tmp_path):
        table = tmp_path / "rows.csv"
        table.write_text(
            "t,p1,p2,p3,p4,p5,p6,p7,p8,p9,p10\n"
            "25,6.7,6.4,7.0,8.3,7.4,9.2,10.1,11.8,12.5,20.6\n"
            "0,10,10,10,10,10,10,10,10,10,10\n")
        code, stdout, _ = run(capsys, "gof", "--from-percentages", str(table))
        assert code == 0
        rows = json.loads(stdout)
        assert rows[0]["p_value"] == pytest.approx(0.057, abs=2e-3)
        assert rows[1]["chi2"] == 0.0
        assert rows[1]["p_value"] == 1.0

    def test_empty_percentages_file(self, capsys, tmp_path):
        table = tmp_path / "rows.csv"
        table.write_text("")
        code, _, err = run(capsys, "gof", "--from-percentages", str(table))
        assert code == 2
        assert err == ("error: expected header 't,p1,...,p<r>[,chi2,p_value]' "
                       "with r >= 2\n")

    @pytest.mark.parametrize("r", [5, 10])
    def test_csv_round_trip(self, capsys, tmp_path, r):
        # what --format csv writes, --from-percentages scores to the same bytes
        code, written, _ = run(capsys, "gof", "--seed", "3", "--r", str(r),
                               "--format", "csv")
        assert code == 0
        table = tmp_path / "rows.csv"
        table.write_text(written, newline="")
        code, scored, _ = run(capsys, "gof", "--from-percentages", str(table),
                              "--format", "csv")
        assert code == 0
        assert scored == written

    def test_input_chi2_cells_are_recomputed(self, capsys, tmp_path):
        table = tmp_path / "rows.csv"
        table.write_text("t,p1,p2,p3,chi2,p_value\n1,50,25,25,0,1\n")
        code, stdout, _ = run(capsys, "gof", "--from-percentages", str(table))
        assert code == 0
        (row,) = json.loads(stdout)
        assert row["chi2"] == 12.5
        assert row["p_value"] == pytest.approx(stats.chi2.sf(12.5, 2), rel=1e-11)

    @staticmethod
    def write_sparse_row(tmp_path):
        """100 draws in distinct cells of 40,000, so chi2 = 39,900 and the
        incomplete gamma at df = 39,999 takes its series branch."""
        table = tmp_path / "sparse.csv"
        table.write_text("t," + ",".join(f"p{i}" for i in range(1, 40_001)) + "\n"
                         "50" + ",1" * 100 + ",0" * 39_900 + "\n")
        return table

    def test_p_value_out_of_reach_exits_1(self, capsys, monkeypatch, tmp_path):
        # a term cap too small for chi2 near df = 39999
        monkeypatch.setattr(statfn, "_GAMMA_ITMAX", 1)
        code, stdout, err = run(capsys, "gof", "--from-percentages",
                                str(self.write_sparse_row(tmp_path)))
        assert code == 1
        assert stdout == ""
        assert err == "error: incomplete gamma series did not converge in 8 terms\n"

    def test_large_r_p_value(self, capsys, tmp_path):
        # df = 39999 needs about 1,200 series terms, past the base cap
        code, stdout, _ = run(capsys, "gof", "--from-percentages",
                              str(self.write_sparse_row(tmp_path)))
        assert code == 0
        (row,) = json.loads(stdout)
        assert row["chi2"] == pytest.approx(39_900, rel=1e-12)
        assert row["p_value"] == pytest.approx(
            stats.chi2.sf(row["chi2"], 39999), abs=1e-9)

    def test_simulated(self, capsys):
        code, stdout, _ = run(capsys, "gof", "--m", "1", "--k", "10",
                              "--t", "10", "--n", "1000", "--seed", "0")
        assert code == 0
        (row,) = json.loads(stdout)
        assert row["p_value"] < 0.001

    def test_invalid_parameters(self, capsys):
        code, _, err = run(capsys, "gof", "--m", "1", "--k", "10",
                           "--t", "5", "--n", "1000", "--seed", "0")
        assert code == 2

    def test_csv_format(self, capsys):
        code, stdout, _ = run(capsys, "gof", "--t", "50", "--seed", "1",
                              "--format", "csv")
        assert code == 0
        assert stdout.splitlines()[0].startswith("t,p1,")

    def test_csv_header_follows_r(self, capsys):
        code, stdout, _ = run(capsys, "gof", "--r", "5", "--format", "csv",
                              "--seed", "1", "--t", "10,50")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(stdout))
        assert header == ["t", "p1", "p2", "p3", "p4", "p5", "chi2", "p_value"]
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)


class TestAnalyze:
    def test_slope_series(self, capsys):
        code, stdout, _ = run(capsys, "analyze")
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["segments"]) == 3
        assert doc["segments"][0]["insufficient_data"]
        last = doc["segments"][2]["rows"][-1]
        assert (last["t"], last["m_hat_num"], last["m_hat_den"]) == (130, 1, 5)

    def test_compare(self, capsys):
        code, stdout, _ = run(capsys, "analyze", "--compare-t", "53,116")
        doc = json.loads(stdout)
        cmp53, cmp116 = doc["comparisons"]
        estimates = {r["h"]: r["estimated"] for r in cmp53["rows"]}
        assert estimates[63] == pytest.approx(0.70, abs=5e-3)
        assert cmp53["published_row_reproducible"]
        assert not cmp116["published_row_reproducible"]

    def test_bands(self, capsys, tmp_path):
        svg = tmp_path / "bands.svg"
        csv_out = tmp_path / "bands.csv"
        code, stdout, _ = run(capsys, "analyze", "--bands", "--alpha", "0.05",
                              "--h-max", "20", "--out-svg", str(svg),
                              "--out-bands", str(csv_out))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["bands"]["ci_low"] == pytest.approx(0.13650, abs=1e-4)
        assert doc["bands"]["ci_high"] == pytest.approx(0.29306, abs=1e-4)
        assert svg.read_text().startswith("<svg")
        assert csv_out.read_text().splitlines()[0] == "h,lower,upper"

    def test_bad_catalog(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,magnitude\n1900,oops\n")
        code, _, err = run(capsys, "analyze", "--catalog", str(bad))
        assert code == 2
        assert "line 2" in err


class TestVerify:
    def test_clt(self, capsys):
        code, stdout, _ = run(capsys, "verify", "clt", "--m", "1",
                              "--t", "10000", "--reps", "500", "--seed", "0")
        assert code == 0
        assert json.loads(stdout)["p_value"] > 0.001

    def test_gc(self, capsys):
        code, stdout, _ = run(capsys, "verify", "gc", "--m", "1",
                              "--t", "100,1000,10000", "--reps", "300",
                              "--seed", "1")
        doc = json.loads(stdout)
        assert doc["medians"][0] > doc["medians"][1] > doc["medians"][2]

    def test_reps_floor(self, capsys):
        code, _, err = run(capsys, "verify", "kolmogorov", "--m", "1",
                           "--t", "1000", "--reps", "100", "--seed", "0")
        assert code == 2

    def test_seed_recorded_when_omitted(self, capsys):
        code, stdout, _ = run(capsys, "verify", "clt", "--m", "1",
                              "--t", "1000", "--reps", "200")
        assert code == 0
        assert isinstance(json.loads(stdout)["seed"], int)


class TestBadInput:
    """A bad input exits 2 with one ``error:`` line and no traceback."""

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--horizon", "inf"], "horizon must be finite and nonnegative"),
        (["simulate", "--horizon", "nan"], "horizon must be finite and nonnegative"),
        (["analyze", "--bands", "--h-step", "0"], "--h-step must be strictly positive"),
        (["analyze", "--compare-t", "53", "--segment", "-1"], "--segment must lie"),
        (["analyze", "--compare-t", "53", "--segment", "0"], "--segment must lie"),
        (["analyze", "--compare-t", "53", "--segment", "9"], "--segment must lie"),
        (["analyze", "--bands", "--major-threshold", "10"], "no event reaches"),
        (["analyze", "--bands", "--catalog", "{lone_major}"], "needs a moderate event"),
        (["analyze", "--major-threshold", "nan"], "threshold must be strictly positive"),
        (["verify", "gc", "--t", "10,100", "--reps", "0"], "at least one replicate"),
        (["verify", "gc", "--t", "10,100", "--m", "0"], "m must be strictly positive"),
        (["gof", "--t", "inf"], "t must be finite and nonnegative"),
        (["gof", "--m", "inf"], "m must be finite and strictly positive"),
        (["gof", "--from-percentages", "{nan_row}"], "percentages must be nonnegative"),
        (["analyze", "--bands", "--h-max", "nan"], "--h-max must be finite and strictly"),
        (["analyze", "--bands", "--h-max", "inf"], "--h-max must be finite and strictly"),
        (["analyze", "--bands", "--h-max", "0", "--out-svg", "{svg}"],
         "--h-max must be finite and strictly"),
        (["analyze", "--out-svg", "{svg}"], "--out-svg and --out-bands need --bands"),
        (["analyze", "--out-bands", "{svg}"], "--out-svg and --out-bands need --bands"),
        (["verify", "clt", "--m", "1e300", "--t", "1e300", "--reps", "100"],
         "m * window must be at most 9.223372006484771e+18"),
        (["verify", "clt", "--m", "1e10", "--t", "1e10", "--reps", "100"],
         "(got m=10000000000.0, window=10000000000.0)"),
        (["gof", "--m", "1e300", "--t", "1e300"], "m*t must be finite"),
        (["gof", "--from-percentages", "{one_bin}"], "with r >= 2"),
        (["gof", "--from-percentages", "{short_row}"], "line 3: expected 6 cells, got 5"),
        (["gof", "--from-percentages", "{nan_t}"], "line 2: t must be finite, got 'nan'"),
        (["gof", "--from-percentages", "{nan_t}", "--format", "csv"],
         "line 2: t must be finite, got 'nan'"),
        (["gof", "--from-percentages", "{inf_t}"], "line 3: t must be finite, got '-inf'"),
        (["gof", "--from-percentages", "{inf_t}", "--format", "csv"],
         "line 3: t must be finite, got '-inf'"),
        (["analyze", "--bands", "--h-step", "inf"], "--h-step must be strictly positive"),
        (["analyze", "--bands", "--h-step", "nan"], "--h-step must be strictly positive"),
        (["analyze", "--bands", "--h-max", "1e300"],
         "--h-max / --h-step gives more than 100000 grid points"),
        (["analyze", "--bands", "--h-max", "25000", "--out-svg", "{svg}"],
         "--h-max / --h-step gives more than 100000 grid points"),
        (["analyze", "--bands", "--h-step", "5e-324"],
         "--h-max / --h-step gives more than 100000 grid points"),
        (["gof", "--from-percentages", "{bad_cell}"],
         "line 2: could not convert string to float: 'abc'"),
        (["gof", "--from-percentages", "{bad_t}"],
         "line 3: could not convert string to float: 'abc'"),
        (["analyze", "--catalog", "{nan_mag}"], "line 3: magnitude must be nonnegative"),
        (["verify", "clt", "--t", "100,200"], "--t takes one window length for clt, got 2"),
        (["verify", "kolmogorov", "--t", "100,200"],
         "--t takes one window length for kolmogorov, got 2"),
        (["analyze", "--catalog", "{inf_mag}"],
         "line 2: magnitude must be nonnegative and finite"),
        (["verify", "gc", "--t", "100"],
         "--t takes at least two window lengths for gc, got 1"),
        (["verify", "gc", "--t", "100,nan"],
         "--t takes strictly positive, increasing window lengths for gc"),
        (["verify", "gc", "--t", "100,10"],
         "--t takes strictly positive, increasing window lengths for gc"),
        (["gof", "--m", "5e-324", "--k", "1", "--t", "10", "--n", "100"],
         "m=5e-324 is too small"),
        (["gof", "--k", "100000000000000000", "--t", "1e17", "--n", "100", "--seed", "0"],
         "G_t at t=1e+17, k=100000000000000000, m=1.0 rounds to equal values"),
    ], ids=["horizon_inf", "horizon_nan", "h_step_zero", "segment_negative",
            "segment_zero", "segment_past_end", "bands_without_segment",
            "bands_without_moderate_event", "major_threshold_nan", "gc_reps_zero",
            "gc_m_zero", "gof_t_inf", "gof_m_inf", "gof_percentage_nan",
            "h_max_nan", "h_max_inf", "h_max_zero", "svg_without_bands",
            "bands_csv_without_bands", "clt_poisson_mean_inf", "clt_poisson_mean_large",
            "gof_mt_overflow", "gof_percentages_one_bin", "gof_percentages_short_row",
            "gof_percentages_t_nan_json", "gof_percentages_t_nan_csv",
            "gof_percentages_t_inf_json", "gof_percentages_t_inf_csv", "h_step_inf",
            "h_step_nan", "h_max_huge", "grid_one_past_limit", "h_step_subnormal",
            "gof_percentages_bad_cell", "gof_percentages_bad_t", "catalog_nan_magnitude",
            "clt_t_list", "kolmogorov_t_list", "catalog_inf_magnitude", "gc_t_one",
            "gc_t_nan", "gc_t_decreasing", "gof_m_subnormal", "gof_k_huge"])
    def test_exits_2_with_one_line(self, capsys, tmp_path, args, message):
        lone_major = tmp_path / "lone.csv"
        lone_major.write_text("year,magnitude\n1900,9.0\n")
        nan_row = tmp_path / "nan_row.csv"
        nan_row.write_text("t," + ",".join(f"p{i}" for i in range(1, 11)) + "\n"
                           "25,nan" + ",10" * 9 + "\n")
        one_bin = tmp_path / "one_bin.csv"
        one_bin.write_text("t,p1,chi2,p_value\n10,100,0,1\n")
        short_row = tmp_path / "short_row.csv"
        short_row.write_text("t,p1,p2,p3,chi2,p_value\n1,50,25,25,0,1\n1,50,25,25,0\n")
        nan_t = tmp_path / "nan_t.csv"
        nan_t.write_text("t,p1,p2\nnan,50,50\n")
        inf_t = tmp_path / "inf_t.csv"
        inf_t.write_text("t,p1,p2\n1,50,50\n-inf,50,50\n")
        bad_cell = tmp_path / "bad_cell.csv"
        bad_cell.write_text("t,p1,p2\n1,50,abc\n")
        bad_t = tmp_path / "bad_t.csv"
        bad_t.write_text("t,p1,p2\n1,50,50\nabc,50,50\n")
        nan_mag = tmp_path / "nan_mag.csv"
        nan_mag.write_text("year,magnitude\n1900,9\n1910,nan\n1920,7")
        inf_mag = tmp_path / "inf_mag.csv"
        inf_mag.write_text("year,magnitude\n1900,inf\n1910,7\n1950,7")
        svg = tmp_path / "out.svg"
        args = [a.format(lone_major=lone_major, nan_row=nan_row, one_bin=one_bin,
                         short_row=short_row, nan_t=nan_t, inf_t=inf_t,
                         bad_cell=bad_cell, bad_t=bad_t, nan_mag=nan_mag, inf_mag=inf_mag,
                         svg=svg)
                for a in args]
        if args[0] == "verify":
            args += ["--seed", "0"]
        if args[0] == "simulate":
            args += ["--model", CONSTANT_MODEL, "--seed", "1",
                     "--out", str(tmp_path / "ev.csv")]
        code, stdout, err = run(capsys, *args)
        assert code == 2
        assert stdout == ""
        # one error line, last; a warning the command raised comes before it
        *warned, error = err.splitlines()
        assert error.startswith("error: ") and err.endswith("\n")
        assert all(line.startswith("warning: ") for line in warned)
        assert message in error
        assert not svg.exists()


@pytest.mark.parametrize("args, message", [
    (["gof", "--n", "abc"],
     "error: argument --n: invalid int value: 'abc' (see 'quakewait gof --help')\n"),
    (["verify"], "the following arguments are required: kind, --t "
                 "(see 'quakewait verify --help')"),
    (["quake"], "argument command: invalid choice: 'quake'"),
    (["gof", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["simulate", "--model", CONSTANT_MODEL, "--horizon", "1", "--seed", "-5", "--out", "x"],
     "argument --seed: expected a nonnegative integer, got '-5'"),
    (["gof", "--seed", "-5"], "argument --seed: expected a nonnegative integer, got '-5'"),
    (["verify", "clt", "--t", "100", "--seed", "-5"],
     "argument --seed: expected a nonnegative integer, got '-5'"),
    (["gof", "--t", ""], "argument --t: expected comma-separated numbers, got ''"),
    (["gof", "--t", "10,,20"], "argument --t: expected comma-separated numbers, got '10,,20'"),
    (["analyze", "--compare-t", "abc"],
     "argument --compare-t: expected comma-separated integers, got 'abc'"),
    (["verify", "gc", "--t", "100,abc"],
     "argument --t: expected comma-separated numbers, got '100,abc'"),
], ids=["bad_int", "missing_required", "unknown_subcommand", "bad_choice",
        "simulate_seed_negative", "gof_seed_negative", "verify_seed_negative",
        "gof_t_empty", "gof_t_empty_item", "compare_t_not_int", "gc_t_not_float"])
def test_usage_error_exits_2_with_one_line(capsys, args, message):
    """No usage block: one ``error:`` line, as for any other bad input."""
    with pytest.raises(SystemExit) as exit_:
        main(args)
    out = capsys.readouterr()
    assert (exit_.value.code, out.out) == (2, "")
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message in out.err


@pytest.mark.parametrize("args", [["--help"], ["verify", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exit_:
        main(args)
    out = capsys.readouterr()
    assert exit_.value.code == 0
    assert out.out.startswith("usage: quakewait") and out.err == ""


@pytest.mark.parametrize("args", [
    ["--h-step", "inf"], ["--h-max", "1e300"], ["--h-max", "1e9"],
    ["--h-max", "1", "--h-step", "1e-300"]])
def test_bands_grid_is_checked_before_it_is_built(capsys, monkeypatch, args):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before rejecting the grid")

    monkeypatch.setattr(cli.np, "arange", no_allocation)
    code, stdout, err = run(capsys, "analyze", "--bands", *args)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: --h-") and err.count("\n") == 1


def test_bands_grid_at_the_limit_is_built(capsys, tmp_path):
    # 0, 0.25, ..., 24999.75: exactly the largest grid allowed
    out = tmp_path / "bands.csv"
    code, _, _ = run(capsys, "analyze", "--bands", "--h-max", "24999.75",
                     "--out-bands", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + cli.BANDS_MAX_POINTS


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 8.00 GiB for an array"),
     "error: out of memory: Unable to allocate 8.00 GiB for an array\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy_message", "bare"])
def test_memory_error_exits_1_with_one_line(capsys, monkeypatch, tmp_path, exc, line):
    def simulate_path(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "simulate_path", simulate_path)
    code, stdout, err = run(capsys, "simulate", "--model", CONSTANT_MODEL,
                            "--horizon", "1e12", "--seed", "1",
                            "--out", str(tmp_path / "ev.csv"))
    assert (code, stdout, err) == (1, "", line)


def test_index_error_exits_1_with_one_line(capsys, monkeypatch):
    # an IndexError is a fault of the program, not a bad input
    def analyze(args):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "_cmd_analyze", analyze)
    assert run(capsys, "analyze") == (1, "", "error: list index out of range\n")


class FailingStdout(io.StringIO):
    """Stands in for stdout on file descriptor ``fd``: its ``method``,
    write or flush, raises ``exc``."""

    def __init__(self, fd, method, exc):
        super().__init__()
        self.fd = fd

        def fail(*args):
            raise exc
        setattr(self, method, fail)

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("exc, err", [
    (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
    (OSError(errno.ENOSPC, "No space left on device"),
     "error: [Errno 28] No space left on device\n"),
], ids=["closed_pipe", "disk_full"])
def test_stdout_write_failure_exits_1(capsys, monkeypatch, tmp_path, method, exc, err):
    # a closed pipe (`| head -1`) is reported to no one, a full disk
    # (`> /dev/full`) in one line; either way stdout then leads to devnull,
    # so the flush at exit does not fail again on what is still buffered
    with open(tmp_path / "stdout", "w") as fp:
        monkeypatch.setattr(sys, "stdout", FailingStdout(fp.fileno(), method, exc))
        code = main(["gof", "--t", "10,25,50,60,70,80,90,100", "--seed", "0"])
        assert os.path.samestat(os.fstat(fp.fileno()), os.stat(os.devnull))
    assert (code, capsys.readouterr().err) == (1, err)


def readme_commands() -> list[list[str]]:
    """The arguments of each ``quakewait`` line in README's CLI block,
    continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("quakewait ")]


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["gof", "--format", "csv", "--seed", "0"]) == 0
    (tmp_path / "rows.csv").write_text(capsys.readouterr().out)
    commands = readme_commands()
    assert sorted({argv[0] for argv in commands}) == ["analyze", "gof", "simulate", "verify"]
    for argv in commands:
        assert main(argv) == 0, argv


def run_python(*args):
    """``python *args`` in a fresh process that imports this quakewait."""
    src = str(Path(quakewait.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_subprocess(*args):
    # in-process runs hide warnings: pytest captures them before they print
    return run_python("-m", "quakewait.cli", *args)


def test_commands_that_draw_nothing_leave_numpy_random_unimported():
    # why rng builds its seed feeder on first use
    proc = run_python("-c", "import contextlib, io, sys\n"
                            "import quakewait.cli\n"
                            "with contextlib.redirect_stdout(io.StringIO()):\n"
                            "    assert quakewait.cli.main(['analyze']) == 0\n"
                            "print('numpy.random' in sys.modules)\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("args", [
    ["verify", "clt", "--m", "1e300", "--t", "1e300", "--reps", "100", "--seed", "0"],
    ["gof", "--m", "1e300", "--t", "1e300", "--k", "2", "--seed", "0"],
    ["gof", "--m", "5e-324", "--k", "1", "--t", "10", "--n", "100", "--seed", "0"],
], ids=["poisson_mean", "waiting_law", "subnormal_rate"])
def test_overflowing_parameters_warn_nothing(args):
    proc = run_subprocess(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_warnings_reach_stderr_one_line_each():
    proc = run_subprocess("analyze", "--bands", "--major-threshold", "10")
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines == [
        "warning: no event reaches the major threshold; empty result",
        "error: --bands needs a segment, and no event reaches the major threshold"]
