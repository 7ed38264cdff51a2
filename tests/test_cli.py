import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats

import quakewait
from quakewait import statfn
from quakewait.cli import main

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
        assert err == "error: expected header 't,p1,...,p10'\n"

    def test_p_value_out_of_reach_exits_1(self, capsys, monkeypatch):
        # a term cap too small for chi2 near df = 39999
        monkeypatch.setattr(statfn, "_GAMMA_ITMAX", 1)
        code, stdout, err = run(capsys, "gof", "--n", "100", "--r", "40000",
                                "--t", "50", "--seed", "1")
        assert code == 1
        assert stdout == ""
        assert err == "error: incomplete gamma series did not converge in 8 terms\n"

    def test_large_r_p_value(self, capsys):
        # df = 39999 needs about 1,200 series terms, past the base cap
        code, stdout, _ = run(capsys, "gof", "--n", "100", "--r", "40000",
                              "--t", "50", "--seed", "1")
        assert code == 0
        (row,) = json.loads(stdout)
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
    ], ids=["horizon_inf", "horizon_nan", "h_step_zero", "segment_negative",
            "segment_zero", "segment_past_end", "bands_without_segment",
            "bands_without_moderate_event", "major_threshold_nan", "gc_reps_zero",
            "gc_m_zero"])
    def test_exits_2_with_one_line(self, capsys, tmp_path, args, message):
        lone_major = tmp_path / "lone.csv"
        lone_major.write_text("year,magnitude\n1900,9.0\n")
        args = [a.format(lone_major=lone_major) for a in args]
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


def test_warnings_reach_stderr_one_line_each():
    # in-process runs hide this: pytest captures warnings before they print
    src = str(Path(quakewait.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "quakewait.cli", "analyze", "--bands",
         "--major-threshold", "10"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines == [
        "warning: no event reaches the major threshold; empty result",
        "error: --bands needs a segment, and no event reaches the major threshold"]
