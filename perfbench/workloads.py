"""The four workloads.

Each workload is a closed loop with one client: a study starts only when
the previous one has ended.  A workload hands the runner fixed batches of
studies; every input of a study is derived from the workload seed, the
batch index and the study's place in the batch.

The checks test identities that hold under any valid mapping from seeds to
outputs (ranges, sums, agreement between two routes to the same number),
never stored digests, because the seed-to-output mapping is allowed to
change.  A check raises ``CheckFailed``; the runner counts the study as
failed.
"""
from __future__ import annotations

import functools
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import harness
import quakewait
from quakewait import catalog, gof, inference, nhpp
from quakewait.intensity import IntensityModel

harness.require_source(quakewait)

CLI_CHILD = harness.BENCH_DIR / "cli_child.py"
CLI_TIMEOUT_S = 120
# Outputs printed with 12 significant digits agree with the library to
# within half a unit in the 12th digit.
SIG12_RTOL = 1e-11


class CheckFailed(Exception):
    """A study's output broke an identity it must satisfy."""


def expect(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def expect_close(got, want, what: str, rtol: float = 1e-10, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    expect(got.shape == want.shape and np.allclose(got, want, rtol=rtol, atol=atol),
           f"{what}: got {got}, expected {want}")


def expect_probability(p, what: str) -> None:
    expect(math.isfinite(p) and 0.0 <= p <= 1.0, f"{what} = {p} is not a probability")


def expect_path(times, horizon: float, what: str) -> None:
    times = np.asarray(times)
    expect(times.size == 0 or (times[0] > 0 and times[-1] <= horizon),
           f"{what}: times outside (0, {horizon}]")
    expect(bool(np.all(np.diff(times) > 0)), f"{what}: times not strictly increasing")


def expect_events_csv(fp, times, horizon: float, what: str) -> None:
    """A path written by ``write_events_csv`` holds the given times to its
    documented 12 significant digits, ascending, within the horizon.

    Not read back with ``read_events_csv``: rounding to 12 digits can print
    two events of a long path with the same time, and the reader rejects
    such a file (a known defect of the CSV format, not of this check).
    """
    expect(fp.readline().strip() == "time", f"{what}: header")
    got = np.loadtxt(fp, ndmin=1)
    expect(got.shape == np.shape(times), f"{what}: {got.size} rows for {np.size(times)} events")
    expect(got.size == 0 or (got[0] > 0 and got[-1] <= horizon),
           f"{what}: times outside (0, {horizon}]")
    expect(bool(np.all(np.diff(got) >= 0)), f"{what}: times not ascending")
    expect_close(got, times, f"{what}: times", rtol=SIG12_RTOL)


@dataclass
class Study:
    """One unit of latency.  ``run`` takes the tracer of a traced batch or
    None; ``replicates`` counts the independent random streams the study
    needs, the base of ``rng.generators_per_replicate``."""

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    replicates: int


class Workload:
    name = ""
    in_process = True      # False: the library runs in child processes
    warm_up_studies = None  # how many studies of a batch warm up; None = all

    def __init__(self, seed: int):
        self.seed = int(seed)

    def seed_for(self, batch: int, k: int) -> int:
        return harness.derive_seed(self.seed, self.name, batch, k)

    def setup(self) -> None:
        """Generate the inputs that every batch shares."""

    def batch(self, b: int) -> list[Study]:
        raise NotImplementedError

    def warm_up(self) -> None:
        for study in self.batch(-1)[:self.warm_up_studies]:
            study.run(None)

    def run_problems(self) -> list[str]:
        """Checks over the whole run, made after the last batch."""
        return []

    def close(self) -> None:
        """Remove whatever the workload wrote."""


# -- mc_verify ---------------------------------------------------------------

GC_TAUS = (1e2, 1e3, 1e4)
# Acceptance criteria 6 and 8: shares of seeds whose KS test passes at 0.01.
KS_LEVEL = 0.01
KS_PASS_SHARE = {"clt": 0.95, "kolmogorov": 0.90}
# A run holds far fewer calls than it would take to pin a share down, so the
# share is tested, not compared: the run fails when a true pass share at the
# criterion's level would give that many KS failures with probability below
# KS_ALPHA.  Each KS test fails about 1% of the time when the code is right;
# comparing the raw share with 0.95 over ~100 calls would fail about one run
# in a hundred for that reason alone.
KS_ALPHA = 1e-6


def binomial_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed in log space."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    return min(1.0, sum(math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                                 + i * log_p + (n - i) * log_q) for i in range(k, n + 1)))


class McVerify(Workload):
    """One verifier call per study, at the parameters of criteria 6 to 8."""

    name = "mc_verify"

    def __init__(self, seed):
        super().__init__(seed)
        self.ks_tally = {kind: [0, 0] for kind in KS_PASS_SHARE}  # passes, total

    def batch(self, b):
        s = [self.seed_for(b, k) for k in range(3)]
        return [
            Study("clt", lambda tr: inference.verify_clt(1.0, 1e4, 2000, s[0]),
                  functools.partial(self._check_ks, "clt"), 2000),
            Study("kolmogorov",
                  lambda tr: inference.verify_kolmogorov_limit(1.0, 1e4, 2000, s[1]),
                  functools.partial(self._check_ks, "kolmogorov"), 2000),
            Study("gc", lambda tr: inference.verify_glivenko_cantelli(1.0, GC_TAUS, 500, s[2]),
                  self._check_gc, 500 * len(GC_TAUS)),
        ]

    def _check_ks(self, kind, check):
        stats = np.asarray(check.statistics)
        expect(stats.shape == (2000,) and bool(np.all(np.isfinite(stats))),
               f"{kind}: statistics not 2000 finite values")
        expect(math.isfinite(check.ks.statistic) and 0.0 <= check.ks.statistic <= 1.0,
               f"{kind}: KS statistic {check.ks.statistic} outside [0, 1]")
        expect_probability(check.ks.p_value, f"{kind} p-value")
        tally = self.ks_tally[kind]
        tally[0] += check.ks.p_value > KS_LEVEL
        tally[1] += 1

    @staticmethod
    def _check_gc(check):
        med = check.medians
        expect(tuple(check.taus) == GC_TAUS, f"gc: taus {check.taus}")
        expect(all(math.isfinite(m) and 0.0 <= m <= 1.0 for m in med),
               f"gc: medians {med} outside [0, 1]")
        # acceptance criterion 7
        expect(med[0] > med[1] > med[2], f"gc: medians {med} do not decrease")
        expect(med[2] < 0.01, f"gc: median at tau=1e4 is {med[2]}")

    def run_problems(self):
        problems = []
        for kind, (passes, total) in self.ks_tally.items():
            share = KS_PASS_SHARE[kind]
            if binomial_sf(total - passes, total, 1.0 - share) < KS_ALPHA:
                problems.append(f"{kind}: KS passes {passes}/{total} are not consistent "
                                f"with a pass share of {share:.0%}")
        return problems


# -- gof_table ---------------------------------------------------------------

T_VALUES = (10.0, 20.0, 25.0, 30.0, 40.0, 50.0)
# Two n = 1,000 studies (the paper's Table 1) around one n = 10,000 study.
# With a strict 50/50 alternation the median falls in the gap between the
# two groups and moves with the slowest n = 1,000 study; with 2:1 it lies
# inside the n = 1,000 group and the tail inside the n = 10,000 group.
N_SEQUENCE = (1000, 10000, 1000)


class GofTable(Workload):
    """One Table 1 experiment per study."""

    name = "gof_table"

    def batch(self, b):
        return [Study(f"n={n}",
                      lambda tr, n=n, s=self.seed_for(b, k):
                          gof.table1_experiment(1.0, 10, T_VALUES, n, s),
                      functools.partial(self._check, n), len(T_VALUES))
                for k, n in enumerate(N_SEQUENCE)]

    @staticmethod
    def _check(n, reports):
        expect([r.t for r in reports] == list(T_VALUES), "gof: wrong t values")
        for rep in reports:
            perc = np.asarray(rep.percentages, dtype=float)
            expect(rep.n == n and rep.r == 10 and perc.shape == (10,),
                   f"gof t={rep.t}: wrong n, r or bin count")
            expect(bool(np.all(perc >= 0.0)), f"gof t={rep.t}: negative percentage")
            expect(abs(perc.sum() - 100.0) <= 1e-9, f"gof t={rep.t}: sum {perc.sum()}")
            counts = perc * n / 100.0
            expect(bool(np.allclose(counts, np.round(counts), atol=1e-6)),
                   f"gof t={rep.t}: percentages are not counts out of {n}")
            expect(math.isfinite(rep.chi2) and rep.chi2 >= 0.0, f"gof t={rep.t}: chi2 {rep.chi2}")
            expect_close(rep.chi2, np.sum((perc - 10.0) ** 2) / 10.0, f"gof t={rep.t}: chi2")
            expect_probability(rep.p_value, f"gof t={rep.t} p-value")


# -- path_scan ---------------------------------------------------------------

SCAN_HORIZON = 50.0
SCAN_STEP = 0.001
SCAN_GRID = np.arange(0.005, 3.0, SCAN_STEP)      # as in acceptance criterion 9
LONG_HORIZON = 1e5
TAB_CELLS = 500
TAB_TAIL_START = 50.0
BAND_GRID = np.arange(0.0, 20.25, 0.25)


def two_segment(m: float) -> IntensityModel:
    """Criterion 9's model: rate 2 on [0, 1), rate m afterwards."""
    return IntensityModel.piecewise([(0.0, 2.0), (1.0, m)])


class PathScan(Workload):
    """A scalar likelihood scan over a short path, then a long simulation on
    a tabulated model with slope inference and a CSV round trip."""

    name = "path_scan"

    def setup(self):
        u = harness.derive_seed(self.seed, self.name, "model") / 2.0 ** 32
        amplitude, decay = 1.0 + 2.0 * u, 5.0 + 10.0 * u
        self.tab_model = IntensityModel.tabulated(
            lambda t: 1.0 + amplitude * math.exp(-t / decay),
            np.linspace(0.0, TAB_TAIL_START, TAB_CELLS + 1), TAB_TAIL_START, 1.0)

    def batch(self, b):
        return [Study("scan+simulate",
                      functools.partial(self._study, self.seed_for(b, 0), self.seed_for(b, 1)),
                      self._check, 2)]

    def _study(self, seed_scan, seed_long, tracer):
        short = nhpp.simulate_path(two_segment(1.0), SCAN_HORIZON, seed_scan)
        scores = [inference.path_log_likelihood(short, two_segment(m), SCAN_HORIZON)
                  for m in SCAN_GRID]
        path = nhpp.simulate_path(self.tab_model, LONG_HORIZON, seed_long)
        est = inference.estimate_slope_with_ci(path, TAB_TAIL_START, LONG_HORIZON, 0.05)
        band = inference.confidence_bands((est.ci_low, est.ci_high), BAND_GRID)
        buf = io.StringIO()
        nhpp.write_events_csv(path, buf)
        return short, scores, path, est, band, buf.getvalue()

    @staticmethod
    def _check(out):
        short, scores, path, est, band, csv_text = out
        expect_path(short.times, SCAN_HORIZON, "short path")
        expect_path(path.times, LONG_HORIZON, "long path")
        scores = np.asarray(scores)
        expect(bool(np.all(np.isfinite(scores))), "scan: non-finite log-likelihood")
        m_hat = np.count_nonzero(short.times > 1.0) / (SCAN_HORIZON - 1.0)
        best = SCAN_GRID[int(np.argmax(scores))]
        expect(abs(best - m_hat) <= SCAN_STEP * (1 + 1e-9),
               f"scan: argmax {best} vs count estimator {m_hat}")
        count = int(np.count_nonzero(path.times > TAB_TAIL_START))
        expect(est.count == count, f"slope: count {est.count} vs {count}")
        expect_close(est.m_hat, count / (LONG_HORIZON - TAB_TAIL_START), "slope estimate")
        expect(math.isfinite(est.ci_low) and math.isfinite(est.ci_high)
               and est.ci_low <= est.m_hat <= est.ci_high, "slope: CI does not hold m_hat")
        lower, upper = np.asarray(band.lower), np.asarray(band.upper)
        expect(bool(np.all((0.0 <= lower) & (lower <= upper) & (upper <= 1.0))),
               "bands: not 0 <= lower <= upper <= 1")
        expect(bool(np.all(np.diff(lower) >= 0) and np.all(np.diff(upper) >= 0)),
               "bands: not nondecreasing")
        expect_events_csv(io.StringIO(csv_text), path.times, LONG_HORIZON, "csv")


# -- cli_session -------------------------------------------------------------

CLI_MODEL = '{"segments":[[0,2],[1,1]],"tail_start":1,"tail_rate":1}'
CLI_HORIZON = 1e5
COMPARE_T = (53, 116)
BANDS_ALPHA, BANDS_H_MAX, BANDS_H_STEP = 0.05, 50.0, 0.25
# Acceptance criterion 3: published Table 1 rows and their published
# p-values (None: p < 0.001).
PUBLISHED_ROWS = {
    10.0: ((1.1, 1.7, 1.2, 2.0, 1.4, 3.4, 4.9, 7.4, 12.0, 64.9), None),
    20.0: ((5.0, 6.3, 6.8, 6.4, 6.8, 9.2, 10.6, 10.1, 13.4, 25.4), None),
    25.0: ((6.7, 6.4, 7.0, 8.3, 7.4, 9.2, 10.1, 11.8, 12.5, 20.6), 0.057),
    30.0: ((7.5, 9.0, 8.4, 7.4, 7.7, 7.5, 9.9, 10.1, 13.0, 19.5), 0.175),
    40.0: ((7.3, 8.9, 9.4, 9.2, 9.6, 8.7, 11.7, 8.2, 11.1, 15.9), 0.803),
    50.0: ((10.3, 9.7, 8.2, 8.8, 9.3, 11.5, 8.9, 9.7, 11.1, 12.5), 0.996),
}
VERIFY_ARGS = {
    "clt": (["--t", "10000", "--reps", "2000"], 2000),
    "gc": (["--t", "100,1000,10000", "--reps", "500"], 1500),
    "kolmogorov": (["--t", "10000", "--reps", "2000"], 2000),
}


class CliSession(Workload):
    """One ``quakewait`` subprocess per study, cycling through every
    subcommand; start-up is part of what the user waits for."""

    name = "cli_session"
    in_process = False
    warm_up_studies = 1

    def setup(self):
        harness.OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=harness.OUT))
        self.env = harness.child_env()
        self.percentages = self.tmp / "table1_rows.csv"
        with open(self.percentages, "w") as fp:
            fp.write("t," + ",".join(f"p{i}" for i in range(1, 11)) + "\n")
            for t, (row, _) in PUBLISHED_ROWS.items():
                fp.write(f"{t:g}," + ",".join(f"{p:g}" for p in row) + "\n")
        self.model = IntensityModel.from_json(CLI_MODEL)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def batch(self, b):
        s = [self.seed_for(b, k) for k in range(5)]
        events = self.tmp / f"events-{b}.csv"
        svg, bands = self.tmp / f"bands-{b}.svg", self.tmp / f"bands-{b}.csv"
        studies = [
            self._study("simulate", ["simulate", "--model", CLI_MODEL, "--horizon", "1e5",
                                     "--seed", str(s[0]), "--out", str(events)],
                        functools.partial(self._check_simulate, s[0], events), 1),
            self._study("gof", ["gof", "--seed", str(s[1])],
                        functools.partial(self._check_gof, s[1]), len(T_VALUES)),
            self._study("gof-percentages", ["gof", "--from-percentages", str(self.percentages)],
                        self._check_percentages, 0),
            self._study("analyze", ["analyze", "--compare-t", ",".join(map(str, COMPARE_T)),
                                    "--bands", "--alpha", str(BANDS_ALPHA),
                                    "--h-max", f"{BANDS_H_MAX:g}", "--out-svg", str(svg),
                                    "--out-bands", str(bands)],
                        functools.partial(self._check_analyze, svg, bands), 0),
        ]
        for k, (kind, (extra, reps)) in enumerate(VERIFY_ARGS.items(), start=2):
            studies.append(self._study(
                f"verify-{kind}", ["verify", kind, "--m", "1", *extra, "--seed", str(s[k])],
                functools.partial(self._check_verify, kind, s[k]), reps))
        return studies

    def _study(self, kind, argv, check, replicates):
        def run(tracer):
            return self._run_cli(argv, tracer)

        def checked(res):
            expect(res.returncode == 0, f"{kind}: exit {res.returncode}: {res.stderr[-300:]}")
            check(json.loads(res.stdout))
        return Study(kind, run, checked, replicates)

    def _run_cli(self, argv, tracer) -> subprocess.CompletedProcess:
        if tracer is None:
            cmd = [sys.executable, "-m", "quakewait.cli", *argv]
        else:
            spans = self.tmp / "child-spans.npz"
            cmd = [sys.executable, str(CLI_CHILD), str(spans), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=harness.ROOT, timeout=CLI_TIMEOUT_S)
        if tracer is not None:
            tracer.merge(spans, tracer.current())
            spans.unlink()
        return proc

    # checks: the CLI's JSON against the library called in-process

    def _check_simulate(self, seed, events_csv, data):
        want = nhpp.simulate_path(self.model, CLI_HORIZON, seed)
        expect_path(want.times, CLI_HORIZON, "simulate in-process")
        expect(data["seed"] == seed and data["count"] == len(want),
               f"simulate: seed {data['seed']}, count {data['count']} vs {len(want)}")
        try:
            with open(events_csv) as fp:
                expect_events_csv(fp, want.times, CLI_HORIZON, "simulate csv")
        finally:
            events_csv.unlink(missing_ok=True)

    @staticmethod
    def _check_rows(rows, want, what):
        expect(len(rows) == len(want), f"{what}: {len(rows)} rows, expected {len(want)}")
        for row, (t, perc, chi2, p) in zip(rows, want):
            expect_close([row["t"], row["chi2"], row["p_value"]], [t, chi2, p],
                         f"{what} t={t}", rtol=SIG12_RTOL)
            expect_close(row["percentages"], perc, f"{what} t={t} percentages", rtol=SIG12_RTOL)
            expect(abs(sum(row["percentages"]) - 100.0) <= 1e-6, f"{what} t={t}: sum != 100")
            expect_probability(row["p_value"], f"{what} t={t} p-value")

    def _check_gof(self, seed, rows):
        reports = gof.table1_experiment(1.0, 10, T_VALUES, 1000, seed)
        expect(all(row["seed"] == seed for row in rows), "gof: seed not echoed")
        self._check_rows(rows, [(r.t, r.percentages, r.chi2, r.p_value) for r in reports], "gof")

    def _check_percentages(self, rows):
        want = []
        for t, (row, _) in PUBLISHED_ROWS.items():
            chi2 = gof.chi_square_stat(row)
            want.append((t, row, chi2, gof.gof_pvalue(chi2)))
        self._check_rows(rows, want, "gof --from-percentages")
        for row, (_, published) in zip(rows, PUBLISHED_ROWS.values()):
            if published is None:
                expect(row["p_value"] < 0.001, f"t={row['t']}: p {row['p_value']} >= 0.001")
            else:
                expect(abs(row["p_value"] - published) <= 0.002,
                       f"t={row['t']}: p {row['p_value']} vs published {published}")

    def _check_analyze(self, svg, bands_csv, data):
        segments = catalog.segment_by_major(catalog.load_reference_catalog())
        expect(len(data["segments"]) == len(segments), "analyze: segment count")
        for got, seg in zip(data["segments"], segments):
            expect(got["anchor_year"] == seg.anchor_year and got["closed"] == seg.closed,
                   f"analyze: segment {seg.anchor_year}")
            expect([(r["t"], r["m_hat_num"], r["m_hat_den"]) for r in got["rows"]]
                   == [(t, m.numerator, m.denominator) for t, m in catalog.slope_series(seg)],
                   f"analyze: slope series of segment {seg.anchor_year}")
        seg = segments[1]
        notes = {n.t: n.reproducible for n in catalog.reproducibility_report(seg)}
        expect([c["t"] for c in data["comparisons"]] == list(COMPARE_T), "analyze: compare t")
        for comp in data["comparisons"]:
            want = catalog.compare_cdfs(seg, comp["t"])
            expect([r["h"] for r in comp["rows"]] == [r.h for r in want],
                   f"analyze t={comp['t']}: h values")
            expect_close([[r["empirical"], r["estimated"], r["abs_diff"]] for r in comp["rows"]],
                         [[r.empirical, r.estimated, r.abs_diff] for r in want],
                         f"analyze t={comp['t']}", rtol=SIG12_RTOL)
            expect(comp["published_row_reproducible"] == notes.get(comp["t"]),
                   f"analyze t={comp['t']}: reproducibility flag")
        bands = data["bands"]
        seg = next(s for s in segments if s.anchor_year == bands["anchor_year"])
        m_hat = float(catalog.slope_at(seg, bands["t"]))
        low, high = inference.slope_ci(m_hat, 0.0, float(bands["t"]), BANDS_ALPHA)
        expect_close([bands["m_hat"], bands["ci_low"], bands["ci_high"]], [m_hat, low, high],
                     "analyze bands", rtol=SIG12_RTOL)
        want = inference.confidence_bands(
            (low, high), np.arange(0.0, BANDS_H_MAX + BANDS_H_STEP / 2, BANDS_H_STEP))
        try:
            with open(bands_csv) as fp:
                expect(fp.readline().strip() == "h,lower,upper", "bands csv: header")
                got = np.loadtxt(fp, delimiter=",", ndmin=2)
            text = svg.read_text()
        finally:
            bands_csv.unlink(missing_ok=True)
            svg.unlink(missing_ok=True)
        expect_close(got, np.column_stack([want.grid, want.lower, want.upper]),
                     "bands csv", rtol=SIG12_RTOL, atol=1e-15)
        expect(text.startswith("<svg") and text.rstrip().endswith("</svg>")
               and text.count("<polyline") == 3, "bands svg: not three curves")

    @staticmethod
    def _check_verify(kind, seed, data):
        expect(data["kind"] == kind and data["seed"] == seed, f"verify {kind}: kind or seed")
        if kind == "gc":
            check = inference.verify_glivenko_cantelli(1.0, GC_TAUS, 500, seed)
            expect_close(data["taus"], check.taus, "verify gc taus", rtol=SIG12_RTOL)
            expect_close(data["medians"], check.medians, "verify gc medians", rtol=SIG12_RTOL)
            return
        if kind == "clt":
            check = inference.verify_clt(1.0, 1e4, 2000, seed)
        else:
            check = inference.verify_kolmogorov_limit(1.0, 1e4, 2000, seed)
        expect_close([data["statistic"], data["p_value"]],
                     [check.ks.statistic, check.ks.p_value], f"verify {kind}", rtol=SIG12_RTOL)
        expect_probability(data["p_value"], f"verify {kind} p-value")


WORKLOADS = {w.name: w for w in (McVerify, GofTable, PathScan, CliSession)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
