"""Command-line front end.

Subcommands: ``simulate`` (write a sample path), ``gof`` (the conditional
vs limit-law experiment), ``analyze`` (catalog slope series, CDF
comparisons, confidence bands), ``verify`` (Monte Carlo checks of the
asymptotic results).  Exit codes: 0 success, 1 internal failure (an
iteration that did not converge, or an ``IndexError``), 2 usage or input
error (1 also when memory runs out, the disk is full or the reader of
stdout has gone).
"""
from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import secrets
import sys
import warnings

import numpy as np

from . import catalog as cat
from . import gof as gofmod
from . import inference
from .intensity import IntensityModel
from .limitlaw import random_cdf
from .nhpp import simulate_path, write_events_csv
from .statfn import ConvergenceError, chi2_sf


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _resolve_seed(seed):
    """Explicit seed, or a fresh one recorded in the output metadata."""
    return seed if seed is not None else secrets.randbits(32)


def _seed_arg(text: str) -> int:
    """``--seed``: a nonnegative integer, checked while parsing so that
    the error names the flag."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return seed


def _list_arg(convert, what: str):
    """Type for a comma-separated flag: a list of ``convert`` values."""
    def parse(text: str) -> list:
        try:
            return [convert(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


def _load_model(spec: str) -> IntensityModel:
    if spec.lstrip().startswith("{"):
        return IntensityModel.from_json(spec)
    with open(spec) as fp:
        return IntensityModel.from_json(fp.read())


# -- simulate ---------------------------------------------------------

def _cmd_simulate(args) -> int:
    model = _load_model(args.model)
    seed = _resolve_seed(args.seed)
    events = simulate_path(model, args.horizon, seed)
    with open(args.out, "w") as fp:
        write_events_csv(events, fp)
    print(json.dumps({"count": len(events), "horizon": _sig12(args.horizon),
                      "seed": seed, "out": args.out}))
    return 0


# -- gof --------------------------------------------------------------

def _row(t, perc, chi2, p) -> dict:
    return {"t": _sig12(t), "percentages": [_sig12(x) for x in perc],
            "chi2": _sig12(chi2), "p_value": _sig12(p)}


def _score_percentage_rows(path) -> tuple[int, list[dict]]:
    out = []
    with open(path) as fp:
        reader = csv.reader(fp)
        header = [c.strip().lower() for c in next(reader, [])]
        # r from the header; trailing chi2 and p_value cells are recomputed
        r = len(header) - (3 if header[-2:] == ["chi2", "p_value"] else 1)
        if header[:1] != ["t"] or r < 2:
            raise ValueError("expected header 't,p1,...,p<r>[,chi2,p_value]' with r >= 2")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"line {reader.line_num}: expected {len(header)} cells, "
                                 f"got {len(row)}")
            try:
                t, *perc = map(float, row[:r + 1])
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
            if not math.isfinite(t):
                raise ValueError(f"line {reader.line_num}: t must be finite, got {row[0]!r}")
            stat = gofmod.chi_square_stat(perc)
            out.append(_row(t, perc, stat, chi2_sf(stat, r - 1)))
    return r, out


def _cmd_gof(args) -> int:
    if args.from_percentages:
        r, rows = _score_percentage_rows(args.from_percentages)
    else:
        seed = _resolve_seed(args.seed)
        reports = gofmod.table1_experiment(args.m, args.k, args.t, args.n,
                                           seed, r=args.r)
        r = args.r
        rows = [{"seed": seed, **_row(rep.t, rep.percentages, rep.chi2, rep.p_value)}
                for rep in reports]
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["t"] + [f"p{i}" for i in range(1, r + 1)] + ["chi2", "p_value"])
        for row in rows:
            writer.writerow([row["t"], *row["percentages"], row["chi2"], row["p_value"]])
    else:
        print(json.dumps(rows, indent=2))
    return 0


# -- analyze ----------------------------------------------------------

BANDS_MAX_POINTS = 100_000  # largest --bands grid: about 1.2 MB of CSV, 3.9 MB of SVG


def _svg_bands(band, point_rate: float, h_max: float) -> str:
    """Hand-rolled SVG: lower band, upper band and the point-estimate
    curve on axes h in [0, h_max], probability in [0, 1]."""
    width, height, margin = 480, 360, 40

    def sx(h):
        return margin + (width - 2 * margin) * h / h_max

    def sy(p):
        return height - margin - (height - 2 * margin) * p

    def polyline(xs, ys, color, dash=""):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                f'{extra} points="{pts}"/>')

    point = random_cdf(point_rate, band.grid)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}"'
        f' y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}"'
        f' y2="{height - margin}" stroke="black"/>',
        polyline(band.grid, band.lower, "#1f77b4", dash="4 3"),
        polyline(band.grid, band.upper, "#1f77b4", dash="4 3"),
        polyline(band.grid, point, "#d62728"),
        f'<text x="{width // 2}" y="{height - 8}" font-size="12"'
        f' text-anchor="middle">waiting time h (years)</text>',
        f'<text x="12" y="{height // 2}" font-size="12" text-anchor="middle"'
        f' transform="rotate(-90 12 {height // 2})">probability</text>',
        "</svg>",
    ]
    return "\n".join(parts)


def _cmd_analyze(args) -> int:
    if (args.out_svg or args.out_bands) and not args.bands:
        raise ValueError("--out-svg and --out-bands need --bands")
    if args.catalog:
        with open(args.catalog) as fp:
            events = cat.parse_catalog(fp)
    else:
        events = cat.load_reference_catalog()
    segments = cat.segment_by_major(events, args.major_threshold)
    out = {"segments": []}
    for seg in segments:
        rows = [{"t": t, "m_hat_num": mh.numerator, "m_hat_den": mh.denominator}
                for t, mh in cat.slope_series(seg)]
        out["segments"].append({
            "anchor_year": seg.anchor_year,
            "closed": seg.closed,
            "insufficient_data": len(seg.relative_times) < 3,
            "rows": rows,
        })
    if args.compare_t:
        if not 1 <= args.segment <= len(segments):
            raise ValueError(f"--segment must lie between 1 and the number of "
                             f"segments, {len(segments)}")
        seg = segments[args.segment - 1]
        comparisons = []
        notes = {n.t: n for n in cat.reproducibility_report(seg)}
        for t in args.compare_t:
            rows = [{"h": r.h, "empirical": _sig12(r.empirical),
                     "estimated": _sig12(r.estimated),
                     "abs_diff": _sig12(r.abs_diff)}
                    for r in cat.compare_cdfs(seg, t)]
            note = notes.get(t)
            comparisons.append({
                "t": t, "rows": rows,
                "published_row_reproducible": None if note is None else note.reproducible,
            })
        out["comparisons"] = comparisons
    if args.bands:
        if not 0 < args.h_step < math.inf:
            raise ValueError("--h-step must be strictly positive and finite")
        if not 0 < args.h_max < math.inf:
            raise ValueError("--h-max must be finite and strictly positive")
        # np.arange's length is the ceiling of this ratio, taken in floats
        # so that numpy never sees a grid too large to build
        if not (args.h_max + args.h_step / 2) / args.h_step <= BANDS_MAX_POINTS:
            raise ValueError(f"--h-max / --h-step gives more than {BANDS_MAX_POINTS} "
                             "grid points")
        if not segments:
            raise ValueError("--bands needs a segment, and no event reaches "
                             "the major threshold")
        seg = segments[-1]
        if not seg.relative_times:
            raise ValueError("--bands needs a moderate event in the last segment")
        t = seg.relative_times[-1]
        m_hat = float(cat.slope_at(seg, t))
        low, high = inference.slope_ci(m_hat, 0.0, float(t), args.alpha)
        grid = np.arange(0.0, args.h_max + args.h_step / 2, args.h_step)
        band = inference.confidence_bands((low, high), grid)
        out["bands"] = {"anchor_year": seg.anchor_year, "t": t,
                        "m_hat": _sig12(m_hat), "alpha": args.alpha,
                        "ci_low": _sig12(low), "ci_high": _sig12(high)}
        if args.out_bands:
            with open(args.out_bands, "w") as fp:
                inference.write_bands_csv(band, fp)
        if args.out_svg:
            with open(args.out_svg, "w") as fp:
                fp.write(_svg_bands(band, m_hat, args.h_max))
    print(json.dumps(out, indent=2))
    return 0


# -- verify -----------------------------------------------------------

def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.kind == "gc":
        # the library's rules for the window lengths, worded for the flag
        if len(args.t) < 2:
            raise ValueError("--t takes at least two window lengths for gc, "
                             f"got {len(args.t)}")
        if not all(0 < a < b for a, b in zip(args.t, args.t[1:])):
            raise ValueError("--t takes strictly positive, increasing window lengths for gc")
        check = inference.verify_glivenko_cantelli(args.m, args.t, args.reps, seed)
        result = {"kind": "gc", "seed": seed,
                  "taus": [_sig12(t) for t in check.taus],
                  "medians": [_sig12(m) for m in check.medians]}
    else:
        if len(args.t) != 1:
            raise ValueError(f"--t takes one window length for {args.kind}, "
                             f"got {len(args.t)}")
        verify = (inference.verify_clt if args.kind == "clt"
                  else inference.verify_kolmogorov_limit)
        check = verify(args.m, args.t[0], args.reps, seed)
        result = {"kind": args.kind, "seed": seed,
                  "statistic": _sig12(check.ks.statistic),
                  "p_value": _sig12(check.ks.p_value)}
    print(json.dumps(result))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit 2, as the
    commands report a bad input; the subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message} (see '{self.prog} --help')\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quakewait")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a sample path")
    sim.add_argument("--model", required=True,
                     help="model spec file, or inline JSON")
    sim.add_argument("--horizon", type=float, required=True)
    sim.add_argument("--seed", type=_seed_arg)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    gof = sub.add_parser("gof", help="goodness-of-fit experiment")
    gof.add_argument("--m", type=float, default=1.0)
    gof.add_argument("--k", type=int, default=10)
    gof.add_argument("--t", type=_list_arg(float, "numbers"), default="10,20,25,30,40,50",
                     help="comma-separated elapsed times")
    gof.add_argument("--n", type=int, default=1000)
    gof.add_argument("--r", type=int, default=10)
    gof.add_argument("--seed", type=_seed_arg)
    gof.add_argument("--from-percentages",
                     help="score a 't,p1,...,p<r>' CSV, as --format csv writes")
    gof.add_argument("--format", choices=("json", "csv"), default="json")
    gof.set_defaults(func=_cmd_gof)

    ana = sub.add_parser("analyze", help="catalog recurrence analysis")
    ana.add_argument("--catalog", help="year,magnitude CSV (default: embedded)")
    ana.add_argument("--major-threshold", type=float, default=cat.MAJOR_THRESHOLD)
    ana.add_argument("--compare-t", type=_list_arg(int, "integers"),
                     help="comma-separated elapsed times")
    ana.add_argument("--segment", type=int, default=2,
                     help="1-based segment for --compare-t")
    ana.add_argument("--bands", action="store_true")
    ana.add_argument("--alpha", type=float, default=0.05)
    ana.add_argument("--h-max", type=float, default=20.0)
    ana.add_argument("--h-step", type=float, default=0.25,
                     help=f"grid step; the grid has at most {BANDS_MAX_POINTS} points")
    ana.add_argument("--out-svg")
    ana.add_argument("--out-bands")
    ana.set_defaults(func=_cmd_analyze)

    ver = sub.add_parser("verify", help="Monte Carlo asymptotics checks")
    ver.add_argument("kind", choices=("clt", "gc", "kolmogorov"))
    ver.add_argument("--m", type=float, default=1.0)
    ver.add_argument("--t", type=_list_arg(float, "numbers"), required=True,
                     help="window length (comma-separated list for gc)")
    ver.add_argument("--reps", type=int, default=2000)
    ver.add_argument("--seed", type=_seed_arg)
    ver.set_defaults(func=_cmd_verify)

    return parser


def _discard_stdout() -> None:
    """Point stdout's file descriptor at devnull, so that the flush at exit
    drops what is still buffered instead of failing on it again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # one "warning:" line each, ahead of any error line
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                          file=sys.stderr)
        try:
            code = args.func(args)
            sys.stdout.flush()  # so that a closed or full stdout fails here
            return code
        except BrokenPipeError:
            # the reader has gone, so there is no one to report to ("Note
            # on SIGPIPE" in the signal module docs)
            _discard_stdout()
            return 1
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if exc.errno != errno.ENOSPC:
                return 2
            # a write failure, not a bad input
            _discard_stdout()
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ConvergenceError, IndexError) as exc:
            # an unconverged iteration or an index out of range is a fault
            # of the program, not of the input
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:
            print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
