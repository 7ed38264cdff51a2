"""quakewait benchmark runner.

    python3 perfbench/run.py --workload mc_verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program under test is the checkout's
``src/quakewait``; the runner refuses to start without it.  One run sets the
workload up, then repeats its fixed batch of studies until ``--seconds``
have passed.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced batches and reports the
per-layer metrics.  The last line of stdout is the JSON result; the run
record (metadata, failures, tail percentile) and the spans of a traced
run are written under ``perfbench/out``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.pin_threads()

WORKLOADS = ("mc_verify", "gof_table", "path_scan", "cli_session")
SETUP_SAMPLES = 5           # set-ups per untraced run: this process and four children
IMPORT_SAMPLES = 3
MIN_BATCHES = {False: 2, True: 4}
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = ("import time; t = time.perf_counter(); import quakewait.cli; "
                "print(time.perf_counter() - t)")


def set_up(name: str, seed: int):
    """Import the program, generate the inputs and warm up; timed."""
    start = time.perf_counter()
    import workloads
    wl = workloads.make(name, seed)
    wl.setup()
    wl.warm_up()
    return wl, time.perf_counter() - start


def child_seconds(cmd) -> float:
    """Run a child interpreter that prints one number of seconds."""
    proc = subprocess.run(cmd, capture_output=True, text=True, env=harness.child_env(),
                          cwd=harness.ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(wl, seconds: float, tracer):
    """Repeat the workload's batch until ``seconds`` have passed.

    With a tracer, odd batches run traced and even ones untraced, so the
    two batch medians give the tracing overhead.
    """
    import tracing
    latencies, walls, traced_walls, failures = [], [], [], []
    study_nid = None if tracer is None else tracer.name_index(tracing.STUDY)
    start = time.perf_counter()
    b = 0
    while True:
        traced = tracer is not None and b % 2 == 1
        wrap = tracing.installed(tracer) if traced and wl.in_process else contextlib.nullcontext()
        outcomes = []
        with wrap:
            t0 = time.perf_counter()
            for study in wl.batch(b):
                if traced:
                    tracer.study_id = len(latencies) + len(outcomes)
                    tracer.counters["bench.replicates"] += study.replicates
                    span = tracer.open(study_nid)
                s0 = time.perf_counter()
                try:
                    out, err = study.run(tracer if traced else None), None
                except Exception as exc:  # a failed study is counted, not fatal
                    out, err = None, exc
                s1 = time.perf_counter()
                if traced:
                    tracer.close(span)
                outcomes.append((study, out, err, s1 - s0))
            (traced_walls if traced else walls).append(time.perf_counter() - t0)
        for study, out, err, dt in outcomes:
            latencies.append(dt)
            if err is None:
                try:
                    study.check(out)
                except Exception as exc:
                    err = exc
            if err is not None:
                failures.append(f"{study.kind}: {type(err).__name__}: {err}")
        b += 1
        if time.perf_counter() - start >= seconds and b >= MIN_BATCHES[tracer is not None]:
            return latencies, walls, traced_walls, failures


def end_to_end(name, seed, wl, setup_s, latencies, walls):
    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # only one CLI child runs at a time, so the two peaks bound what was
    # resident together
    peak_kb = ru_self + (0 if wl.in_process else ru_children)
    setups = [setup_s] + [
        child_seconds([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                       "--probe-setup"])
        for _ in range(SETUP_SAMPLES - 1)]
    tail, pct, n = harness.tail_latency(latencies)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "study_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "study_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    extra = {"tail_percentile": pct, "studies": n, "batches": len(walls),
             "setup_samples_s": setups}
    return metrics, extra


def per_layer(name, tracer, walls, traced_walls):
    import tracing
    from quakewait import limitlaw
    metrics = tracing.layer_metrics(tracer, limitlaw._MAX_ITER)
    imports = [child_seconds([sys.executable, "-c", IMPORT_PROBE]) for _ in range(IMPORT_SAMPLES)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    overhead = statistics.median(traced_walls) - statistics.median(walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    harness.OUT.mkdir(exist_ok=True)
    spans = harness.OUT / f"{name}-spans.npz"
    tracer.save(spans)
    extra = {"batches": len(walls), "traced_batches": len(traced_walls),
             "spans": len(tracer.name_id), "spans_file": str(spans.relative_to(harness.ROOT))}
    return metrics, extra


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl, setup_s = set_up(name, seed)
    try:
        import tracing
        tracer = tracing.Tracer() if trace else None
        latencies, walls, traced_walls, failures = measure(wl, seconds, tracer)
        problems = wl.run_problems()
        if trace:
            metrics, extra = per_layer(name, tracer, walls, traced_walls)
        else:
            metrics, extra = end_to_end(name, seed, wl, setup_s, latencies, walls)
    finally:
        wl.close()
    attempted = len(latencies)
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"meta": harness.metadata(workload=name, seed=seed, seconds=seconds,
                                       trace=int(trace), studies=attempted),
              "failed_frac": len(failures) / attempted, "failures": failures[:20],
              "run_problems": problems, **extra, "result": result}
    harness.OUT.mkdir(exist_ok=True)
    with open(harness.OUT / f"{name}-trace{int(trace)}.json", "w") as fp:
        json.dump(record, fp, indent=1)
    print_report(record)
    return result


def print_report(record) -> None:
    meta, result = record["meta"], record["result"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"studies {meta['studies']}  batches {record['batches']}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "study_tail_ms":
            note = f"  (p{record['tail_percentile']:.2f} of {record['studies']} studies)"
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':32s} {record['failed_frac']:14.6g} ratio"
          f"  ({result['failed']}/{result['attempted']})")
    for line in record["failures"] + record["run_problems"]:
        print(f"  FAILED {line}")
    print("meta " + json.dumps(meta))


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    ok = True
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=harness.ROOT, timeout=300)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "failed_frac", result["failed"] / result["attempted"], "ratio"))
    print(f"{'workload':12s} {'metric':32s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:32s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time one set-up and print it (used by the runner)")
    args = parser.parse_args(argv)
    try:
        harness.use_source_tree()
    except harness.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        wl, setup_s = set_up(args.workload, args.seed)
        wl.close()
        print(setup_s)
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
