"""Spans around the public functions of quakewait, recorded from outside.

``installed(tracer)`` wraps every public function, and every public method
of a public class, defined in the quakewait modules.  A function is patched
under *every* module-global name it is bound to, because modules import
each other's functions by name (``from .rng import substreams`` makes
``quakewait.inference.substreams`` a second binding).  Leaving the context
puts every original back, so untraced runs measure the unmodified program.

A span is (name, start, end, parent, study).  Spans are kept in flat arrays
while the benchmark runs and are written out when it ends.  A few counters
(array sizes, generators built, bytes written) are taken at the same call
boundaries by per-function hooks.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("rng", "intensity", "nhpp", "limitlaw", "statfn", "inference",
           "gof", "catalog", "cli")
STUDY = "bench.study"


class Tracer:
    """In-memory span recorder; one per benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.study = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.study_id = -1
        self._stack: list[int] = []

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.study.append(self.study_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    def record(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span (used to merge spans from a child)."""
        idx = len(self.name_id)
        self.name_id.append(self.name_index(name))
        self.parent.append(parent)
        self.study.append(self.study_id)
        self.start.append(start)
        self.end.append(end)
        return idx

    def save(self, path) -> None:
        """Write the spans and counters as an ``.npz`` archive."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 study=np.frombuffer(self.study, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 counters=np.array(json.dumps(self.counters)))

    def merge(self, path, parent: int) -> None:
        """Add the spans a child process saved to ``path`` under span
        ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on
        Linux, so child and parent timestamps share one time base.
        """
        with np.load(path) as z:
            names = z["names"].tolist()
            base = len(self.name_id)
            for nid, par, start, end in zip(z["name_id"].tolist(), z["parent"].tolist(),
                                            z["start"].tolist(), z["end"].tolist()):
                self.record(names[nid], start, end, parent if par < 0 else base + par)
            self.counters.update(json.loads(str(z["counters"])))


# -- counters taken at call boundaries ------------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _generators(n_of):
    def hook(counters, fn, args, kwargs):
        out = fn(*args, **kwargs)
        counters["rng.generators"] += n_of(args, kwargs, out)
        return out
    return hook


def _points(counter: str, pos: int, name: str):
    def hook(counters, fn, args, kwargs):
        counters[counter] += int(np.size(_arg(args, kwargs, pos, name)))
        return fn(*args, **kwargs)
    return hook


def _intensity(counters, fn, args, kwargs):
    x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    if np.ndim(x) == 0:
        counters["intensity.scalar_calls"] += 1
    else:
        counters["intensity.array_points"] += int(np.size(x))
    return fn(*args, **kwargs)


def _events(counters, fn, args, kwargs):
    out = fn(*args, **kwargs)
    counters["nhpp.events_simulated"] += len(out.times)
    return out


def _csv_bytes(counters, fn, args, kwargs):
    fp = _arg(args, kwargs, 1, "fp")
    before = fp.tell()
    out = fn(*args, **kwargs)
    counters["nhpp.csv_bytes"] += fp.tell() - before
    return out


HOOKS = {
    "rng.substreams": _generators(lambda a, k, out: len(out)),
    "rng.substream": _generators(lambda a, k, out: 1),
    "rng.as_generator": _generators(lambda a, k, out: int(out is not _arg(a, k, 0, "seed"))),
    "statfn.normal_cdf": _points("statfn.normal_cdf_points", 0, "x"),
    "limitlaw.conditional_cdf": _points("limitlaw.cdf_points", 1, "h"),
    "intensity.IntensityModel.rate": _intensity,
    "intensity.IntensityModel.cif": _intensity,
    "intensity.IntensityModel.cif_inverse": _intensity,
    "nhpp.simulate_path": _events,
    "nhpp.write_events_csv": _csv_bytes,
    "gof.bin_percentages": _points("gof.samples_binned", 0, "samples"),
}


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_index(name)
    hook = HOOKS.get(name)
    if hook is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
    else:
        counters = tracer.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return hook(counters, fn, args, kwargs)
            finally:
                tracer.close(idx)
    return traced


def _wrap_member(tracer: Tracer, name: str, member):
    if inspect.isfunction(member):
        return _wrap(tracer, name, member)
    if isinstance(member, (classmethod, staticmethod)):
        return type(member)(_wrap(tracer, name, member.__func__))
    return None


def install(tracer: Tracer) -> list[tuple]:
    """Patch every public function and method; return the undo list of
    (owner, attribute, original)."""
    import quakewait
    import quakewait.cli  # noqa: F401  (imports every other module)
    mods = [sys.modules[f"quakewait.{m}"] for m in MODULES]
    wrappers: dict[int, tuple] = {}
    patches: list[tuple] = []
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[id(obj)] = (obj, _wrap(tracer, f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    wrapped = _wrap_member(tracer, f"{short}.{attr}.{mname}", member)
                    if wrapped is not None:
                        patches.append((obj, mname, member))
                        setattr(obj, mname, wrapped)
    for mod in [quakewait, *mods]:
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                patches.append((mod, attr, obj))
                setattr(mod, attr, entry[1])
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextlib.contextmanager
def installed(tracer: Tracer):
    patches = install(tracer)
    try:
        yield
    finally:
        restore(patches)


# -- self time and per-layer metrics --------------------------------------

def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        out[p] -= covered_length((max(start[k], lo), min(end[k], hi)) for k in kids)
    return out


def layer_metrics(tracer: Tracer, max_iter: int) -> dict:
    """Per-layer metrics from the recorded spans and counters.

    Counts and self times are per traced study, so they do not grow with
    the number of batches a run fits into its time.  ``max_iter`` is the
    bisection cap of ``limitlaw.sample_conditional``; a call that made more
    than that many ``conditional_cdf`` evaluations used up its bisection
    budget.
    """
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = Counter()
    self_s = Counter()
    studies = 0
    study_s = 0.0
    cdf_children = Counter()
    n_sample = loglik_n = 0
    loglik_s = 0.0
    for i, nid in enumerate(tracer.name_id):
        name = names[nid]
        if name == STUDY:
            studies += 1
            study_s += tracer.end[i] - tracer.start[i]
            continue
        mod = name.split(".", 1)[0]
        calls[mod] += 1
        self_s[mod] += selfs[i]
        if name == "limitlaw.conditional_cdf":
            p = tracer.parent[i]
            if p >= 0 and names[tracer.name_id[p]] == "limitlaw.sample_conditional":
                cdf_children[p] += 1
        elif name == "limitlaw.sample_conditional":
            n_sample += 1
        elif name == "inference.path_log_likelihood":
            loglik_n += 1
            loglik_s += tracer.end[i] - tracer.start[i]
    span_calls = Counter(names[nid] for nid in tracer.name_id)
    c = tracer.counters
    per = 1.0 / studies if studies else 0.0
    out = {}
    for mod in MODULES:
        out[f"{mod}.calls"] = (calls[mod] * per, "count/study")
        out[f"{mod}.self_s"] = (self_s[mod] * per, "s/study")
        out[f"{mod}.self_share"] = (self_s[mod] / study_s if study_s else 0.0, "ratio")
    replicates = c["bench.replicates"]
    out.update({
        "rng.generators": (c["rng.generators"] * per, "count/study"),
        "rng.generators_per_replicate": (
            c["rng.generators"] / replicates if replicates else 0.0, "ratio"),
        "statfn.normal_cdf_points": (c["statfn.normal_cdf_points"] * per, "count/study"),
        "statfn.chi2_sf_calls": (span_calls["statfn.chi2_sf"] * per, "count/study"),
        "limitlaw.sup_distance_calls": (
            span_calls["limitlaw.sup_distance_exp"] * per, "count/study"),
        "limitlaw.cdf_evals_per_t": (
            sum(cdf_children.values()) / n_sample if n_sample else 0.0, "count/t"),
        "limitlaw.cdf_points": (c["limitlaw.cdf_points"] * per, "count/study"),
        "limitlaw.bisect_cap_hits": (
            sum(1 for n in cdf_children.values() if n > max_iter), "count"),
        "intensity.scalar_calls": (c["intensity.scalar_calls"] * per, "count/study"),
        "intensity.array_points": (c["intensity.array_points"] * per, "count/study"),
        "inference.loglik_calls": (loglik_n * per, "count/study"),
        "inference.loglik_us": (1e6 * loglik_s / loglik_n if loglik_n else 0.0, "us"),
        "nhpp.events_simulated": (c["nhpp.events_simulated"] * per, "count/study"),
        "nhpp.csv_bytes": (c["nhpp.csv_bytes"] * per, "bytes/study"),
        "gof.samples_binned": (c["gof.samples_binned"] * per, "count/study"),
    })
    return out
