"""Tests of the benchmark's own pieces: self-time arithmetic, the tail
percentile, wrapper installation and restoration, seed derivation and the
KS share test."""
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_covered_length_merges_overlaps_and_skips_empty():
    assert tracing.covered_length([]) == 0.0
    assert tracing.covered_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.covered_length([(0, 2), (1, 3), (5, 5), (4, 4.5)]) == 3.5


def test_self_time_subtracts_children_once():
    # root [0, 10] with children [1, 4] and [5, 6]; grandchild [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_uses_the_union_of_children_clipped_to_the_parent():
    # two overlapping children and one running past the parent's end
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 4.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0]
    # children cover [1, 5] and [8, 10] of the parent: 6 of its 10 seconds
    assert tracing.self_times(start, end, parent)[0] == pytest.approx(4.0)


def test_layer_metrics_shares_and_bisection_counts():
    tr = tracing.Tracer()
    study = tr.name_index(tracing.STUDY)
    sample = tr.name_index("limitlaw.sample_conditional")
    cdf = tr.name_index("limitlaw.conditional_cdf")

    def span(nid, start, end, parent):
        return tr.record(tr.names[nid], start, end, parent)

    s0 = span(study, 0.0, 10.0, -1)
    p = span(sample, 1.0, 9.0, s0)
    for i in range(4):
        span(cdf, 1.0 + i, 1.5 + i, p)
    p2 = span(sample, 9.0, 9.5, s0)
    span(cdf, 9.0, 9.1, p2)
    m = tracing.layer_metrics(tr, max_iter=3)
    assert m["limitlaw.calls"] == (7, "count/study")
    assert m["limitlaw.self_s"][0] == pytest.approx(8.5)  # one study
    assert m["limitlaw.self_share"][0] == pytest.approx(0.85)
    assert m["limitlaw.cdf_evals_per_t"][0] == pytest.approx(2.5)
    assert m["limitlaw.bisect_cap_hits"] == (1, "count")
    assert m["rng.self_share"] == (0.0, "ratio")


def test_merge_puts_child_roots_under_the_given_span(tmp_path):
    child = tracing.Tracer()
    a = child.record("cli.main", 1.0, 4.0, -1)
    child.record("gof.table1_experiment", 2.0, 3.0, a)
    child.counters["rng.generators"] += 6
    child.save(tmp_path / "child.npz")

    parent = tracing.Tracer()
    top = parent.record(tracing.STUDY, 0.0, 5.0, -1)
    parent.merge(tmp_path / "child.npz", top)
    assert list(parent.parent) == [-1, 0, 1]
    assert [parent.names[i] for i in parent.name_id] == [
        tracing.STUDY, "cli.main", "gof.table1_experiment"]
    assert parent.counters["rng.generators"] == 6


# -- wrappers ----------------------------------------------------------------

def _bindings():
    import quakewait
    from quakewait import inference, intensity, limitlaw, rng
    return {
        "rng.substreams": (rng, "substreams"),
        "inference.substreams": (inference, "substreams"),
        "inference.verify_clt": (inference, "verify_clt"),
        "package.sup_distance_exp": (quakewait, "sup_distance_exp"),
        "limitlaw.sup_distance_exp": (limitlaw, "sup_distance_exp"),
        "IntensityModel.piecewise": (intensity.IntensityModel, "piecewise"),
        "IntensityModel.rate": (intensity.IntensityModel, "rate"),
    }


def _raw(owner, attr):
    return vars(owner)[attr]


def test_wrappers_cover_every_binding_and_are_restored():
    from quakewait import inference
    bindings = _bindings()
    before = {k: _raw(*v) for k, v in bindings.items()}
    tr = tracing.Tracer()
    with tracing.installed(tr):
        for key, (owner, attr) in bindings.items():
            assert _raw(owner, attr) is not before[key], key
        inference.verify_clt(1.0, 100.0, 100, 3)
    for key, (owner, attr) in bindings.items():
        assert _raw(owner, attr) is before[key], key
    names = [tr.names[i] for i in tr.name_id]
    assert names[0] == "inference.verify_clt"
    # called through inference's own binding of the rng function
    k = names.index("rng.substreams")
    assert tr.parent[k] == 0
    assert tr.counters["rng.generators"] == 100
    assert tr.counters["statfn.normal_cdf_points"] == 100


def test_wrappers_are_restored_after_an_exception():
    from quakewait import rng
    original = rng.substreams
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert rng.substreams is original


def test_intensity_counts_scalar_and_array_calls():
    import numpy as np
    from quakewait.intensity import IntensityModel
    model = IntensityModel.piecewise([(0.0, 2.0), (1.0, 1.0)])
    tr = tracing.Tracer()
    with tracing.installed(tr):
        model.rate(0.5)
        model.cif(np.arange(4.0))
    assert tr.counters["intensity.scalar_calls"] == 1
    assert tr.counters["intensity.array_points"] == 4


# -- tail percentile and seeds -------------------------------------------------

def test_tail_is_the_value_with_exactly_ten_beyond():
    xs = list(range(1, 101))
    assert harness.tail_latency(xs) == (90, 90.0, 100)
    assert harness.tail_latency(list(range(1000))) == (989, 99.0, 1000)
    value, pct, n = harness.tail_latency(list(range(11)))
    assert (value, n) == (0, 11) and pct == pytest.approx(100 / 11)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert harness.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        harness.tail_latency([])


def test_seed_derivation_is_fixed_and_separates_inputs():
    # pinned: the benchmark's inputs must not change between commits
    assert harness.derive_seed(0, "x") == 2824521328
    seeds = {harness.derive_seed(s, w, b, k) for s in (0, 1) for w in ("mc_verify", "gof_table")
             for b in range(5) for k in range(3)}
    assert len(seeds) == 60
    assert all(0 <= s < 2 ** 32 for s in seeds)


def test_workload_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.make("gof_table", seed) for seed in (7, 7, 8))
    assert [a.seed_for(i, k) for i in range(3) for k in range(3)] == \
        [b.seed_for(i, k) for i in range(3) for k in range(3)]
    assert a.seed_for(0, 0) != c.seed_for(0, 0)


# -- KS share test -------------------------------------------------------------

def test_binomial_sf_matches_the_direct_sum():
    n, p = 20, 0.1
    direct = sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(3, n + 1))
    assert workloads.binomial_sf(3, n, p) == pytest.approx(direct, rel=1e-12)
    assert workloads.binomial_sf(0, n, p) == 1.0


def test_ks_share_flags_only_implausible_failure_counts():
    wl = workloads.make("mc_verify", 0)
    wl.ks_tally = {"clt": [96, 100], "kolmogorov": [90, 100]}
    assert wl.run_problems() == []
    wl.ks_tally = {"clt": [60, 100], "kolmogorov": [90, 100]}
    assert [p.split(":")[0] for p in wl.run_problems()] == ["clt"]


def test_per_layer_metrics_match_benchmark_json():
    import json
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    emitted = tracing.layer_metrics(tracing.Tracer(), max_iter=200)
    emitted.update({"cli.import_s": (0.0, "s"), "trace.overhead_s": (0.0, "s")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in emitted.items()}
