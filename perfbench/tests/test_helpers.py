"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from checks import check_run, check_verify, load_reference  # noqa: E402
from speed import SLICE_REF_S, SpeedSampler, scale  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    SpanRecorder,
    cumulative_import_s,
    parse_importtime,
    percentile,
    self_times_ns,
    summarize,
)
from workloads import REFERENCE_SEEDS, WORKLOADS, base_seed_for, config_text  # noqa: E402


# -- statistics ------------------------------------------------------------------

def test_summarize_matches_statistics_quantiles():
    vals = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    s = summarize(vals)
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    assert (s["p25"], s["median"], s["p75"], s["n"]) == (q1, q2, q3, 7)
    assert s["median"] == 4.0


def test_summarize_single_value_and_empty():
    assert summarize([2.5]) == {"median": 2.5, "p25": 2.5, "p75": 2.5, "n": 1}
    with pytest.raises(ValueError):
        summarize([])


def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 99) == pytest.approx(9.9)


# -- machine speed -------------------------------------------------------------

def test_scale_is_relative_to_the_reference_slice():
    assert scale(4.0, SLICE_REF_S) == pytest.approx(4.0)
    assert scale(4.0, 2 * SLICE_REF_S) == pytest.approx(2.0)  # machine at half speed


def test_sampler_means_the_slices_inside_the_interval():
    sampler = SpeedSampler()
    sampler.samples = [(10, 1.0), (20, 3.0), (30, 5.0)]
    assert sampler.mean_s(15, 30) == 4.0
    assert sampler.mean_s(40, 50) == 3.0  # no slice inside: all of them


def test_sampler_times_slices_until_stopped():
    with SpeedSampler() as sampler:
        pass
    assert len(sampler.samples) >= 1
    assert not sampler._thread.is_alive()
    assert all(s > 0 for _, s in sampler.samples)


# -- spans ---------------------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0, 100, None, "op"),
        Span("a", 10, 40, 0, "op"),
        Span("b", 30, 60, 0, "op"),   # overlaps a: the union 10..60 is covered
        Span("a.child", 15, 25, 1, "op"),
        Span("late", 90, 120, 0, "op"),  # clipped to the root's end
    ]
    selfs = self_times_ns(spans)
    assert selfs == [100 - 50 - 10, 30 - 10, 30, 10, 30]


def test_self_times_of_a_tree_add_up_to_the_root():
    spans = [
        Span("op", 0, 1000, None, "x"),
        Span("import", 5, 300, 0, "x"),
        Span("main", 300, 990, 0, "x"),
        Span("run", 310, 900, 2, "x"),
        Span("traj", 320, 500, 3, "x"),
        Span("traj", 500, 880, 3, "x"),
        Span("draw", 330, 340, 4, "x"),
    ]
    assert sum(self_times_ns(spans)) == 1000


def test_recorder_links_parents_and_counts_inside_a_span():
    rec = SpanRecorder("op-1")
    leaf = rec.counter("leaf_calls", lambda: None, inside="outer", inside_name="steps")
    inner = rec.span("inner", lambda: leaf())
    outer = rec.span("outer", lambda: [inner(), inner()])
    leaf()
    outer()
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    assert all(s.end_ns >= s.start_ns and s.op_id == "op-1" for s in rec.spans)
    assert rec.counts == {"leaf_calls": 3, "steps": 2}


def test_recorder_closes_span_when_call_raises():
    rec = SpanRecorder("op")

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.span("boom", boom)()
    assert rec.spans[0].end_ns >= rec.spans[0].start_ns and not rec.open["boom"]


# -- python -X importtime ------------------------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:      2000 |      81000 | numpy
import time:       300 |        300 |     scipy._lib
import time:       900 |     207000 |   scipy.special
import time:      1500 |     620000 |   scipy.stats
import time:      4000 |     948000 | omdkit
Traceback-looking noise that is not a record
"""


def test_parse_importtime():
    entries = parse_importtime(IMPORTTIME)
    assert [e.module for e in entries] == ["_io", "numpy", "scipy._lib", "scipy.special",
                                           "scipy.stats", "omdkit"]
    assert entries[1].self_us == 2000 and entries[1].cumulative_us == 81000
    assert cumulative_import_s(entries, "omdkit") == pytest.approx(0.948)
    assert cumulative_import_s(entries, "scipy.stats") == pytest.approx(0.62)
    assert cumulative_import_s(entries, "scipy.optimize") == 0.0


# -- output checks ---------------------------------------------------------------

def _reference_run():
    ref = load_reference()
    w = WORKLOADS["mc_euclid"]
    return ref["mc_euclid"][str(base_seed_for(w, 0))]


def _curve_text(entry, mean=None):
    mean = entry["mean"] if mean is None else mean
    rows = ["t,mean,std_err,run_count"]
    rows += [f"{t},{m!r},{s!r},{entry['run_count']}"
             for t, m, s in zip(entry["t"], mean, entry["std_err"])]
    return "\n".join(rows) + "\n"


def _report_text(tag, verdict):
    return f"# omdkit experiment report\n\n[verdict]\ntag = {tag}\nverdict = {verdict}\n"


def _stdout(tag, verdict):
    return f"wrote a and b (200 runs in 1.00s)\n{tag}: {verdict}\n"


def test_check_run_accepts_the_reference_and_a_tiny_reordering_error():
    e = _reference_run()
    ok = (e["tag"], e["verdict"])
    assert check_run(e, 0, _stdout(*ok), _curve_text(e), _report_text(*ok)) == []
    nudged = [m * (1 + 1e-12) for m in e["mean"]]
    assert check_run(e, 0, _stdout(*ok), _curve_text(e, nudged), _report_text(*ok)) == []


def test_check_run_rejects_a_curve_perturbed_beyond_tolerance():
    e = _reference_run()
    ok = (e["tag"], e["verdict"])
    perturbed = list(e["mean"])
    perturbed[-1] *= 1 + 1e-6
    problems = check_run(e, 0, _stdout(*ok), _curve_text(e, perturbed), _report_text(*ok))
    assert len(problems) == 1 and "mean at t=2048" in problems[0]


def test_check_run_rejects_a_wrong_verdict():
    e = _reference_run()
    bad = (e["tag"], "Inconclusive")
    problems = check_run(e, 0, _stdout(*bad), _curve_text(e), _report_text(*bad))
    assert any("verdict" in p for p in problems) and any("stdout" in p for p in problems)


def test_check_run_rejects_exit_code_header_and_checkpoints():
    e = _reference_run()
    ok = (e["tag"], e["verdict"])
    assert check_run(e, 3, "", "", "") == ["exit code 3, expected 0"]
    bad_header = _curve_text(e).replace("std_err", "se", 1)
    assert any("header" in p for p in check_run(e, 0, _stdout(*ok), bad_header, _report_text(*ok)))
    short = "\n".join(_curve_text(e).splitlines()[:-1]) + "\n"
    assert any("checkpoints" in p for p in check_run(e, 0, _stdout(*ok), short, _report_text(*ok)))


def test_check_verify():
    ref = load_reference()["verify_suite"]
    lines = [f"{name},pass,0.0" for name in ref["checks"]]
    assert len(lines) == 21
    assert check_verify(ref, 0, "\n".join(lines) + "\n") == []
    assert any("differ" in p for p in check_verify(ref, 0, "\n".join(lines[:-1])))
    lines[3] = lines[3].replace("pass", "fail")
    assert check_verify(ref, 1, "\n".join(lines)) == [
        "exit code 1, expected 0", f"{ref['checks'][3]} reports fail"]


# -- workloads -----------------------------------------------------------------

def test_every_seed_maps_to_a_captured_reference():
    ref = load_reference()
    for w in WORKLOADS.values():
        if w.kind != "run":
            continue
        seeds = {base_seed_for(w, s) for s in range(-3, 3 * REFERENCE_SEEDS)}
        assert len(seeds) == REFERENCE_SEEDS
        assert {str(s) for s in seeds} == set(ref[w.name])
        assert all(entry["verdict"] == "Pass" for entry in ref[w.name].values())
        assert config_text(w, 5) == config_text(w, 5 + REFERENCE_SEEDS)
        assert f"base_seed = {base_seed_for(w, 5)}\n" in config_text(w, 5)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
