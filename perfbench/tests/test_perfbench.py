"""The benchmark's own tests: deterministic inputs, correct outputs at the
recorded digests, self times that add up, and refusal to run without the
library.  Run with ``python -m pytest perfbench/tests``; the smoke tests run
one pass of every workload and take about a minute."""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import checks
import run
import speed
import tracer
import workloads

WALL = speed.WallClock()
STRETCH = (0.0, 0.01, 0.01)     # (start, end, seconds) of a run, for tallies


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    run.import_homleib()


def _snapshot(directory, jobs):
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    listing = [(j.id, j.pair, j.field, j.expect, tuple(a.replace(str(directory), "@") for a in j.argv))
               for j in jobs]
    return files, listing


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_documents_and_jobs(at_root, tmp_path, workload):
    a = _snapshot(tmp_path / "a", workloads.generate(workload, 5, tmp_path / "a"))
    b = _snapshot(tmp_path / "b", workloads.generate(workload, 5, tmp_path / "b"))
    assert a == b
    other = _snapshot(tmp_path / "c", workloads.generate(workload, 6, tmp_path / "c"))
    assert other[0] != a[0]
    assert sorted(other[1]) == sorted(a[1])


def test_sign_change_of_basis_keeps_results_and_cost(at_root):
    import random

    from homleib.actions import MutualActions
    from homleib.fields import Field
    from homleib.tensorprod import build_tensor

    F = Field()
    base = workloads.dsum(workloads.sl2(F, 2), workloads.square(F, 2, 1))
    flipped = workloads.resign(base, random.Random(3))
    assert flipped != base and flipped.validate().valid
    seen = []
    for alg in (base, flipped):
        counter = tracer.CountRecorder()
        counter.install()
        try:
            t = build_tensor(MutualActions.adjoint(alg))
        finally:
            counter.restore()
        seen.append((t.algebra.dim, t.presentation.relations.dim, counter.counts))
    (dim_a, rank_a, a), (dim_b, rank_b, b) = seen
    assert (dim_a, rank_a) == (dim_b, rank_b)
    assert a["linalg.acc.attempts"] == b["linalg.acc.attempts"]
    assert a["tensorprod.relations.zero"] == b["tensorprod.relations.zero"]
    assert abs(a["fields.ops"] - b["fields.ops"]) <= 0.02 * a["fields.ops"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_matches_recorded_digests(at_root, workload):
    cli, jobs, setup = run.set_up(workload, workloads.DEFAULT_SEED, WALL)
    tally = run.Tally(run.load_digests(workload, workloads.DEFAULT_SEED))
    run.run_pass(cli, jobs, 0, tally, WALL)
    assert tally.failures == []
    assert tally.attempted == len(jobs)
    assert {j.field for j in jobs} == {"Q", "Fp"}
    metrics, _, n = run.end_to_end(tally, setup, WALL)
    assert n == len(jobs)
    assert list(metrics) == list(run.metric_units("end_to_end"))


def test_tally_catches_changed_output(at_root):
    cli, jobs, _ = run.set_up("small-docs", workloads.DEFAULT_SEED, WALL)
    job = next(j for j in jobs if j.expect == 0)
    code, out, err = run.call_cli(cli, job)
    recorded = run.Tally(run.load_digests("small-docs", workloads.DEFAULT_SEED))
    recorded.add(job, 0, STRETCH, code, out + " ", err)
    assert recorded.failures == [(job.id, 0, "stdout differs from the recorded digest")]
    unrecorded = run.Tally(None)
    unrecorded.add(job, 0, STRETCH, code, out, err)
    unrecorded.add(job, 1, STRETCH, code, out + " ", err)
    assert unrecorded.failures == [(job.id, 1, "stdout differs from the job's first run")]
    assert unrecorded.passed[job.field] == 1 and unrecorded.attempted == 2


def test_tally_catches_disagreeing_fields():
    q = workloads.Job("x info [Q]", "x info", "Q", "q.json", ("info", "q.json"), 0)
    fp = workloads.Job("x info [Fp]", "x info", "Fp", "p.json", ("info", "p.json"), 0)
    tally = run.Tally(None)
    tally.add(q, 0, STRETCH, 0, json.dumps({"dim": 3, "field": "Q"}), "")
    tally.add(fp, 0, STRETCH, 0, json.dumps({"dim": 2, "field": {"Fp": 1000003}}), "")
    tally.check_pairs()
    assert {f[0] for f in tally.failures} == {q.id, fp.id}
    tally.add(q, 1, STRETCH, 0, json.dumps({"dim": 3, "field": "Q"}), "")
    assert tally.failures[-1] == (q.id, 1, "Q and GF(p) reports differ")
    assert tally.passed == {"Q": 0, "Fp": 0}


def test_check_job_rejects_wrong_outputs():
    job = workloads.Job("x six-term [Q]", "x six-term", "Q", "x.json", ("six-term", "x.json"), 0)
    good = json.dumps({"report": {"ok": True, "checks": [{"name": "a", "ok": True}]}})
    assert checks.check_job(job, 0, good, "") is None
    assert checks.check_job(job, 1, good, "") == "exit 1, expected 0"
    broken = json.dumps({"report": {"ok": True, "checks": [{"name": "a", "ok": False}]}})
    assert "ok = false" in checks.check_job(job, 0, broken, "")
    usage = workloads.Job("y info [Q]", "y info", "Q", "y.json", ("info", "y.json"), 2)
    assert checks.check_job(usage, 2, "", "error: bad scalar") is None
    assert checks.check_job(usage, 2, "{}", "error: bad scalar") is not None


def test_field_agreement_ignores_scalars_only():
    q = json.dumps({"dim": 3, "field": "Q", "algebra": {"alpha": [["1/2"]]}})
    fp = json.dumps({"dim": 3, "field": {"Fp": 1000003}, "algebra": {"alpha": [["500002"]]}})
    assert checks.field_free_digest(q) == checks.field_free_digest(fp)
    assert checks.field_free_digest(q) != checks.field_free_digest(
        json.dumps({"dim": 2, "field": "Q"}))


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40)
    assert sum(x > value for x in range(40)) == 10
    assert pct == 75.0


def test_pass_median_takes_a_typical_run_of_each_pass():
    # two jobs of 1 s and 3 s, two passes: a pooled median would average the
    # slowest 1 s run with the fastest 3 s run
    runs = [(0, 1.0), (0, 3.0), (1, 1.2), (1, 2.6)]
    assert run.pass_median(runs) == statistics.median([2.0, 1.9])


def test_reference_seconds_scale_by_the_mean_speed_during_the_run():
    clock = speed.Sampler()
    clock.times = [0.1 * i for i in range(20)]
    clock.speeds = [1.0] * 10 + [0.5] * 10
    # half the run at full speed, half at half speed: 3/4 of its wall time
    assert clock.reference_seconds((0.55, 1.35, 0.8)) == pytest.approx(0.8 * 0.75)
    # a run shorter than the interval rests on the samples around it
    assert clock.speed(0.31, 0.32) == 1.0
    assert clock.speed(1.91, 1.92) == 0.5
    assert clock.speed(0.0, 0.0) == 1.0


def test_sampler_samples_during_work_and_leaves_its_time_out():
    with speed.Sampler() as clock:
        mark = clock.mark()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
        start, end, own = clock.since(mark)
    assert len(clock.times) >= 8
    assert own == pytest.approx(end - start - clock.busy)
    assert 0 < clock.busy < end - start
    assert clock.reference_seconds((start, end, own)) > 0


def test_self_times_of_a_nested_call_add_up():
    rec = tracer.SpanRecorder()

    def leaf():
        time.sleep(0.002)

    inner = rec._wrapper(lambda: (time.sleep(0.003), leaf_a()), "b.inner", "b", False)
    leaf_a = rec._wrapper(leaf, "a.leaf", "a", False)
    same_layer = rec._wrapper(leaf, "a.same", "a", False)
    outer = rec._wrapper(lambda: (time.sleep(0.001), inner(), same_layer()), "a.outer", "a", False)
    rec.layer_of.update({"a.outer": "a", "b.inner": "b", "a.leaf": "a", "a.same": "a"})
    rec.run_job(0, outer)
    by_layer, by_name, inclusive, roots = rec.self_times()
    assert sum(by_layer.values()) == roots
    names = [s[0] for s in rec.spans]
    # a call inside its own layer opens no span
    assert names == [tracer.ROOT, "a.outer", "b.inner", "a.leaf"]
    assert by_name["b.inner"] == inclusive["b.inner"] - inclusive["a.leaf"]
    assert by_layer["b"] >= 3_000_000 and by_layer["a"] >= 5_000_000


def test_traced_small_docs_split_and_repeatable_counts(at_root):
    counts = []
    for _ in range(2):
        cli, jobs, _ = run.set_up("small-docs", workloads.DEFAULT_SEED, WALL)
        spans, counter = tracer.SpanRecorder(), tracer.CountRecorder()
        tally = run.Tally(None)
        spans.install()
        try:
            run.run_pass(cli, jobs, 0, tally, WALL, spans)
        finally:
            spans.restore()
        counter.install()
        try:
            run.run_pass(cli, jobs, 1, tally, WALL)
        finally:
            counter.restore()
        assert tally.failures == []
        metrics, _, _ = run.per_layer(spans, counter.counts, 1.0, 1.0)
        for name in ("tensorprod.self_s", "tensorprod.relations.generated",
                     "tensorprod.build.calls", "homology.self_s", "homology.boundary_columns"):
            assert metrics[name] == 0, name
        assert metrics["documents.self_s"] > 0 and metrics["cli.self_s"] > 0
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")
                       and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-docs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
