"""Benchmark of the homleib command line, run in-process.

Each workload is a job list generated from the seed: documents of twisted
stock algebras and their direct sums, each written over Q and over
GF(1000003) with the same integer structure constants, and the subcommands
to run on them.  One client runs the jobs one after another in this process
(a closed loop, no threads), calling ``homleib.cli.main([..., "--json"])``
with stdout captured.  It makes whole passes over the job list, in the same
order; their number is ``--seconds`` over the workload's pass time at the
seed commit (``workloads.PASS_SECONDS``), at least one, so a run measures
about ``--seconds`` and every run of a workload has the same runs.
Every run is checked as soon as it finishes: exit code, certificates, the
sha256 of stdout against the job's first run and, for the default seed,
against ``perfbench/digests.json``; after the first pass, the Q and GF(p)
runs of each instance must agree.  Throughput is passed runs over the time
spent in the runs; a p50 is the median over the passes of each pass's
median latency, and the tail is taken over every run.

Times are reference seconds (see ``speed.py``): the host's virtual CPUs
change speed by up to 1.8x within seconds, so a timer samples a fixed
reference kernel every 25 ms while the jobs run, and each job's wall time
(less the sampling) is scaled by the host's mean speed during the job.
``setup_s`` is measured the same way.  The raw wall time of the runs and
the host's mean speed are printed too.  With ``--trace 1`` times are wall
seconds, uncorrected.

Run one workload, tracing off (prints every end-to-end metric by name with
its unit; the last line is the JSON result):

    python3 perfbench/run.py --workload tensor-square --seed 1 --seconds 15 --trace 0

Traced run (per-layer metrics, the self-time table by layer, spans written
to .perfbench/trace/): it runs one pass untraced, one pass with every
public homleib function wrapped in spans, and one pass counting calls and
scalar operations:

    python3 perfbench/run.py --workload homology-ladder --trace 1

Compare a parent commit with a change: check both out side by side, then
run the same workload and seed in alternating pairs, switching which side
goes first, ten pairs or more, and compare medians and quartiles:

    for i in 1 2 3 4 5 6 7 8 9 10; do
      first=parent; second=change
      if [ $((i % 2)) = 0 ]; then first=change; second=parent; fi
      (cd $first && python3 perfbench/run.py --workload certificates --seed $i) | tail -1
      (cd $second && python3 perfbench/run.py --workload certificates --seed $i) | tail -1
    done

Workloads: tensor-square, homology-ladder, certificates, small-docs; see
perfbench/METRICS.md for their commands and for what each metric measures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench")
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 5

SELF_TIMED = ("linalg", "algebras", "actions", "tensorprod", "homology",
              "extensions", "homassoc", "documents", "cli")


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics, in the order
    BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class LibraryMissing(Exception):
    pass


class Tally:
    """Timing and outcome of every run.  Each run is checked when it
    finishes, and of its output only the first run's digests are kept per
    job, so the benchmark's own memory hardly grows with the number of runs."""

    def __init__(self, recorded):
        self.recorded = recorded     # job id -> sha256 of stdout, or None
        self.first = {}              # job -> (stdout digest, field-free digest)
        self.disagree = set()        # pairs whose Q and GF(p) reports differ
        self.stretches = {field: [] for field in workloads.FIELDS}   # (pass, clock stretch)
        self.passed = dict.fromkeys(workloads.FIELDS, 0)
        self.failures = []           # (job id, pass, reason)

    def add(self, job, pass_no, stretch, code, stdout, stderr):
        self.stretches[job.field].append((pass_no, stretch))
        reason = checks.check_job(job, code, stdout, stderr)
        sha = checks.digest(stdout)
        if job not in self.first:
            self.first[job] = (sha, None if reason else checks.field_free_digest(stdout))
        if reason is None and self.recorded is not None and self.recorded.get(job.id) != sha:
            reason = "stdout differs from the recorded digest"
        if reason is None and sha != self.first[job][0]:
            reason = "stdout differs from the job's first run"
        if reason is None and job.pair in self.disagree:
            reason = "Q and GF(p) reports differ"
        if reason is None:
            self.passed[job.field] += 1
        else:
            self.failures.append((job.id, pass_no, reason))

    def check_pairs(self):
        """After the first pass, which ran every job once: the Q and GF(p)
        runs of each instance must agree.  Later runs repeat the first byte
        for byte, and fail too if their pair disagreed."""
        keys = {}
        for job, (_, key) in self.first.items():
            keys.setdefault(job.pair, {})[job.field] = (job, key)
        for pair, sides in keys.items():
            found = [key for _, key in sides.values()]
            if None in found or len(set(found)) == 1:
                continue
            self.disagree.add(pair)
            for job, _ in sides.values():
                self.passed[job.field] -= 1
                self.failures.append((job.id, 0, "Q and GF(p) reports differ"))

    @property
    def attempted(self):
        return sum(len(s) for s in self.stretches.values())


def import_homleib():
    """(Re-)import homleib from this checkout's src/ and return its cli."""
    if not (SRC / "homleib" / "__init__.py").is_file():
        raise LibraryMissing(f"no homleib sources under {SRC}")
    for name in [n for n in sys.modules if n == "homleib" or n.startswith("homleib.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("homleib.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise LibraryMissing(f"homleib was imported from {cli.__file__}, not from {SRC}")
    return cli


def call_cli(cli, job):
    """Exit code, stdout and stderr of ``homleib <argv> --json``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*job.argv, "--json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def warm_up(cli, jobs):
    """Run each subcommand once on its smallest GF(p) document."""
    smallest = {}
    for job in jobs:
        if job.field == "Fp":
            size = Path(job.doc).stat().st_size
            key = job.argv[0]
            if key not in smallest or size < smallest[key][0]:
                smallest[key] = (size, job)
    for _, job in sorted(smallest.values(), key=lambda s: s[1].id):
        call_cli(cli, job)


def set_up(workload, seed, clock):
    """Import, generate and write the documents, warm up; repeated.  Returns
    the clock stretch of each repetition, whose median is ``setup_s``."""
    stretches = []
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        cli = import_homleib()
        jobs = workloads.generate(workload, seed, WORK / "docs" / workload)
        warm_up(cli, jobs)
        stretches.append(clock.since(mark))
    return cli, jobs, stretches


def run_pass(cli, jobs, pass_no, tally, clock, recorder=None):
    """Run every job once, in order, checking each run; return the wall time
    spent in the runs, which leaves out the checks between them."""
    spent = 0.0
    for i, job in enumerate(jobs):
        mark = clock.mark()
        if recorder is None:
            code, out, err = call_cli(cli, job)
        else:
            code, out, err = recorder.run_job(i, lambda: call_cli(cli, job))
        stretch = clock.since(mark)
        spent += stretch[2]
        tally.add(job, pass_no, stretch, code, out, err)
    if pass_no == 0:
        tally.check_pairs()
    return spent


def load_digests(workload, seed):
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})


def tail(latencies):
    """Latency at the highest percentile with ten samples beyond it, that
    percentile, and the sample count."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def pass_median(runs):
    """Median latency of each pass, then the median over the passes.  Every
    pass runs each job once, so a median pooled over whole passes falls
    between two jobs, on the slowest run of one and the fastest of the
    other; the median of a pass is a typical run."""
    passes = {}
    for pass_no, seconds in runs:
        passes.setdefault(pass_no, []).append(seconds)
    return statistics.median(statistics.median(p) for p in passes.values())


def end_to_end(tally, setup, clock):
    """The end-to-end metrics, in BENCHMARK.json's order, and the tail's
    percentile and sample count, from the clock stretches of the set-ups and
    of the runs.  A rate is passed runs over the time spent in the runs of
    that field, or of both."""
    q, fp = ([(p, clock.reference_seconds(s)) for p, s in tally.stretches[f]]
             for f in ("Q", "Fp"))
    every = q + fp
    tail_s, pct, n = tail([s for _, s in every])
    metrics = {
        "setup_s": statistics.median(clock.reference_seconds(s) for s in setup),
        "jobs_per_s": (tally.passed["Q"] + tally.passed["Fp"]) / sum(s for _, s in every),
        "job_p50_s": pass_median(every),
        "job_tail_s": tail_s,
        "q_jobs_per_s": tally.passed["Q"] / sum(s for _, s in q),
        "fp_jobs_per_s": tally.passed["Fp"] / sum(s for _, s in fp),
        "q_job_p50_s": pass_median(q),
        "fp_job_p50_s": pass_median(fp),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, pct, n


def per_layer(span_rec, counts, wall_plain, wall_traced):
    by_layer, by_name, inclusive, roots = span_rec.self_times()
    if sum(by_layer.values()) != roots:
        raise RuntimeError("layer self times do not add up to the job spans")
    timed = {f"{layer}.self_s": by_layer.get(layer, 0) / 1e9 for layer in SELF_TIMED}
    timed["algebras.validate.self_s"] = (by_name["algebras.HomLeibnizAlgebra.validate"]
                                         + by_name["algebras.validate_algebra"]) / 1e9
    timed["tensorprod.relgen_s"] = inclusive["tensorprod.relation_vectors"] / 1e9
    timed["trace.overhead_ratio"] = wall_traced / wall_plain
    attempts = counts["linalg.acc.attempts"]
    timed["linalg.acc.kept_ratio"] = counts["linalg.acc.kept"] / attempts if attempts else 0.0
    metrics = {name: timed.get(name, counts[name]) for name in metric_units("per_layer")}
    return metrics, tracer.layer_table(by_layer, roots), roots


def machine_stamp():
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_metrics(metrics, units):
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {units[name]}")


def measure(args, stamp):
    print(f"homleib benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    tally = Tally(load_digests(args.workload, args.seed))
    if not args.trace:
        passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
        with speed.Sampler() as clock:
            cli, jobs, setup = set_up(args.workload, args.seed, clock)
            gc.collect()
            spent = sum(run_pass(cli, jobs, p, tally, clock) for p in range(passes))
            time.sleep(speed.NEAREST * speed.INTERVAL)   # samples after the last run
        metrics, pct, n = end_to_end(tally, setup, clock)
        print(f"end-to-end metrics, tracing off ({tally.attempted} runs of {len(jobs)} jobs "
              f"in {passes} passes, {spent:.2f} s of wall time in the runs, host speed "
              f"{statistics.fmean(clock.speeds):.3f} of the reference on average):")
        print_metrics(metrics | {"failed_ratio": len(tally.failures) / tally.attempted},
                      metric_units("end_to_end") | {"failed_ratio": "ratio"})
        print(f"  job_tail_s is the p{pct:.1f} of {n} run latencies")
    else:
        clock = speed.WallClock()
        cli, jobs, _ = set_up(args.workload, args.seed, clock)
        gc.collect()
        wall_plain = run_pass(cli, jobs, 0, tally, clock)
        spans = tracer.SpanRecorder()
        spans.install()
        try:
            gc.collect()
            wall_traced = run_pass(cli, jobs, 1, tally, clock, spans)
        finally:
            spans.restore()
        counter = tracer.CountRecorder()
        counter.install()
        try:
            run_pass(cli, jobs, 2, tally, clock)
        finally:
            counter.restore()
        metrics, table, roots = per_layer(spans, counter.counts, wall_plain, wall_traced)
        print(f"self time by layer, traced pass of {len(jobs)} jobs "
              f"(fields are not wrapped: scalar time is in the caller's row):")
        for layer, secs, share in table:
            print(f"  {layer:<11} {secs:>10.4f} s  {100 * share:6.2f} %")
        print(f"  {'total':<11} {sum(s for _, s, _ in table):>10.4f} s  = job spans "
              f"{roots / 1e9:.4f} s")
        print("per-layer metrics (counts are computed, CPU-only, from a separate "
              "count pass):")
        print_metrics(metrics, metric_units("per_layer"))
        trace_file = WORK / "trace" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(
            dict(spans.dump(), jobs=[j.id for j in jobs]), separators=(",", ":")),
            encoding="utf-8")
        print(f"spans written to {trace_file}")
    for job_id, pass_no, reason in tally.failures:
        print(f"FAILED {job_id} (pass {pass_no}): {reason}")
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="tensor-square")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured reference seconds at the seed commit; sets the number "
                             "of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        tally, metrics = measure(args, machine_stamp())
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
