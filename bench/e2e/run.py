#!/usr/bin/env python3
"""spooftrack end-to-end benchmark (see bench/e2e/README.md).

Every workload:
    python3 bench/e2e/run.py [--seed N] [--seconds S] [--report PATH]
runs each workload untraced, then traced, prints one
`workload metric value unit` line per metric, writes a JSON report
(default .bench_build/e2e/report.json) and exits 1 when an output check
fails.

One workload:
    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
runs for about S seconds. Its last stdout line is one JSON object
{correct, attempted, failed, metrics}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

The first call builds the library twice from ../../src (SPOOFTRACK_OBS=OFF
for end-to-end numbers, ON for the traced run) under .bench_build/e2e.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
WORKLOADS = ("paper", "internet", "attack", "recover")
# One worker count for every pool: campaign chains, engine, measurement
# driver, greedy fan-out (exported as SPOOFTRACK_THREADS).
WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))
# A run, builds excluded, ends within this even if a repetition hangs.
RUN_TIMEOUT_S = 150
PLAN_CONFIGS = 705  # 64 location + 294 prepend + 347 poison
MIN_COVERAGE = 0.95

# Only attack serves attribution queries: ATTACK_PROCESSES repetitions, each
# a set-up and then a closed loop. Together they serve ATTACK_QUERY_RATE
# queries per second of --seconds (200 in 25 s, the fewest that leave ten
# beyond the p95), a fixed count, so that every statistic and the hit
# fraction are over the same queries in every run with that seed.
ATTACK_PROCESSES = 4
ATTACK_QUERY_RATE = 8
# The repetitions of one run, repeated in this order until the time is up.
# paper adds one 1-worker repetition after every two at W workers; a traced
# run alternates traced and untraced ones, for the tracing overhead.
CYCLE = {"untraced": ("main",), "paper": ("main", "main", "serial"),
         "traced": ("traced", "main")}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------------


def build(obs):
    tree = BUILD_DIR / ("obs-on" if obs else "obs-off")
    tree.mkdir(parents=True, exist_ok=True)
    binary = tree / "spooftrack_e2e"
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(tree / "build.log", "w") as out:
            steps = []
            if not (tree / "CMakeCache.txt").exists():
                steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                              "-DSPOOFTRACK_OBS=" + ("ON" if obs else "OFF")])
            steps.append(["cmake", "--build", str(tree), "-j", str(WORKERS)])
            for step in steps:
                if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                    out.flush()
                    tail = (tree / "build.log").read_text().splitlines()[-20:]
                    log("\n".join(tail))
                    sys.exit("build failed: see " + str(tree / "build.log"))
    return binary


# --- statistics ---------------------------------------------------------------


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values, unit, pct=None, runs=None):
    """Median (or nearest-rank percentile `pct`) of raw samples, with the
    sample count. The quartiles are taken over `runs`, the statistic per
    repetition, when given, so that they measure run-to-run spread."""
    values = [float(v) for v in values]
    runs = values if runs is None else [float(v) for v in runs]
    q1, _, q3 = (statistics.quantiles(runs, n=4) if len(runs) > 1
                 else (runs[0],) * 3)
    value = statistics.median(values) if pct is None else nearest_rank(values, pct)
    return {"value": value, "unit": unit, "stat": "p%d" % pct if pct else "median",
            "q1": q1, "q3": q3, "n": len(values), "samples": values}


# --- one repetition -------------------------------------------------------------


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def repetition(binary, workload, seed, workers, scratch, timeout, *,
               reference=False, queries=0, query_offset=0, trace=None):
    """Runs one process, returns its JSON record plus wall time and the
    artifact digest. The scratch directory is removed afterwards."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--workers=%d" % workers, "--dir=" + str(scratch),
           "--queries=%d" % queries, "--query-offset=%d" % query_offset]
    if reference:
        cmd.append("--reference")
    if trace:
        cmd.append("--trace=" + str(trace))
    env = dict(os.environ, SPOOFTRACK_THREADS=str(workers))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired:
        stdout, stderr, code = "", "timed out", -1
    wall = time.perf_counter() - start
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        # Zero timings keep the statistics computable; the failure marks
        # the run incorrect.
        record = dict.fromkeys(("setup_s", "campaign_s", "analysis_s",
                                "resume_s", "peak_rss_mb"), 0.0)
        record.update(attempted=1, failed=1, query_ms=[], query_hit=[], failures=[
            "no result (exit %d): %s" % (code, stderr.strip()[-500:])])
    record["wall_s"] = wall
    record["exit_code"] = code
    artifact = scratch / "campaign.artifact"
    record["digest"] = sha256(artifact) if artifact.exists() else None
    shutil.rmtree(scratch, ignore_errors=True)
    return record


# --- one workload run ------------------------------------------------------------


class Run:
    """The repetitions of one workload for about `seconds` seconds."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.off = build(False)
        self.on = build(True) if trace else None
        self.scratch = BUILD_DIR / "runs" / ("%s-%d-%d" % (workload, seed, os.getpid()))
        self.main = []       # untraced repetitions at WORKERS
        self.traced = []     # traced repetitions at WORKERS (trace 1)
        self.serial = []     # paper at one worker
        self.reference = []  # recover: uninterrupted journaled run
        self.queries_done = 0
        self.deadline = None

    def spawn(self, kind):
        traced = kind == "traced"
        binary = self.on if traced else self.off
        workers = 1 if kind == "serial" else WORKERS
        options = {"reference": True}
        if kind != "reference":
            options = {"queries": self.queries_per_rep(),
                       "query_offset": self.queries_done}
            self.queries_done += options["queries"]
        trace_path = None
        if traced:
            trace_path = BUILD_DIR / "traces" / ("%s-%d-%d.json" % (
                self.workload, self.seed, len(self.traced)))
            trace_path.parent.mkdir(parents=True, exist_ok=True)
        timeout = max(1.0, self.deadline - time.perf_counter())
        record = repetition(binary, self.workload, self.seed, workers,
                            self.scratch, timeout, trace=trace_path, **options)
        record["trace_file"] = str(trace_path.relative_to(ROOT)) if trace_path else None
        getattr(self, kind).append(record)
        return record

    def queries_per_rep(self):
        if self.workload != "attack":
            return 0
        return max(1, round(ATTACK_QUERY_RATE * self.seconds / ATTACK_PROCESSES))

    def execute(self):
        start = time.perf_counter()
        self.deadline = start + RUN_TIMEOUT_S
        # The reference the resume check needs.
        if self.workload == "recover":
            self.spawn("reference")
        cycle = CYCLE["traced" if self.trace else
                      "paper" if self.workload == "paper" else "untraced"]
        last = {}
        # Repetitions in cycle order, at least one cycle and two repetitions,
        # until the next would overrun the run by more than half its length,
        # so that a run ends at --seconds on average (internet's 9 s
        # repetitions get three in 25 s, not two); attack has a fixed count.
        done = 0
        while time.perf_counter() < self.deadline:
            kind = cycle[done % len(cycle)]
            if self.workload == "attack":
                if done == ATTACK_PROCESSES:
                    break
            elif done >= max(2, len(cycle)) and (
                    time.perf_counter() - start + last.get(kind, 0.0) / 2 > self.seconds):
                break
            last[kind] = self.spawn(kind)["wall_s"]
            done += 1
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- checks -----------------------------------------------------------

    def checks(self):
        """Run-level output checks: name -> passed."""
        timed = self.main + self.traced + self.serial
        digests = {r.get("digest") for r in timed}
        checks = {
            "processes_succeeded": all(r.get("exit_code") == 0 and r.get("failed") == 0
                                       for r in self.everyone()),
            "plan_has_705_configs": all(r.get("configs") == PLAN_CONFIGS
                                        for r in self.everyone()),
            # Same artifact across repetitions, worker counts and OBS builds.
            "artifact_digest_stable": len(digests) == 1 and None not in digests,
        }
        if self.reference:
            checks["resume_matches_uninterrupted"] = (
                checks["artifact_digest_stable"]
                and self.reference[0].get("digest") in digests)
        checks["span_coverage"] = all(
            coverage(r)["covered_pct"] >= 100 * MIN_COVERAGE for r in timed)
        return checks

    # -- metrics ------------------------------------------------------------

    def queries(self, unit, pct):
        """Nearest-rank percentile over every query's raw latency; the
        quartiles are over each repetition's own percentile."""
        per_run = [r["query_ms"] for r in self.main if r.get("query_ms")]
        return summary([q for run in per_run for q in run], unit, pct,
                       runs=[nearest_rank(run, pct) for run in per_run])

    def end_to_end(self, spec):
        out = {}
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            if name == "latency_ms" and self.workload == "attack":
                out[name] = self.queries(unit, 50)
            elif name == "latency_ms":
                # The workload's operation: the campaign, plus its analysis
                # on paper and internet (recover runs none).
                out[name] = summary([1e3 * (r["campaign_s"] + r["analysis_s"])
                                     for r in self.main], unit)
            else:
                out[name] = summary([r[name] for r in self.main], unit)
        return out

    def extras(self):
        """Reported next to the end-to-end metrics but not gated: they
        apply to one workload only, or are counts and ratios."""
        reps = self.main
        out = {}
        if self.workload in ("paper", "internet"):
            out["campaign_s"] = summary([r["campaign_s"] for r in reps], "s")
            out["analysis_s"] = summary([r["analysis_s"] for r in reps], "s")
        if self.serial:
            serial = summary([r["campaign_s"] for r in self.serial], "s")
            out["campaign_serial_s"] = serial
            speedup = serial["value"] / out["campaign_s"]["value"]
            out["parallel_speedup"] = {
                "value": speedup, "unit": "ratio",
                "base": "campaign_serial_s / campaign_s"}
            out["parallel_efficiency"] = {
                "value": speedup / WORKERS, "unit": "ratio",
                "base": "campaign_serial_s / (%d * campaign_s)" % WORKERS}
        if self.workload == "recover":
            out["resume_s"] = summary([r["resume_s"] for r in reps], "s")
        if self.workload == "attack":
            queries = [q for r in reps for q in r["query_ms"]]
            hits = sum(h for r in reps for h in r["query_hit"])
            # p95 needs at least ten samples beyond it.
            if len(queries) >= 200:
                out["attack_p95_ms"] = self.queries("ms", 95)
            out["attack_queries"] = {"value": len(queries), "unit": "count"}
            out["attack_hit_frac"] = {
                "value": hits / max(1, len(queries)), "unit": "ratio",
                "base": "%d of %d queries" % (hits, len(queries))}
        attempted, failed = self.totals()
        out["failed_frac"] = {"value": failed / attempted, "unit": "ratio",
                              "base": "%d of %d operations" % (failed, attempted)}
        return out

    def per_layer(self, spec):
        layers = [layer_metrics(r) for r in self.traced]
        # Traced (OBS=ON) against untraced repetitions of the same run.
        overheads = {
            "trace_overhead.campaign_pct": overhead(
                [r["campaign_s"] for r in self.traced],
                [r["campaign_s"] for r in self.main]),
            "trace_overhead.attack_pct": overhead(
                [q for r in self.traced for q in r.get("query_ms", [])],
                [q for r in self.main for q in r.get("query_ms", [])]),
        }
        out = {}
        for metric in spec["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            out[name] = ({"value": overheads[name], "unit": unit} if name in overheads
                         else summary([layer[name] for layer in layers], unit))
        return out

    def everyone(self):
        return self.main + self.traced + self.serial + self.reference

    def totals(self):
        checks = self.checks()
        attempted = sum(r.get("attempted", 0) for r in self.everyone()) + len(checks)
        failed = (sum(r.get("failed", 0) for r in self.everyone())
                  + sum(not ok for ok in checks.values()))
        return attempted, failed

    def log_failures(self):
        for name, ok in self.checks().items():
            if not ok:
                log("CHECK FAILED: %s %s" % (self.workload, name))
        for r in self.everyone():
            for failure in r.get("failures", []):
                log("FAILED: %s %s" % (self.workload, failure))


def overhead(traced, untraced):
    if not traced or not untraced:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)


def coverage(record):
    """Share of the process's wall time (as run.py saw it, exec and exit
    included) covered by top-level spans, and where the rest went."""
    c = record.get("coverage", {})
    wall_ms = record["wall_s"] * 1e3
    return {
        "covered_pct": 100.0 * c.get("covered_ms", 0.0) / wall_ms,
        "outside_main_ms": wall_ms - c.get("wall_ms", 0.0),
        "before_first_span_ms": c.get("before_ms", 0.0),
        "between_spans_ms": c.get("between_ms", 0.0),
        "after_last_span_ms": c.get("after_ms", 0.0),
    }


def layer_metrics(r):
    """Per-layer metrics of one traced repetition: bench spans around the
    public calls, plus count and sum of the library's obs histograms."""
    obs, spans = r.get("obs", {}), r.get("spans", {})
    queries = max(1, len(r.get("query_ms", [])))

    def ns_ms(name):
        return obs.get(name, {}).get("sum", 0) / 1e6

    def count(name):
        return obs.get(name, {}).get("value", 0)

    def span_ms(name):
        return spans.get(name, {}).get("total_ms", 0.0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    hits = count("engine.arena.hits")
    busy = sum(ns_ms("pipeline.%s_ns" % s) for s in ("produce", "work", "commit"))
    deploy_ms = span_ms("deploy") + span_ms("deploy.crash")
    return {
        "testbed.build_ms": span_ms("testbed.build"),
        "plan.generate_ms": span_ms("plan.generate"),
        "engine.propagate_ms": ns_ms("engine.propagate_ns"),
        "engine.propagations": count("engine.propagations"),
        "engine.warm_runs": count("engine.warm_runs"),
        "engine.routes_staged": count("engine.routes_staged"),
        "engine.arena_hit_ratio": ratio(hits, hits + count("engine.arena.interned")),
        "campaign.order_ms": ns_ms("campaign.order_ns"),
        "campaign.chains": count("campaign.chains"),
        "deploy.sink_ms": ns_ms("deploy.config_pipeline_ns"),
        "measure.driver_ms": ns_ms("measure.driver.config_ns"),
        "measure.repair_ms": ns_ms("measure.repair.batch_ns"),
        "measure.inference_ms": ns_ms("measure.inference.infer_ns"),
        "measure.feed_ms": ns_ms("measure.feed.collect_ns"),
        "measure.traceroutes": count("measure.traceroute.runs"),
        "measure.incomplete_ratio": ratio(count("measure.traceroute.incomplete"),
                                          count("measure.traceroute.runs")),
        "measure.repair_substitution_ratio": ratio(count("measure.repair.substitutions"),
                                                   count("measure.repair.traces")),
        "pipeline.produce_ms": ns_ms("pipeline.produce_ns"),
        "pipeline.work_ms": ns_ms("pipeline.work_ns"),
        "pipeline.commit_ms": ns_ms("pipeline.commit_ns"),
        "pipeline.stalls": count("pipeline.stalls"),
        "pipeline.idle_ms": (max(0.0, r["workers"] * deploy_ms - busy)
                             if count("pipeline.runs") else 0.0),
        "artifact.save_ms": span_ms("artifact.save"),
        "artifact.load_ms": span_ms("artifact.load"),
        "artifact.bytes": r.get("artifact_bytes", 0),
        "analysis.bitplane_ms": span_ms("analysis.bitplane"),
        "analysis.cluster_ms": span_ms("analysis.cluster"),
        "analysis.greedy_ms": span_ms("analysis.greedy"),
        "analysis.schedule_ms": ns_ms("analysis.schedule_ns"),
        "analysis.refine_ms": ns_ms("analysis.refine_ns"),
        "analysis.gather_ms": ns_ms("analysis.kernel.gather_ns"),
        # Per query. Capture interleaves delivery and honeypot ingest per
        # configuration; the library's own deliver timer splits the two.
        "attack.traffic_ms": ns_ms("traffic.deliver_ns") / queries,
        "attack.honeypot_ms": (span_ms("attack.capture")
                               - ns_ms("traffic.deliver_ns")) / queries,
        "attack.mixture_ms": span_ms("attack.mixture") / queries,
        "traffic.spoofed_packets": count("traffic.spoofed_packets") / queries,
        "journal.append_ms": ns_ms("journal.append_ns"),
        "journal.records": count("journal.records"),
        "journal.bytes": count("journal.bytes"),
        "journal.fsyncs": count("journal.fsyncs"),
        "journal.rotations": count("journal.rotations"),
        "journal.recovered_records": count("journal.recovered_records"),
        "deploy.resume.skipped_configs": count("deploy.resume.skipped_configs"),
        "trace.coverage_pct": coverage(r)["covered_pct"],
    }


# --- output ------------------------------------------------------------------


def print_lines(workload, metrics):
    for name, m in metrics.items():
        extra = ""
        if "q1" in m:
            extra = "  n=%d q1=%.6g q3=%.6g" % (m["n"], m["q1"], m["q3"])
        if "base" in m:
            extra += "  (%s)" % m["base"]
        print("%s %s %.6g %s%s" % (workload, name, m["value"], m["unit"], extra), flush=True)


def contract(args, spec):
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    run.execute()
    run.log_failures()
    metrics = run.per_layer(spec) if args.trace else run.end_to_end(spec)
    print_lines(args.workload, metrics)
    if not args.trace:
        print_lines(args.workload, run.extras())
    attempted, failed = run.totals()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def host():
    compiler = "unknown"
    cache = BUILD_DIR / "obs-off" / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                compiler = subprocess.run([path, "--version"], capture_output=True,
                                          text=True).stdout.splitlines()[0]
    return {"hardware_concurrency": os.cpu_count(), "workers": WORKERS,
            "compiler": compiler, "build_type": "RelWithDebInfo",
            "machine": platform.machine()}


def everything(args, spec):
    workloads = {}
    ok = True
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            log("[e2e] %s, %s" % (workload, "traced" if trace else "untraced"))
            run = Run(workload, args.seed, args.seconds, trace)
            run.execute()
            run.log_failures()
            ok = ok and run.totals()[1] == 0
            entry.setdefault("checks", {}).update(
                {("traced." if trace else "") + k: v for k, v in run.checks().items()})
            if trace:
                entry["per_layer"] = run.per_layer(spec)
                entry["coverage"] = [coverage(r) for r in run.traced]
                entry["traces"] = [r["trace_file"] for r in run.traced]
            else:
                entry["end_to_end"] = run.end_to_end(spec)
                entry["extra"] = run.extras()
                print_lines(workload, entry["end_to_end"])
                print_lines(workload, entry["extra"])
        print_lines(workload, entry["per_layer"])
        for name, passed in entry["checks"].items():
            print("%s check.%s %s" % (workload, name, "pass" if passed else "FAIL"))
        workloads[workload] = entry
    report = {"schema": "spooftrack.e2e.v1", "seed": args.seed,
              "seconds": args.seconds, "host": host(), "claim": None,
              "workloads": workloads}
    path = Path(args.report)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report) + "\n")
    log("[e2e] wrote %s" % path)
    return 0 if ok else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=str(BUILD_DIR / "report.json"))
    args = parser.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.exit("spooftrack sources not found under %s: run from a full checkout" % ROOT)
    return contract(args, spec) if args.workload else everything(args, spec)


if __name__ == "__main__":
    sys.exit(main())
