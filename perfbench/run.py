#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corun-l3 --seed 1 --seconds 38 --trace 0

Builds perfbench/bench.exe from source with dune, then starts one fresh
bench.exe process per repetition for about --seconds seconds, checks the
simulated outputs, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (over all repetitions, tracing off, timings
scaled to a reference host speed); with
--trace 1 they are the per-layer split from extra traced repetitions.
Workloads, metrics and their meaning are listed in BENCHMARK.json and
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corun-l3", "corun-mem", "sweep")
# corun-l3 under the per-element profiler alone (the perf gate's "profiled"),
# and with every observation layer on, as `repro run --profile --metrics`
# runs it; both are measured inside corun-l3's traced runs.
ATTRIBUTED = "corun-attrib"
OBSERVED = "corun-observed"
BUILD_TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
GOLDEN_SEED = 42
# Repetitions a run makes at least, however short --seconds is.
MIN_REPS = 3
# Seconds bench.exe's reference kernel takes on the host the benchmark was
# built on (2-vCPU Xeon VM, quiet); end-to-end timings are scaled to it.
REF_S = 0.12
# Every repetition must end this long after the build, so a hung one cannot
# keep the run from exiting within its time limit.
DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("perfbench: run from the root of a full checkout (no dune-project/lib here)")
        return False
    if shutil.which("dune") is None:
        log("perfbench: dune not found")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", BUILD_TARGET],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=840)
    except subprocess.TimeoutExpired:
        log("perfbench: build timed out")
        return False
    return r.returncode == 0 and os.path.isfile(EXE)


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def rep(workload, seed, traced, jobs, windows, deadline):
    """One repetition in a fresh process, killed at the monotonic-clock
    deadline: (result or None when it crashed, seconds taken)."""
    cmd = [EXE, workload, "--seed", str(seed), "--jobs", str(jobs)]
    if windows:
        cmd += ["--warmup", str(windows[0]), "--measure", str(windows[1])]
    if traced:
        cmd.append("--trace")
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} repetition timed out")
        return None, time.monotonic() - t0
    dt = time.monotonic() - t0
    if r.stderr:
        sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if r.returncode == 0 and lines else None
    except ValueError:
        out = None
    if out is None:
        log(f"perfbench: {workload} repetition failed (exit {r.returncode})")
        return None, dt
    out["loadavg"] = loadavg()
    log(f"perfbench: {workload}{' traced' if traced else ''} "
        f"wall_s={out['wall_s']:.4f} ref_s={out['ref_s']:.4f} "
        f"loadavg={out['loadavg']}")
    return out, dt


def repeat(kinds, seed, jobs, windows, deadline, budget_s, min_reps,
           reserve_reps=0.0):
    """Fresh-process repetitions of the given bench.exe workloads, taken in
    turn, until the budget is spent (min_reps of each at least), keeping
    reserve_reps repetition times of it unused. Returns ({kind: outputs},
    crashed repetitions)."""
    outs = {k: [] for k in kinds}
    crashed, times = 0, []
    t0 = time.monotonic()
    while True:
        done = sum(len(v) for v in outs.values()) + crashed
        elapsed = time.monotonic() - t0
        est = statistics.mean(times) if times else 0.0
        if done >= min_reps * len(kinds) \
                and elapsed + est * (1 + reserve_reps) > budget_s:
            break
        if crashed >= 4 * min_reps * len(kinds):
            break  # every repetition crashes; stop early
        kind = kinds[done % len(kinds)]
        out, dt = rep(kind, seed, False, jobs, windows, deadline)
        times.append(dt)
        if out is None:
            crashed += 1
        else:
            outs[kind].append(out)
    return outs, crashed


def reference(workload):
    """The co-run's simulated result at the golden seed and default
    windows, as recorded in perfbench/reference.json."""
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f).get(workload)


def contended_ops():
    """engine_ops of the perf gate's contended workload, from the repo."""
    try:
        with open("BENCH_engine.json") as f:
            gate = json.load(f)
        for w in gate["workloads"]:
            if w["name"] == "contended":
                return int(w["engine_ops"])
    except (OSError, ValueError, KeyError):
        pass
    return None


def ops_per_rep(outs):
    """Operations one repetition checks: one co-run, or every experiment of
    the sweep."""
    return max([int(o.get("attempted", 1)) for o in outs] or [1])


def check(workload, seed, windows, outs):
    """Failed operations among outs, all repetitions of one simulation:
    their simulated digests must agree; at the golden seed and default
    windows a co-run must reproduce its recorded result, and corun-l3 must
    replay the perf gate's op count."""
    failed = sum(int(o.get("failed", 0)) for o in outs)
    digests = [o["digest"] for o in outs]
    if digests:
        majority = max(set(digests), key=digests.count)
        bad = sum(1 for d in digests if d != majority)
        if bad:
            log(f"perfbench: {bad} repetition(s) disagree on the simulated digest")
        failed += bad * ops_per_rep(outs)
    if workload == "sweep" or seed != GOLDEN_SEED or windows:
        return failed
    ref = reference(workload)
    for o in outs:
        got = (o["digest"], int(o["packets"]), int(o["ops"]))
        if ref is None or got != (ref["digest"], ref["packets"], ref["ops"]):
            log(f"perfbench: simulated result {got} != reference.json {ref}")
            failed += 1
    if workload == "corun-l3":
        expected = contended_ops()
        for o in outs:
            if expected is None or int(o["ops"]) != expected:
                log(f"perfbench: engine ops {o['ops']} != contended {expected}")
                failed += 1
    return failed


def med(outs, key):
    return statistics.median(float(o[key]) for o in outs)


def e2e_metrics(outs, end_to_end):
    """The run's end-to-end values: (scaled, raw). On a shared host the
    simulator's speed drifts by up to ~1.5x over minutes as neighbours load
    the memory system, so each repetition also times bench.exe's fixed
    reference kernel, and every timing is scaled to a host on which that
    kernel takes REF_S: it is multiplied by REF_S over the run's mean
    reference time. sim_kpps is all packets over all timed host seconds
    and wall_s the mean, so both weigh the host's fast and slow spells by
    the time they took; setup_s is a median. peak_rss_mb, the mean over
    repetitions (a sweep's varies with where its two domains collect), is
    not scaled."""
    # Co-runs time Engine.run; the sweep's engine time is not separable
    # untraced, so its packets are per second of the whole sweep.
    timed = sum(float(o.get("run_s", o["wall_s"])) for o in outs)
    raw = {
        "sim_kpps": sum(float(o["packets"]) for o in outs) / timed / 1e3,
        "wall_s": statistics.mean(float(o["wall_s"]) for o in outs),
        "setup_s": med(outs, "setup_s"),
        "peak_rss_mb": statistics.mean(float(o["peak_rss_mb"]) for o in outs),
    }
    slowdown = statistics.mean(float(o["ref_s"]) for o in outs) / REF_S
    scaled = dict(raw, sim_kpps=raw["sim_kpps"] * slowdown,
                  wall_s=raw["wall_s"] / slowdown,
                  setup_s=raw["setup_s"] / slowdown)
    return ({m["name"]: {"value": scaled[m["name"]], "unit": m["unit"]}
             for m in end_to_end}, dict(raw, ref_s=slowdown * REF_S))


OBSERVERS = ("sampler.", "profile.", "export.")


def layer_metrics(workload, traced, untraced, per_layer):
    """The split of the traced repetition with the median wall time; on
    corun-l3 the observation layers come from its observed repetitions.
    Overheads compare medians of repetitions taken in the same run."""
    plain = traced[workload]
    mid = sorted(plain, key=lambda o: float(o["wall_s"]))[len(plain) // 2]
    values = {k: v for k, v in mid.items()
              if isinstance(v, (int, float)) and "." in k}
    base = untraced[workload]
    values["trace.overhead_frac"] = med(plain, "wall_s") / med(base, "wall_s") - 1
    if workload != "sweep":
        # Engine allocation and GC come from untraced repetitions: the
        # tracer's timers box floats of their own.
        ops = float(base[0]["ops"])
        values["engine.alloc_bytes_per_op"] = med(base, "alloc_bytes") / ops
        values["gc.minor_words"] = med(base, "minor_words")
        values["gc.major_collections"] = med(base, "major_collections")
    if traced.get(OBSERVED):
        values.update({k: v for k, v in traced[OBSERVED][0].items()
                       if k.startswith(OBSERVERS)})
    if untraced.get(ATTRIBUTED):
        # As the perf gate's profile_overhead: the share of plain engine
        # throughput lost under Attrib.
        values["attrib.overhead_frac"] = \
            1 - med(base, "run_s") / med(untraced[ATTRIBUTED], "run_s")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in per_layer}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shortened runs for smoke.py; the benchmark proper uses the defaults.
    ap.add_argument("--windows", help="co-run WARMUP,MEASURE cycles")
    args = ap.parse_args()
    windows = tuple(int(x) for x in args.windows.split(",")) \
        if args.windows else None
    w = args.workload

    end_to_end, per_layer = declared_metrics()
    if not build():
        log("perfbench: build failed")
        return 1
    deadline = time.monotonic() + DEADLINE_S
    jobs = min(2, os.cpu_count() or 1) if w == "sweep" else 1
    load_before = loadavg()

    if not args.trace:
        untraced, crashed = repeat([w], args.seed, jobs, windows, deadline,
                                   args.seconds, MIN_REPS)
        traced = {}
    else:
        # Untraced repetitions are the overhead baseline; corun-l3 takes
        # them in turn with attributed ones (same simulation under Attrib)
        # to price the profiler. The traced repetitions come last, on
        # corun-l3 with one observed (Attrib, the sampler, Profile.record
        # and Export) for the other observation layers.
        kinds = [w] + ([ATTRIBUTED] if w == "corun-l3" else [])
        plan = [w] * (1 if w == "sweep" else 3) \
            + ([OBSERVED] if w == "corun-l3" else [])
        untraced, crashed = repeat(kinds, args.seed, jobs, windows, deadline,
                                   args.seconds, MIN_REPS - 1,
                                   reserve_reps=1.2 * len(plan))
        traced = {k: [] for k in set(plan)}
        for kind in plan:
            out, _ = rep(kind, args.seed, True, jobs, windows, deadline)
            if out is None:
                crashed += 1
            else:
                traced[kind].append(out)

    every = [o for d in (untraced, traced) for v in d.values() for o in v]
    per = ops_per_rep(every)
    attempted = per * (len(every) + crashed)
    failed = per * crashed + check(w, args.seed, windows, every)

    raw = None
    if not untraced[w] or (args.trace and not traced[w]):
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(w, traced, untraced, per_layer)
    else:
        metrics, raw = e2e_metrics(untraced[w], end_to_end)
    # What a noisy run is recognised by, and the unscaled end-to-end
    # values, on the line before the result.
    print(json.dumps({"nproc": os.cpu_count(),
                      "ocaml": every[0]["ocaml"] if every else None,
                      "loadavg_before": load_before, "loadavg_after": loadavg(),
                      "workload": w, "seed": args.seed, "jobs": jobs,
                      "trace": args.trace, "repetitions": len(every),
                      "raw": raw}), flush=True)
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
