#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on shortened co-run windows.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload, in both modes, runs perfbench/run.py once and asserts
that the result line has exactly the contract's keys, that no operation
failed (so the simulated digests of all repetitions, traced and untraced,
agree, and at seed 42 the sweep matches the goldens), and that every
declared metric is emitted with its declared unit and a valid name. Then
checks that the benchmark refuses to run in a directory holding only
BENCHMARK.json and perfbench/. Takes about two minutes; exits 1 on
failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SHORT = "300000,1000000"

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for m in declared[0] + declared[1]:
        expect(NAME.match(m["name"]) is not None and UNIT.match(m["unit"])
               is not None, f"declared metric {m['name']!r} [{m['unit']}]")

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            r = run(["--workload", name, "--seed", "42", "--seconds", "0",
                     "--trace", str(trace), "--windows", SHORT])
            tag = f"{name} --trace {trace}"
            lines = r.stdout.strip().splitlines()
            expect(r.returncode == 0 and bool(lines), f"{tag}: exit 0")
            if not lines:
                sys.stderr.write(r.stderr[-2000:])
                continue
            res = json.loads(lines[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            expect(res.get("correct") is True and res.get("failed") == 0
                   and res.get("attempted", 0) >= 1,
                   f"{tag}: correct, digests agree "
                   f"(attempted={res.get('attempted')}, "
                   f"failed={res.get('failed')})")
            metrics = res.get("metrics", {})
            want = {m["name"]: m["unit"] for m in declared[trace]}
            expect(set(metrics) == set(want),
                   f"{tag}: every declared metric emitted "
                   f"(missing {sorted(set(want) - set(metrics))}, "
                   f"extra {sorted(set(metrics) - set(want))})")
            for k, v in metrics.items():
                good = (NAME.match(k) is not None and v.get("unit") == want.get(k)
                        and isinstance(v.get("value"), (int, float)))
                if not good:
                    expect(False, f"{tag}: metric {k} = {v}")

    # A directory with only the benchmark's own files must be refused.
    bare = os.path.join(ROOT, "_perfbench_smoke")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = run(["--workload", "corun-l3", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare)
        expect(r.returncode != 0 and '"metrics"' not in r.stdout,
               "bare directory: refused without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
