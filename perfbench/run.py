#!/usr/bin/env python3
"""Remos end-to-end benchmark.

Builds the Remos stack from this checkout's sources (audits off, into
.bench_build/), runs one seeded workload in its own process, checks every
answer, and prints a report followed by one JSON result line:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 replays
the same seeded inputs with spans around every call into a layer and reports
the per-layer metrics. Exits non-zero when an output check fails or a count
the seed fixes differs from an earlier run of the same seed and the same
sources in this checkout.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "remos_perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the binary up to date; output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("Remos sources (src/) not found next to perfbench/; nothing to build")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "cmake" / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD / "cmake"),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD / "cmake"), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                fail(f"build failed; see {log_path.relative_to(ROOT)}", 1)


def commit():
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    return os.environ.get("REMOS_COMMIT", "unknown (not a git checkout)")


def run_workload(args):
    records = BUILD / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = records / f"{stem}.json"
    spans_path = records / f"{stem}.spans.jsonl"
    record_path.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", str(record_path), "--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0 or not record_path.is_file():
        fail(f"{args.workload} exited with code {proc.returncode}", 1)
    with open(record_path) as f:
        return json.load(f), record_path


def code_fingerprint():
    """Hash of every source the benchmark binary is built from."""
    digest = hashlib.sha256()
    files = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*") if p.is_file()]
    files.append(ROOT / "tests" / "query_fleet.hpp")
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_pins(record, problems, notes):
    """Counts the seed fixes must repeat exactly in every run of that seed
    of the same code. Pins of other code are compared and the differences
    printed, never failed on: a change may alter these counts on purpose."""
    pins_dir = BUILD / "pins"
    pins_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}"
    code = code_fingerprint()
    path = pins_dir / f"{stem}-{code}.json"
    for other in sorted(pins_dir.glob(f"{stem}-*.json")):
        with open(other) as f:
            earlier = json.load(f)
        same_code = other == path
        for name, value in sorted(record["pins"].items()):
            if name not in earlier or earlier[name] == value:
                continue
            if same_code:
                problems.append(f"seed-fixed count {name} = {value!r}, "
                                f"an earlier run of this seed and code had {earlier[name]!r}")
            else:
                notes.append(f"seed-fixed count {name} = {value!r}, "
                             f"{earlier[name]!r} with code {other.stem[len(stem) + 1:]}")
    if not path.is_file():
        with open(path, "w") as f:
            json.dump(record["pins"], f, indent=1, sort_keys=True)
    return code


def fmt(value):
    return "null" if value is None else f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    record, record_path = run_workload(args)

    problems = [f"check failed: {c['check']}" for c in record["checks"] if not c["ok"]]
    if sum(record["failure_reasons"].values()) != record["failed"]:
        problems.append("failure reasons do not account for every failed query")
    notes = []
    code = check_pins(record, problems, notes)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} was not measured")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        if not args.trace and got["value"] <= 0:
            problems.append(f"end-to-end metric {m['name']} is not positive")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    meta = dict(record["meta"], commit=commit(), code_fingerprint=code)
    print(f"== perfbench {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  {args.seconds:g} s")
    for key in sorted(meta):
        print(f"  meta  {key}: {meta[key]}")
    for c in record["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}")
    print(f"  queries attempted {record['attempted']}, failed {record['failed']}")
    for reason, count in sorted(record["failure_reasons"].items()):
        print(f"    failed: {reason} x{count}")
    spoiled = record["counts"].get("generator_spoiled_pct")
    for name, m in sorted(record["end_to_end"].items()):
        aside = ""
        if name == "latency_tail" and spoiled is not None:
            aside = f"  ({fmt(spoiled)}% of measured arrivals spoiled by the generator, left out)"
        print(f"  end-to-end {name} = {fmt(m['value'])} {m['unit']}{aside}")
    for name, value in sorted(record["pins"].items()):
        print(f"  seed-fixed {name} = {value!r}")
    for note in notes:
        print(f"  other code: {note}")
    for name, value in sorted(record["counts"].items()):
        print(f"  count {name} = {fmt(value)}")
    if args.trace:
        for name, m in sorted(record["per_layer"].items()):
            print(f"  layer {name} = {fmt(m['value'])} {m['unit']}")
        untraced = record_path.with_name(f"{args.workload}-seed{args.seed}-trace0.json")
        if untraced.is_file():
            with open(untraced) as f:
                base = json.load(f)["end_to_end"]
            for name, m in sorted(record["end_to_end"].items()):
                if name in base and base[name]["value"]:
                    change = 100.0 * (m["value"] / base[name]["value"] - 1.0)
                    print(f"  tracing overhead {name}: {change:+.1f}% vs the untraced run")
        else:
            print("  tracing overhead: run --trace 0 with this seed first to compare")
    for p in problems:
        print(f"  PROBLEM {p}")

    result = {"correct": not problems, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
