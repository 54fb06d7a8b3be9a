#!/usr/bin/env python3
"""Check micro_query_scale output against the deterministic coalescing pins.

The query-scale bench's workload is seeded, so its shape — query mix and the
number of distinct flow/predict coalescing keys per fleet size — is a pure
function of the fleet size, identical on every machine and build mode. Those
facts are pinned (bench/query_scale_pins.json) and this checker also asserts
the QueryServer's own counters obey the coalescing contract:

  * every snapshot row computed exactly `distinct_keys` answers, and
  * coalesce_hits == flow_queries + predict_queries - distinct_keys, and
  * admission control rejected nothing (the bench never saturates it).

Mutex rows (the harness oracle: one global lock, an independent
full-universe fetch, then the answer over it, per query) must recompute every
keyed query: the oracle keeps no memos and never enters the server's
coalescing tables, so computations == flow_queries + predict_queries and
coalesce_hits == 0. That proves the baseline the speedup is measured against
really pays a computation per flow/predict query. When a
mutex row and a snapshot row exist at the same fleet size, the snapshot path
must also beat the mutex path by the acceptance multiplier (default 3x) — the
throughput claim of snapshot publication, re-proven on whatever machine runs
CI.

Usage: check_query_scale.py --measured <bench-json> --pins <pins-json>
                            [--min-speedup 3.0]
"""

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--measured", required=True, help="micro_query_scale --out JSON")
    ap.add_argument("--pins", required=True, help="pinned workload-shape JSON")
    ap.add_argument("--min-speedup", type=float, default=3.0,
                    help="required snapshot/mutex throughput ratio at equal size")
    args = ap.parse_args()

    with open(args.measured, encoding="utf-8") as f:
        measured = json.load(f)["benchmarks"]
    with open(args.pins, encoding="utf-8") as f:
        pins = json.load(f)

    failures = []
    checked = 0
    mutex_qps = {}
    snapshot_qps = {}
    for entry in measured:
        tag = f"{entry['name']}/{entry['clients']}"
        if entry.get("baseline_qps") == 0.0:
            failures.append(
                f"{tag}: baseline_qps is a 0.0 placeholder — omit the key "
                "when no baseline was recorded"
            )
        if entry["queries"] != entry["clients"]:
            failures.append(
                f"{tag}: served {entry['queries']} queries for "
                f"{entry['clients']} clients (lost or duplicated work)"
            )
        pin = pins.get(str(entry["clients"]))
        if pin is not None:
            checked += 1
            for key, want in pin.items():
                got = entry.get(key)
                if got != want:
                    failures.append(
                        f"{tag}: {key} {got} != pinned {want} (workload "
                        "generator drifted; re-record deliberately)"
                    )
        if entry["name"] == "snapshot":
            snapshot_qps[entry["clients"]] = entry["qps"]
            distinct = entry["distinct_keys"]
            recurring = entry["flow_queries"] + entry["predict_queries"] - distinct
            if entry["computations"] != distinct:
                failures.append(
                    f"{tag}: computed {entry['computations']} answers for "
                    f"{distinct} distinct keys (coalescing leaked or starved)"
                )
            if entry["coalesce_hits"] != recurring:
                failures.append(
                    f"{tag}: {entry['coalesce_hits']} coalesce hits != "
                    f"{recurring} recurring queries (accounting drifted)"
                )
            if entry["predict_rejected"] != 0:
                failures.append(
                    f"{tag}: admission control rejected "
                    f"{entry['predict_rejected']} predictions in a bench "
                    "sized not to saturate it"
                )
        elif entry["name"] == "mutex":
            mutex_qps[entry["clients"]] = entry["qps"]
            keyed = entry["flow_queries"] + entry["predict_queries"]
            if entry["computations"] != keyed:
                failures.append(
                    f"{tag}: computed {entry['computations']} answers for "
                    f"{keyed} flow/predict queries (the baseline must "
                    "recompute every keyed query)"
                )
            if entry["coalesce_hits"] != 0:
                failures.append(
                    f"{tag}: {entry['coalesce_hits']} coalesce hits on the "
                    "mutex baseline (the oracle must never reuse a memo)"
                )

    for clients, base in sorted(mutex_qps.items()):
        snap = snapshot_qps.get(clients)
        if snap is None or base <= 0.0:
            continue
        ratio = snap / base
        if ratio < args.min_speedup:
            failures.append(
                f"snapshot/{clients}: {ratio:.2f}x mutex path < required "
                f"{args.min_speedup:.1f}x (lock-free read path regressed)"
            )

    if checked == 0:
        failures.append("no measured benchmark matched any pin — wrong files?")

    for msg in failures:
        print(f"check_query_scale: FAIL {msg}", file=sys.stderr)
    if not failures:
        print(
            f"check_query_scale: {checked} pinned workload shapes match; "
            f"coalescing accounting exact; mutex baseline recomputed every "
            f"keyed query"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
