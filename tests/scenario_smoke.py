#!/usr/bin/env python3
"""Scenario smoke: thread-count invariance of `vegas-sim run --json`.

Runs a scenario at --threads 1 and at --threads 4 and requires the two
JSON documents to be equal once the top-level `workers` block is removed:
that block holds per-worker cell counts and wall-clock busy times, which
legitimately differ between thread counts.  Everything else (results,
digests, throughputs) must be identical.  Also asserts the 12-cell shape
of examples/scenarios/table1.scn.

    scenario_smoke.py VEGAS_SIM SCENARIO
"""
import json
import subprocess
import sys


def run(vegas_sim, scn, threads):
    out = subprocess.run(
        [vegas_sim, "run", scn, "--json", "--threads", str(threads)],
        check=True, capture_output=True, text=True).stdout
    doc = json.loads(out)
    assert doc.get("workers"), f"--threads {threads}: missing workers block"
    del doc["workers"]
    return doc


def main():
    vegas_sim, scn = sys.argv[1], sys.argv[2]
    t1 = run(vegas_sim, scn, 1)
    t4 = run(vegas_sim, scn, 4)
    assert t1 == t4, "results differ between --threads 1 and --threads 4"

    assert t1["scenario"] == "table1-one-on-one", t1["scenario"]
    assert t1["cells"] == 12 and len(t1["results"]) == 12, t1["cells"]
    for r in t1["results"]:
        assert {"cell", "label", "seed", "flows"} <= r.keys(), r.keys()
        assert len(r["flows"]) == 2, r["cell"]
        large = r["flows"][0]
        assert large["completed"] is True, r["cell"]
        assert large["trace_digest"].startswith("0x"), r["cell"]
        assert large["throughput_kBps"] > 0, r["cell"]
    print("scenario smoke OK: 12 cells, identical at --threads 1 and 4")


if __name__ == "__main__":
    main()
