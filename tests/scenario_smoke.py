#!/usr/bin/env python3
"""Smoke checks of `vegas-sim run` and `vegas-sim sweep`, one ctest case
per mode.

    scenario_smoke.py threads   VEGAS_SIM SCENARIO
    scenario_smoke.py malformed VEGAS_SIM
    scenario_smoke.py metrics   VEGAS_SIM SCENARIO VALIDATE_METRICS
    scenario_smoke.py sweep     VEGAS_SIM SCENARIO

threads: --threads 1 and --threads 4 give equal JSON once the top-level
`workers` block (per-worker cell counts, wall-clock busy times) is set
aside, in the 12-cell shape of examples/scenarios/table1.scn.
malformed: an unknown key exits 2 with a file:line:col diagnostic.
metrics: --metrics output passes VALIDATE_METRICS, digests equal the
plain run's, and the chrome trace holds the setup/run/collect spans.  Its
outputs stay in the working directory.
sweep (docs/SWEEPS.md), on the 12-cell table1 grid in a temporary store: a
re-run is all cache hits with byte-equal --json; `sweep status` reads
12/12; --max-cells 3 exits 3 and a two-worker resume gives the fresh
run's bytes; a salted recompute in the same store diffs as identical.
"""
import json
import os
import subprocess
import sys
import tempfile


def run_json(vegas_sim, scn, *extra):
    out = subprocess.run([vegas_sim, "run", scn, "--json", *extra],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def check_threads(vegas_sim, scn):
    t1, t4 = (run_json(vegas_sim, scn, "--threads", n) for n in ("1", "4"))
    for doc in (t1, t4):
        assert doc.pop("workers", None), "missing workers block"
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


def check_malformed(vegas_sim):
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/bad.scn", "w") as f:
            f.write("[scenario]\nbogus = 1\n")
        proc = subprocess.run([vegas_sim, "run", "bad.scn"], cwd=tmp,
                              capture_output=True, text=True)
    assert proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}"
    assert "bad.scn:2:1: error:" in proc.stderr, proc.stderr
    print("malformed-input smoke OK: exit 2, located diagnostic")


def check_metrics(vegas_sim, scn, validator):
    plain = run_json(vegas_sim, scn, "--threads", "1")
    sampled = run_json(vegas_sim, scn, "--metrics", "metrics.jsonl",
                       "--chrome-trace", "chrome_trace.json")
    with open("t1_metrics.json", "w") as f:
        json.dump(sampled, f, indent=1)
    subprocess.run([sys.executable, validator, "metrics.jsonl"], check=True)

    # Metrics must not change results: same digests as the plain run.
    assert len(plain["results"]) == len(sampled["results"])
    for a, b in zip(plain["results"], sampled["results"]):
        da = a["flows"][0]["trace_digest"]
        db = b["flows"][0]["trace_digest"]
        assert da == db, f"cell {a['cell']}: digest {da} != {db}"
        assert b["metrics"]["samples"] > 0, a["cell"]
        assert b["metrics"]["summary"], a["cell"]
    assert sampled["workers"], "missing workers array"
    with open("chrome_trace.json") as f:
        trace = json.load(f)
    names = {e.get("name") for e in trace["traceEvents"]}
    assert {"setup", "run", "collect"} <= names, names
    print("metrics smoke OK: digests unchanged, "
          f"{len(trace['traceEvents'])} trace events")


def check_sweep(vegas_sim, scn):
    env = {k: v for k, v in os.environ.items() if k != "VEGAS_SWEEP_SALT"}

    def sweep(*args, salt=None, check=True):
        run_env = env if salt is None else dict(env, VEGAS_SWEEP_SALT=salt)
        return subprocess.run([vegas_sim, "sweep", *args], env=run_env,
                              check=check, capture_output=True, text=True)

    with tempfile.TemporaryDirectory() as tmp:
        store = ["--store", f"{tmp}/store"]
        fresh = sweep("run", scn, *store, "--json").stdout
        rerun = sweep("run", scn, *store).stdout
        assert "12 cache hits, 0 computed here" in rerun, rerun
        assert sweep("run", scn, *store, "--json").stdout == fresh, \
            "cached re-run --json differs from the fresh run"
        status = sweep("status", *store).stdout
        assert "12/12 done" in status, status

        # --max-cells stops after 3 simulations with exit 3 ("sweep
        # incomplete", resumable); the resume must give the same bytes.
        partial = ["--store", f"{tmp}/partial"]
        proc = sweep("run", scn, *partial, "--max-cells", "3", check=False)
        assert proc.returncode == 3, f"exit {proc.returncode}: {proc.stderr}"
        resumed = sweep("run", scn, *partial, "--workers", "2", "--json").stdout
        assert resumed == fresh, "resumed sweep differs from the fresh run"

        # A salt recomputes every cell under fresh keys in the same store;
        # diff matches the two grids by (cell, label): no changes.
        sweep("run", scn, *store, salt="smoke-salted")
        text = sweep("diff", scn, *store).stdout
        assert "identical" in text.splitlines(), text
        d = json.loads(sweep("diff", scn, *store, "--json").stdout)
        assert d["matched"] == 12, d
        assert d["only_a"] == 0 and d["only_b"] == 0, d
        assert d["digest_changes"] == 0 and d["metric_changes"] == 0, d
        assert d["grid_a"] != d["grid_b"], "salt did not change the grid key"
    print("sweep smoke OK: cached re-run, status, --max-cells resume and "
          "salted diff")


def main():
    mode, args = sys.argv[1], sys.argv[2:]
    {"threads": check_threads,
     "malformed": check_malformed,
     "metrics": check_metrics,
     "sweep": check_sweep}[mode](*args)


if __name__ == "__main__":
    main()
