#!/usr/bin/env python3
"""Steadiness of the benchmark: run it K times per workload, summarise each
(workload, metric) by median, quartiles and largest deviation from the
median, and compare two result sets against the bounds in BENCHMARK.json.

Run from the root of the repository:

    python3 perfbench/steady.py run --runs 10 --seed0 1 --out perfbench/results/set-a.json
    python3 perfbench/steady.py run --runs 5 --workloads concat-reuse --out /tmp/probe.json
    python3 perfbench/steady.py show perfbench/results/set-a.json
    python3 perfbench/steady.py compare perfbench/results/set-a.json perfbench/results/set-b.json

`run` takes the command, run length, workloads and bounds from
BENCHMARK.json. Runs alternate between workloads (seed s on every workload,
then seed s + 1, ...), so a slow spell of the host is shared out. The
spread of a metric is (q3 - q1) / median, with the quartiles that
`statistics.quantiles(values, n=4)` gives; it passes when it is within the
metric's bound (setup_s is reported but not gated), and counts as steady
below a third of it. `compare` passes when no median of the second set is
worse than the first by more than the bound, and when the share of failed
operations is the same in both sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path("BENCHMARK.json")


def load_bench():
    return json.loads(BENCH.read_text())


def run_once(bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    facts = next((json.loads(l[6:]) for l in lines if l.startswith("facts ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {
        "workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
        "wall_s": round(wall, 2), "facts": facts, "result": result,
        "stderr_tail": proc.stderr.strip().splitlines()[-5:],
    }


def cmd_run(args):
    bench = load_bench()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        for w in workloads:
            r = run_once(bench, w, seed, seconds, args.trace)
            runs.append(r)
            res = r["result"] or {}
            print(f"{w:<16} seed {seed:<5} exit {r['exit']} wall {r['wall_s']:>6.1f}s "
                  f"correct {res.get('correct')} attempted {res.get('attempted')} failed {res.get('failed')} "
                  f"steal {r['facts'].get('steal_ticks')} lag_p99_us {r['facts'].get('generator_lag_p99_us')}",
                  flush=True)
            if r["exit"] != 0:
                print("  " + "\n  ".join(r["stderr_tail"]), flush=True)
    out = {"run_seconds": seconds, "trace": args.trace, "runs": runs}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    summarise(bench, out)
    return 0


def values_by_key(data):
    table = {}
    for r in data["runs"]:
        res = r.get("result")
        if not res:
            continue
        for name, m in res["metrics"].items():
            table.setdefault((r["workload"], name), []).append(m["value"])
    return table


def failed_share(data, workload):
    att = sum(r["result"]["attempted"] for r in data["runs"] if r["workload"] == workload and r.get("result"))
    fail = sum(r["result"]["failed"] for r in data["runs"] if r["workload"] == workload and r.get("result"))
    return fail / att if att else 0.0


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, med, med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    maxdev = max(abs(v - med) for v in values) / med
    return med, q1, q3, (q3 - q1) / med, maxdev


def summarise(bench, data):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    table = values_by_key(data)
    worst = 0.0
    ok = True
    print(f"{'workload':<16} {'metric':<22} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'maxdev':>7} {'bound':>6}  verdict")
    for (w, name), values in sorted(table.items()):
        med, q1, q3, spr, maxdev = spread(values)
        b = bounds.get(name, {}).get("bound")
        if b is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "not gated"
        elif spr <= b / 3:
            verdict = "steady"
        elif spr <= b:
            verdict = "within bound"
        else:
            verdict = "WIDER THAN BOUND"
            ok = False
        if b is not None and name != "setup_s":
            worst = max(worst, spr / b)
        print(f"{w:<16} {name:<22} {len(values):>3} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
              f"{spr:>7.3f} {maxdev:>7.3f} {b if b is not None else '':>6}  {verdict}")
    for w in sorted({r["workload"] for r in data["runs"]}):
        print(f"{w:<16} failed share {failed_share(data, w):.6f}")
    bad = [r for r in data["runs"] if r["exit"] != 0 or not (r.get("result") or {}).get("correct")]
    print(f"runs {len(data['runs'])}, not correct or non-zero exit: {len(bad)}, "
          f"largest spread/bound {worst:.2f}")
    return ok and not bad


def cmd_show(args):
    return 0 if summarise(load_bench(), json.loads(Path(args.file).read_text())) else 1


def cmd_compare(args):
    bench = load_bench()
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    ta, tb = values_by_key(a), values_by_key(b)
    ok = True
    print(f"{'workload':<16} {'metric':<22} {'median A':>14} {'median B':>14} {'worse by':>9} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        for w in sorted({k[0] for k in ta}):
            va, vb = ta.get((w, m["name"])), tb.get((w, m["name"]))
            if not va or not vb:
                print(f"{w:<16} {m['name']:<22} missing")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok &= worse <= m["bound"]
            print(f"{w:<16} {m['name']:<22} {ma:>14.4f} {mb:>14.4f} {worse:>9.3f} {m['bound']:>6}  {verdict}")
    for w in sorted({k[0] for k in ta}):
        fa, fb = failed_share(a, w), failed_share(b, w)
        same = fa == fb
        ok &= same
        print(f"{w:<16} failed share {fa:.6f} vs {fb:.6f}  {'same' if same else 'DIFFERENT'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run the benchmark K times per workload")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=int, default=0, help="run length (default: BENCHMARK.json)")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", default="")
    s = sub.add_parser("show", help="summarise a saved result set")
    s.add_argument("file")
    c = sub.add_parser("compare", help="compare two result sets against the bounds")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return {"run": cmd_run, "show": cmd_show, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
