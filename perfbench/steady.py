#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs the benchmark command once per seed on each workload (untraced) and
reports, per end-to-end metric, the median and the spread: the distance
between the first and third quartile of the values, as a share of their
median. A metric whose spread exceeds its bound makes the check fail; so
does any incorrect run.

    python3 perfbench/steady.py                      # held-out seeds 101..110
    python3 perfbench/steady.py --seeds 1-10 --workloads serve-hotset

Run from the root of a checkout. Writes nothing but the benchmark's own
build directory.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="101-110", help="seed list, e.g. 1-10 or 3,5,9")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    ok = True
    for wl in names:
        values = {}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: incorrect ({res['failed']} of {res['attempted']} failed)")
                ok = False
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for m in bench["end_to_end"]:
            xs = values.get(m["name"], [])
            if len(xs) < 4:
                print(f"{wl:14s} {m['name']:22s} too few runs ({len(xs)})")
                ok = False
                continue
            q = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q[2] - q[0]) / med
            verdict = "ok"
            if spread > m["bound"]:
                verdict = "UNSTEADY"
                ok = False
            print(f"{wl:14s} {m['name']:22s} median {med:11.4f} {m['unit']:5s} "
                  f"spread {spread:.3f} bound {m['bound']:.2f} {verdict}  "
                  + " ".join(f"{x:.4g}" for x in xs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
