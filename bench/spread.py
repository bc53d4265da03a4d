"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload eit_hemorrhage --seeds 1-10
    python3 bench/spread.py --workload cli_datasets --seeds 1-2 --trace 1

Each run is a fresh process of bench/run.py.  For every metric this prints
the median, the first and third quartiles of the runs
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  The per-run results
stay in ``.bench_out/`` and the summary is written next to them.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
OUT = RUN.parent.parent / ".bench_out"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs, elapsed = [], []
    for seed in args.seeds:
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: seed {seed} exited with {proc.returncode}")
        elapsed.append(time.perf_counter() - t)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"process {elapsed[-1]:.1f} s", flush=True)

    summary = {}
    for key, m in runs[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                        "unit": m["unit"], "values": values}
        print(f"{key:28s} median {med:12.6g} {m['unit']:6s} "
              f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}")
    failed = [r["failed"] / r["attempted"] for r in runs]
    print(f"failed share per run: {sorted(set(failed))}")
    OUT.mkdir(exist_ok=True)
    name = f"spread-{args.workload}-trace{args.trace}-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"workload": args.workload, "seeds": args.seeds,
                   "seconds": args.seconds, "process_s": elapsed,
                   "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
