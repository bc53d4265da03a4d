"""Benchmark of headfem: time to mesh, time to lead field, time to answer.

    python3 bench/run.py --workload eit_hemorrhage --seed 1 --seconds 45
    python3 bench/run.py --workload cli_datasets --seed 1 --trace 1
    python3 bench/run.py            # every workload, each in a fresh process

One run sets up its inputs three times, then repeats rounds until the
next round would end after ``--seconds``, and checks the outputs of the
last round.  A round is one or more passes through the pipeline (mesh,
lead field, every inversion), each timed as one span, followed by extra
repeats of single stages; each metric is the median of its samples.  With
``--trace 1`` every round is one traced pass without repeats, and the
per-layer metrics come from its spans.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Result and trace files go to
``.bench_out/`` at the root of the checkout.  See bench/README.md.
"""

import os

# One BLAS thread, set before numpy is first imported: on two shared cores a
# second OpenBLAS thread made the dense inversion steps 3.7x slower and the
# timings erratic (README, "Why single-threaded BLAS").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("eit_hemorrhage", "cli_datasets")
SETUPS = 3
END_TO_END = {
    "setup_s": "s", "mesh_s": "s", "leadfield_s": "s", "invert_s": "s",
    "invert_p50_ms": "ms", "wall_s": "s", "peak_rss_mb": "MB",
    "loc_error_mm": "mm",
}
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import headfem; "
                "print(time.perf_counter() - t)")

clock = time.perf_counter


def import_headfem():
    """Import the package from the checkout's ``src``; seconds taken."""
    if not (SRC / "headfem" / "__init__.py").is_file():
        sys.exit(f"error: no headfem package under {SRC}; run the benchmark "
                 "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    t = clock()
    import headfem  # noqa: F401
    elapsed = clock() - t
    sys.path.insert(0, str(BENCH))
    return elapsed


def probe_import():
    """Seconds a fresh interpreter takes to import headfem."""
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(res.stdout.split()[-1])


def no_span(name):
    return contextlib.nullcontext()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(wl, inputs, ops, span, repeat):
    """Pipeline passes (mesh, lead field, every inversion), each timed as
    one span, then the extra repeats of single stages.

    Without ``repeat`` the round is one pass.  Otherwise it is as many
    passes as the workload's ``repeats["wall_s"]``, then each stage again
    until it has run ``repeats[stage]`` times; the extra repeats of the
    three stages are interleaved evenly, so the samples of a short stage
    spread over the round instead of one burst of machine load.  Returns
    the outputs of the last pass and the round's record.
    """
    rec = {"wall_s": [], "mesh_s": [], "leadfield_s": [], "invert_s": []}
    for _ in range(wl.repeats["wall_s"] if repeat else 1):
        t0 = clock()
        mesh = wl.mesh(inputs, ops, span)
        t1 = clock()
        model = wl.leadfield(inputs, mesh, ops, span)
        t2 = clock()
        out = wl.invert(inputs, model, ops, span)
        t3 = clock()
        rec.setdefault("peak_rss_mb", peak_rss_mb())
        for key, t in (("wall_s", t3 - t0), ("mesh_s", t1 - t0),
                       ("leadfield_s", t2 - t1), ("invert_s", t3 - t2)):
            rec[key].append(t)
    if repeat:
        stages = {"mesh_s": lambda: wl.mesh(inputs, ops, span),
                  "leadfield_s": lambda: wl.leadfield(inputs, mesh, ops, span),
                  "invert_s": lambda: wl.invert(inputs, model, ops, span)}
        extra = {key: wl.repeats[key] - len(rec[key]) for key in stages}
        for _, key in sorted(((i + 0.5) / n, key) for key, n in extra.items()
                             for i in range(n)):
            t = clock()
            stages[key]()
            rec[key].append(clock() - t)
    return out, rec


def measure(name, seed, seconds, trace, import_s, workdir):
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, str(workdir))
    setups = []
    for i in range(SETUPS):
        imp = import_s if i == 0 else probe_import()
        t = clock()
        inputs = wl.setup(i)
        setups.append(imp + clock() - t)

    tracer = tracing.Tracer() if trace else None
    ops = workloads.Ops()
    rounds = []
    start = clock()
    while True:
        out = None                      # hold one round's model at a time
        t = clock()
        if tracer:
            tracer.round = len(rounds)
            tracer.install()
        try:
            out, rec = run_round(wl, inputs, ops,
                                 tracer.span if tracer else no_span,
                                 repeat=tracer is None)
        finally:
            if tracer:
                tracer.remove()
        rounds.append(rec)
        if clock() - start + (clock() - t) > seconds:
            break

    results = {k: (bool(ok), detail)
               for k, (ok, detail) in wl.checks(out).items()}
    loc_errors = wl.loc_errors(out)
    attempted = ops.attempted + len(results)
    failed = ops.failed + sum(not ok for ok, _ in results.values())

    if tracer is None:
        e2e = {key: statistics.median(t for r in rounds for t in r[key])
               for key in ("wall_s", "mesh_s", "leadfield_s", "invert_s")}
        e2e.update(setup_s=statistics.median(setups),
                   invert_p50_ms=1e3 * statistics.median(ops.invert_samples),
                   peak_rss_mb=rounds[0]["peak_rss_mb"],
                   loc_error_mm=statistics.median(loc_errors))
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        per_round = [tracing.layer_metrics(tracer.spans, i, r["wall_s"][0],
                                           tracer.overhead_s[i])
                     for i, r in enumerate(rounds)]
        metrics = {k: {"value": statistics.median(m[k] for m in per_round),
                       "unit": u} for k, u in tracing.PER_LAYER.items()}
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")

    for key, (ok, detail) in results.items():
        print(f"check {key:18s} {'PASS' if ok else 'FAIL'}  {detail}")
    print(f"rounds {len(rounds)}{' traced' if tracer else ''}, inversions "
          f"timed {len(ops.invert_samples)}, setups {SETUPS}, localization "
          f"errors {len(loc_errors)}")
    for key, m in metrics.items():
        print(f"{key:28s} {m['value']:14.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {**result, "workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "setups_s": setups, "rounds": rounds,
              "inversions_timed": len(ops.invert_samples),
              "loc_errors_mm": loc_errors, "checks": results}
    with open(OUT / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own fresh process, one at a time."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    import_s = import_headfem()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        measure(args.workload, args.seed, args.seconds, args.trace, import_s,
                workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
