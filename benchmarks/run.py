"""funcalg benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload scalar-calls --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --seed 1            # every workload, one process each

With --trace 0 the run measures the end-to-end metrics with tracing off;
with --trace 1 it measures the per-layer metrics (see spans.py).  Every op
is checked against the host-arithmetic oracle and tree and vm results must
agree; a wrong result makes the exit status 1.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; the line
before it is the full report with run metadata.  A table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("scalar-calls", "tower-calls", "wide-vectors", "script-session")

END_TO_END = {
    "tree_ops_per_s": "ops/s",
    "vm_ops_per_s": "ops/s",
    "compile_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 5
COMPILE_INSTRS = 2000  # instructions compiled per timed compile batch


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(name: str) -> float:
    """setup_s of one fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def compile_batch(fa, wl):
    """A callable compiling every workload expression, repeated to at least
    COMPILE_INSTRS instructions so that one batch is long enough to time,
    and the number of compilations it makes."""
    targets = wl.compile_targets()
    instrs = sum(len(fa.compile_expr(e).instructions) for e in targets)
    items = targets * -(-COMPILE_INSTRS // instrs)
    return (lambda: [fa.compile_expr(e) for e in items]), len(items)


def measure(wl, clock, check, seconds: float, compile_all, probe) -> dict:
    """Alternate tree, vm and compile batches over the op sequence.

    Returns timing samples: per backend one list per slice, and a flat
    list for the compile batch.  The first pass is a warm-up: checked and
    counted, not timed.  `probe` is called between passes, spread over the
    run, and its time is not counted against `seconds`.
    """
    times = {b: [[] for _ in wl.slices] for b in ("tree", "vm")}
    times["compile"] = []
    start = time.monotonic()
    paused = 0.0
    probes_done = 0
    passes = 0
    while True:
        for k in range(len(wl.slices)):
            order = ("tree", "vm") if (passes + k) % 2 == 0 else ("vm", "tree")
            out = {}
            for b in order:
                t = clock.measure(lambda b=b: out.__setitem__(b, wl.run_slice(b, k)))
                if passes:
                    times[b][k].append(t)
            wl.check_slice(k, out["tree"], out["vm"], check)
            # with the results freed: a compile batch timed while 1e5-element
            # results were alive read about half as fast again
            del out
            t = clock.measure(compile_all)
            if passes:
                times["compile"].append(t)
        passes += 1
        elapsed = time.monotonic() - start - paused
        if probes_done < SETUP_PROBES and elapsed >= seconds * probes_done / SETUP_PROBES:
            t0 = time.monotonic()
            probe()
            probes_done += 1
            paused += time.monotonic() - t0
        if elapsed >= seconds and passes >= 4 and probes_done == SETUP_PROBES:
            return times


def ops_per_s(clock, n_ops: int, slice_times: list) -> float:
    """Ops in one pass over the time of one pass, from per-slice estimates."""
    return n_ops / sum(clock.estimate(ts) for ts in slice_times)


def end_to_end(wl, seed: int, seconds: float):
    import workloads
    from engine import funcalg as fa
    from timing import Clock, ESTIMATOR

    wl.generate(seed)
    wl.build()
    clock = Clock()
    check = workloads.Check()
    compile_all, n_compiled = compile_batch(fa, wl)
    setups: list[float] = []
    times = measure(wl, clock, check, seconds, compile_all,
                    lambda: setups.append(setup_probe(wl.name)))
    compile_samples = times["compile"]
    values = {
        "tree_ops_per_s": ops_per_s(clock, len(wl.ops), times["tree"]),
        "vm_ops_per_s": ops_per_s(clock, len(wl.ops), times["vm"]),
        "compile_us": clock.estimate(compile_samples) / n_compiled * 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "tree_ops_per_s": sum(map(len, times["tree"])),
        "vm_ops_per_s": sum(map(len, times["vm"])),
        "compile_us": len(compile_samples),
        "setup_s": len(setups),
        "peak_rss_mb": 1,
    }
    extra = {
        "estimator": ESTIMATOR,
        "reference_rates": clock.rate_summary(),
        "samples": samples,
        "ops_per_pass": len(wl.ops),
        "failed_ops_ratio": {
            "value": check.failed / max(check.attempted, 1),
            "unit": "ratio",
            "base": "ops attempted, both backends, warm-up pass included",
        },
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return check, metrics, extra


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb is per workload."""
    status, rows = 0, {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.splitlines()
        rows[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(rows))
    return status


def print_table(name: str, check, metrics: dict, extra: dict) -> None:
    err = sys.stderr
    print(f"{name}: attempted {check.attempted}, failed {check.failed}, "
          f"wrong {check.wrong}", file=err)
    rows = dict(metrics)
    if "failed_ops_ratio" in extra:
        rows["failed_ops_ratio"] = extra["failed_ops_ratio"]
    for metric, m in rows.items():
        print(f"  {metric:34s} {m['value']:>16.6g} {m['unit']}", file=err)
    for example in check.examples:
        print(f"  WRONG {example}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    try:
        import workloads
    except ImportError as err:
        print(f"cannot load the engine: {err}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    if args.trace:
        import spans

        check, metrics, extra = spans.per_layer(wl, args.seed, args.seconds)
    else:
        check, metrics, extra = end_to_end(wl, args.seed, args.seconds)
    print_table(args.workload, check, metrics, extra)
    correct = check.wrong == 0
    report = {"meta": metadata(args), **extra, "metrics": metrics,
              "wrong_examples": check.examples}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
