"""Time one fresh interpreter's set-up for a workload; prints one JSON line.

Set-up is: import funcalg, build the workload's expressions (or sessions)
and compile them.  Input generation is excluded.  The time is rescaled by
the reference rate measured in this same process (see timing.py).

    python3 benchmarks/setup_probe.py <workload>
"""

import json
import sys
import time

import timing


def main() -> None:
    name = sys.argv[1]
    before = [timing.reference_rate() for _ in range(4)][1:]
    t0 = time.perf_counter_ns()
    import engine  # noqa: F401  (imports funcalg)
    import workloads

    workloads.WORKLOADS[name]().build()
    elapsed = (time.perf_counter_ns() - t0) / 1e9
    rate = sum(before + [timing.reference_rate() for _ in range(3)]) / 6
    print(json.dumps({"raw_s": elapsed, "ref_rate": rate,
                      "setup_s": elapsed * rate / timing.NOMINAL_REF_RATE}))


if __name__ == "__main__":
    main()
