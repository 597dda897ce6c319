"""Write the source of every function funcalg generates, for a plain `diff`.

    PYTHONPATH=src python tests/dump_generated.py OUT

Each operator, builtin and negation kernel compiles on its first call, so
the script first compiles them all, in table order.  It then runs 40 VM
passes over the `scalar-calls` and `tower-calls` benchmark workloads and a
`wide-vectors` whose vectors are cut to 50-60 elements, which builds the
lanes of the paper's golden programs at every signature the workloads
draw.  It writes each `<funcalg ...>` entry of `linecache` to OUT in build
order, as a `# <funcalg NAME CRC>` line and the source.  Two checkouts'
dumps differ exactly where their generated code does; the script pins
nothing.
"""

from __future__ import annotations

import inspect
import linecache
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402  (imports funcalg from this checkout's src/)
from workloads import fa  # noqa: E402


def compile_kernels() -> None:
    """Compile every kernel that is not compiled yet (`inspect.unwrap` of an
    entry compiles it), operators first, then builtins and negation."""
    for table in (fa.values._BINOPS, fa.values._BUILTINS):
        for kernel in list(table.values()):
            inspect.unwrap(kernel)


def build_lanes(passes: int = 40) -> None:
    wide = workloads.WideVectors()
    wide.RANGE_LENGTHS, wide.FLOATS_LENGTH = (50, 60), 55
    for w in (workloads.ScalarCalls(), workloads.TowerCalls(), wide):
        w.build()
        w.generate(1)
        for _ in range(passes):
            for k in range(len(w.slices)):
                w.run_slice("vm", k)


def dump(out: Path) -> int:
    """Write every generated source in linecache to out; return their count."""
    entries = [(name, e[2]) for name, e in list(linecache.cache.items()) if name.startswith("<funcalg ")]
    out.write_text("".join(f"# {name}\n" + "".join(lines) + "\n" for name, lines in entries))
    return len(entries)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: dump_generated.py OUT")
    compile_kernels()
    build_lanes()
    print(dump(Path(sys.argv[1])), "generated sources")
