"""Line-coverage gate: tier-1 runs every executable line of ``src/contexttrust``.

    PYTHONPATH=src python3.12 tests/line_gate.py [extra pytest arguments]

Run from the repository root, on Python 3.12 or later (it needs ``sys.monitoring``).
It runs the tier-1 suite in this process under a LINE-event tracer, then compiles
each module of the package and lists every line that holds an instruction but
never ran.  It exits 1 if pytest fails, if such a line is not in ``UNREACHED``, or
if an ``UNREACHED`` entry ran or names no such line (a stale entry).  The tracer
disables each line location the first time it reports, so it costs little after
that.  Child processes are not traced.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contexttrust"
TIER1 = ["-q", "--continue-on-collection-errors"]

# Lines that tier-1 does not run in this process, as (module, stripped line) -> reason.
UNREACHED = {
    ("cli.py", "raise SystemExit(main())"):
        "runs only under python -m; test_python_dash_m_runs_main runs it in a child process",
    ("semantic.py", "raise NotImplementedError"):
        "the abstract CountProvider.counts body; every provider overrides it",
}


def code_lines(code) -> set[int]:
    """The lines of a code object and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("line_gate.py needs sys.monitoring: Python 3.12 or later", file=sys.stderr)
        return 2
    import pytest

    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    modules = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[Path, set[int]] = {path: set() for path in modules.values()}
    where: dict[str, Path | None] = {}

    def line(code, number):
        name = code.co_filename
        if name not in where:
            where[name] = modules.get(os.path.realpath(name))
        if where[name] is not None:
            ran[where[name]].add(number)
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "line_gate")
    monitoring.register_callback(tool, monitoring.events.LINE, line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        status = pytest.main(TIER1 + argv)
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    if status != 0:
        print(f"line_gate: pytest exited {status}", file=sys.stderr)
        return 1

    faults, allowed = [], dict(UNREACHED)
    for path in modules.values():
        source = path.read_text(encoding="utf-8")
        texts = source.splitlines()
        for number in sorted(code_lines(compile(source, str(path), "exec")) - ran[path]):
            text = texts[number - 1].strip()
            if allowed.pop((path.name, text), None) is None:
                faults.append(f"{path.relative_to(PACKAGE.parent.parent)}:{number}: never ran: {text}")
    faults += [f"{name}: listed as unreached, but it ran or is gone: {text}"
               for name, text in allowed]
    print(f"line_gate: {sum(map(len, ran.values()))} lines of {len(modules)} modules ran; "
          f"{len(UNREACHED) - len(allowed)} listed lines did not")
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
