"""List the lines of src/platoon_stab that the tier-1 tests never run.

Runs ``pytest tests`` in this process under a ``sys.settrace`` line tracer
limited to the package's files, then prints, per module, the executable
lines (those of ``co_lines()`` of every code object in the module) that
never ran.  Forked children and subprocesses are not traced, so a line
that runs only there is listed too.  Usage, from any directory::

    python3 tools/unexecuted_lines.py

The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "platoon_stab"


def _executable_lines(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        # A module's first instruction is on line 0.
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def _ranges(lines: list[int], executable: list[int]) -> str:
    """``lines`` as comma-separated runs of consecutive entries of
    ``executable``, each ``first-last`` or one number."""
    position = {line: i for i, line in enumerate(executable)}
    runs = []
    for line in lines:
        if runs and position[line] == position[runs[-1][1]] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    import pytest

    files = {str(path): path for path in sorted(_PACKAGE.rglob("*.py"))}
    ran = {name: set() for name in files}

    def trace_lines(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename in ran:
            return trace_lines(frame, event, arg)
        return None

    sys.path.insert(0, str(_ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(_ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    print()
    for name, path in files.items():
        executable = sorted(_executable_lines(path))
        unrun = [line for line in executable if line not in ran[name]]
        total += len(executable)
        missed += len(unrun)
        if unrun:
            print(f"{path.relative_to(_ROOT)}: {_ranges(unrun, executable)}")
    print(f"{total - missed} of {total} executable lines ran.  Forked children and "
          "subprocesses are not traced: lines that run only there are listed.")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
