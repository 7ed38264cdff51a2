"""Line coverage of ``src/quakewait`` under an in-process pytest run.

    python tools/linecov.py [PYTEST_ARGS...]

Traces every frame whose code lies under ``src/quakewait`` with
``sys.settrace`` and ``threading.settrace``, runs pytest with the given
arguments (default: the tier-1 suite, quietly), then prints, per module, the
executable lines that no test ran and the totals.  Executable lines are those
that ``code.co_lines()`` names in each compiled module and its nested code
objects.  Child processes are not followed, so lines that only the CLI tests'
subprocesses run are counted as unrun.  Standard library only; it runs about
twice as long as the plain suite.
"""
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "quakewait"


def executable_lines(path: Path) -> set:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args) -> int:
    import pytest

    modules = {str(p): executable_lines(p) for p in sorted(PKG.glob("*.py"))}
    ran = {name: set() for name in modules}

    def trace(frame, event, arg):
        hits = ran.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            hits.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider",
                                      "--continue-on-collection-errors", str(ROOT)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unrun_total = 0
    for name, lines in modules.items():
        unrun = sorted(lines - ran[name])
        total, unrun_total = total + len(lines), unrun_total + len(unrun)
        print(f"{Path(name).name}: {len(unrun)} of {len(lines)} unrun",
              *(f" {n}" for n in unrun), sep="")
    print(f"total: {unrun_total} of {total} executable lines unrun")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
