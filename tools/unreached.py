"""List the lines of ``src/flowcast`` that the test suite never runs.

Usage, from anywhere (extra arguments go to pytest)::

    python tools/unreached.py [pytest arguments]

It runs pytest in this process under a ``sys.settrace`` hook that follows
only frames of files in ``src/flowcast``, then prints, module by module,
the executable lines (the lines that carry bytecode in the module's
compiled code objects) that no frame reached.  Code run in a subprocess is
not traced: ``__main__.py`` always shows as unreached, and the perfbench
smoke tests, which start ``perfbench/run.py``, add nothing.  The standard
library only; tracing makes the suite a few times slower.

Exits with pytest's status when a test fails, else 1 when a line outside
``__main__.py`` is unreached, else 0.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flowcast"


def executable_lines(path: Path) -> set:
    """The lines of a module's code objects: the module's, and every function, class and comprehension's in it."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv) -> int:
    import pytest

    reached = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):  # every event of a traced frame names the line it is at
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):  # a new frame: follow it only if its code is the package's
        return local(frame, event, arg) if frame.f_code.co_filename in reached else None

    os.chdir(ROOT)
    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = outside_main = 0
    for name, lines in sorted(reached.items()):
        missed = sorted(executable_lines(Path(name)) - lines)
        total += len(missed)
        outside_main += 0 if Path(name).name == "__main__.py" else len(missed)
        print(f"{Path(name).relative_to(ROOT)}: {len(missed)} unreached" + (f": lines {', '.join(map(str, missed))}" if missed else ""))
    print(f"{total} unreached lines in src/flowcast")
    return int(status) or int(outside_main > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
