#!/usr/bin/env python3
"""Lines of src/sdnfilt/ that a pytest run never executes.

    python3 scripts/untested_lines.py [PYTEST ARGS...]

Runs pytest in this process (by default `-q -p no:cacheprovider tests`)
under a `sys.settrace` line tracer limited to the files of src/sdnfilt/,
pool threads included, and prints `path:line` for each executable line
that never ran, sorted by path and line. A line is executable when the
compiler assigns it an instruction. pytest's report, the count of such
lines and pytest's exit code go to stderr. It needs no package beyond pytest, and the run
takes about twice as long as the untraced suite.
"""

import contextlib
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "sdnfilt")
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "tests"]


def executable_lines(path: str) -> set:
    """The line numbers of a source file that carry an instruction, over
    its module code and every code object nested in it. Line 0, the
    module's entry, is no source line."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def untested_lines(directory: str, run) -> list:
    """(path, line) for each executable line of the .py files under
    directory that run() never executes, on any thread, sorted."""
    directory = os.path.abspath(directory)
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(directory)
                   for f in files if f.endswith(".py"))
    hit = {path: set() for path in paths}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return [(path, line) for path in paths
            for line in sorted(executable_lines(path) - hit[path])]


def main(argv) -> int:
    import pytest

    sys.path.insert(0, os.path.dirname(SRC))
    os.chdir(ROOT)
    code = []
    # pytest reports to stderr, so stdout holds the list alone
    with contextlib.redirect_stdout(sys.stderr):
        missing = untested_lines(SRC, lambda: code.append(pytest.main(argv or PYTEST_ARGS)))
    for path, line in missing:
        print(f"{os.path.relpath(path, ROOT)}:{line}")
    print(f"{len(missing)} executable lines never ran; pytest exit code {code[0]}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
