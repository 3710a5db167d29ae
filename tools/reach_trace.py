"""List the functions of twistfusion that a fixed set of runs never reaches.

    python3 tools/reach_trace.py

The package is imported from ``src/`` next to this script.  A profile hook
(``sys.setprofile``) records every function call while it runs:
  * CLI calls of every subcommand, among them one ``irreducible`` with a
    ``--g-file`` form, one malformed input, and scans at ``--jobs 1``, so
    that every scan point runs in this process;
  * one round of each perfbench workload at ``--jobs 1``, its operations
    only (not the answer checks).  ``perfbench/`` is imported, not edited.

It prints each function (``def``, methods and nested functions included)
of ``src/twistfusion`` that no call reached, with its line count, then the
totals.  A function that only a test, a tool or the process pool runs is
listed too, so the list is where to look for dead code, not a verdict on
it.  Runs in about a minute; standard library only, besides what
twistfusion and perfbench import.
"""

from __future__ import annotations

import ast
import io
import json
import os
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "twistfusion")

CLI_CALLS = [
    ["check-ybe", "--n", "2", "--samples", "3", "--json"],
    ["check-ybe", "--n", "3", "--samples", "2"],
    ["check-relations", "--n", "2", "--form", "so", "--modules", "1,1:1/3", "--json"],
    ["check-relations", "--n", "2", "--form", "sp", "--modules", "1:1/3;2:2/5"],
    ["fusion", "--diagram", "2,2", "--n", "2", "--json"],
    ["fusion", "--diagram", "2,1/1", "--n", "3"],
    ["duality", "--diagram", "1,1", "--n", "2", "--form", "sp", "--z", "2/5", "--json"],
    ["irreducible", "--n", "2", "--form", "sp", "--modules", "1:1/3;1:7/5", "--json"],
    ["irreducible", "--n", "3", "--form", "so", "--modules", "1,1:1/3;1:2/5"],
    ["irreducible", "--n", "2", "--form", "sp", "--modules", "1:x"],
    ["scan", "--n", "2", "--form", "sp", "--modules", "1", "--grid", "1/3,1/2,2/3,1", "--jobs", "1"],
    ["scan", "--n", "2", "--form", "sp", "--modules", "1;1", "--grid=1/3;4/3,-1/3,2",
     "--jobs", "1", "--json"],
]
# a symmetric g that is not the identity, for the --g-file path
G_ROWS = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def functions() -> dict:
    """(path, first line) -> (qualified name, line count) of every def in the
    package; the first line is the first decorator's, as in co_firstlineno."""
    out = {}
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        with open(path) as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qual = prefix + child.name
                    out[path, first] = (f"{name}:{child.lineno} {qual}", child.end_lineno - first + 1)
                    visit(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


def traced_runs(seen: set):
    """Run the CLI calls and one round of each workload under the hook."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run as bench  # perfbench/run.py: imports twistfusion from ROOT/src

    api = bench.load_api()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()):
            g_file = os.path.join(tmp, "g.json")
            with open(g_file, "w") as fh:
                json.dump(G_ROWS, fh)
            calls = CLI_CALLS + [["irreducible", "--n", "3", "--form", "so", "--g-file", g_file,
                                  "--modules", "1:1/3;1:2/5", "--json"]]
            for argv in calls:
                try:
                    api.cli.main(argv)
                except SystemExit:
                    pass
            for cls in bench.bench_workloads.WORKLOADS.values():
                wl = cls(1)
                ops = wl.round(api, jobs=1) if "jobs" in vars(cls) else wl.round(api)
                for op in ops:
                    op.run(api)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def main() -> int:
    defs = functions()
    seen: set = set()
    traced_runs(seen)
    reached = {(os.path.abspath(path), line) for path, line in seen}
    unreached = [defs[key] for key in sorted(defs) if key not in reached]
    for label, lines in unreached:
        print(f"{label}  {lines}")
    print(f"reached {len(defs) - len(unreached)} of {len(defs)} functions; "
          f"unreached {len(unreached)} functions, {sum(n for _, n in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
