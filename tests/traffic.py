"""Traffic: the lines of src/cachelab that the benchmark's workloads never run.

Run from the repository root with `python3 tests/traffic.py [--scale smoke|full]`
(default full, the size the benchmark measures). It starts `sys.settrace`, limited to
src/cachelab, before cachelab is imported, then builds the inputs of each perfbench
workload at seed 0 and runs one pass over them, importing perfbench read-only as
tests/hashes.py does. It prints, per module, each executable line that no pass ran,
with its text, so a review can see which code the workloads time and which they skip.
It needs no coverage package. pytest does not collect this file.
"""

import argparse
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cachelab"
WORKLOADS = ("sweep", "uplift", "churn", "bayes")


def executable_lines(path):
    """The numbers of the lines that hold bytecode in the module at path (a module's
    entry instruction sits on line 0, which holds no source)."""
    lines, todo = set(), [compile(Path(path).read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def tracer(ran):
    """A sys.settrace function that adds to ran[filename] each line run in the package."""
    prefix = f"{PACKAGE}/"

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = ran[frame.f_code.co_filename]
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            lines.add(frame.f_lineno)
            return line
        return line
    return call


def run_workloads(scale):
    """{module path: the line numbers run} over one pass of every workload."""
    ran = defaultdict(set)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.settrace(tracer(ran))  # before the import, so that module-level lines count
    try:
        import workloads
        for name in WORKLOADS:
            workloads.run_pass(workloads.build_inputs(name, 0, scale))
    finally:
        sys.settrace(None)
    return ran


def main(argv):
    parser = argparse.ArgumentParser(prog="traffic.py", description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    args = parser.parse_args(argv)
    ran = run_workloads(args.scale)
    total = unrun_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        unrun = sorted(executable - ran[str(path)])
        total, unrun_total = total + len(executable), unrun_total + len(unrun)
        name = path.relative_to(ROOT)
        if not ran[str(path)]:  # its module-level lines run on import
            print(f"{name}: all {len(executable)} executable lines unrun (no workload imports it)")
            continue
        print(f"{name}: {len(unrun)} of {len(executable)} executable lines unrun")
        text = path.read_text().splitlines()
        for number in unrun:
            print(f"{number:5}  {text[number - 1].rstrip()}")
    print(f"{unrun_total} of {total} executable lines unrun by one {args.scale}-scale pass "
          f"of {', '.join(WORKLOADS)} at seed 0")


if __name__ == "__main__":
    main(sys.argv[1:])
