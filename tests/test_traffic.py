"""tests/traffic.py lists the lines of src/cachelab that the benchmark's workloads
never run. It traces a fresh interpreter, since module-level lines run only on import."""

import ast
import re
import subprocess
import sys

import traffic

HEADER = re.compile(r"^(src/cachelab/\w+\.py): ")
LISTED = re.compile(r"^ *(\d+)  (.*)$")


def listed_lines(output):
    """{module path: {line number: text}} as traffic.py prints them."""
    *body, summary = output.splitlines()
    assert summary.endswith("executable lines unrun by one smoke-scale pass of "
                            "sweep, uplift, churn, bayes at seed 0")
    listed = {}
    for line in body:
        header = HEADER.match(line)
        if header:
            module = listed.setdefault(traffic.ROOT / header[1], {})
        else:
            number, text = LISTED.match(line).groups()
            module[int(number)] = text
    return listed


def function_lines(path, name):
    node = next(node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return set(range(node.lineno, node.end_lineno + 1))


def test_traffic_lists_executable_lines_and_none_that_a_pass_runs():
    out = subprocess.run([sys.executable, traffic.__file__, "--scale", "smoke"],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    listed = listed_lines(out)
    assert set(listed) == set(traffic.PACKAGE.glob("*.py"))
    for path, lines in listed.items():
        assert set(lines) <= traffic.executable_lines(path)
        source = path.read_text().splitlines()
        assert all(source[number - 1].rstrip() == text for number, text in lines.items())
    # every workload's pass runs run_sim or the Bayes engine, and churn's top-3 run ranks rows
    for module, function in [("simkit.py", "run_sim"), ("prefetch.py", "_ranked")]:
        path = traffic.PACKAGE / module
        assert not function_lines(path, function) & set(listed[path])
