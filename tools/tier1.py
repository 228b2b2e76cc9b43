"""Run the tier-1 suite once and judge it against the one known red test.

    python3 tools/tier1.py

Runs ROADMAP.md's tier-1 command (`python -m pytest -q
--continue-on-collection-errors` from the repository root with `src` first
on PYTHONPATH) with `--junitxml` to a temporary file, then prints pytest's
wall time and the node id of every failing test. The exit status is 0 only
if the failing set is exactly `KNOWN_RED` and no module failed to collect,
else 1. Criterion 10b is a verified defect of the paper's path gadget: it
still runs and it must fail, and nothing is skipped or deselected.

Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN_RED = frozenset({"tests/test_acceptance.py::test_criterion_10b_path_reduction_soundness"})


def verdict(failed: set[str], collection_errors: int) -> int:
    """0 when exactly the known red test failed and everything collected, else 1."""
    return 0 if failed == KNOWN_RED and not collection_errors else 1


def node_id(classname: str, name: str) -> str:
    """The pytest node id that junitxml wrote as (classname, name): the
    dotted classname starts with the test file's path, which is the longest
    of its prefixes naming a `.py` file under the repository root."""
    parts = classname.split(".")
    for k in range(len(parts), 0, -1):
        path = "/".join(parts[:k]) + ".py"
        if (ROOT / path).is_file():
            return "::".join([path, *parts[k:], name])
    return "::".join([*parts, name])


def read_report(path: Path) -> tuple[float, set[str], int]:
    """(pytest's wall time, failing node ids, modules that failed to collect)."""
    suite = ET.parse(path).getroot()
    if suite.tag == "testsuites":
        suite = suite.find("testsuite")
    failed, collection_errors = set(), 0
    for case in suite.iter("testcase"):
        error = case.find("error")
        if error is not None and error.get("message") == "collection failure":
            collection_errors += 1
        elif case.find("failure") is not None or error is not None:
            failed.add(node_id(case.get("classname", ""), case.get("name", "")))
    return float(suite.get("time", "nan")), failed, collection_errors


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", f"--junitxml={report}"]
        subprocess.run(command, cwd=ROOT, env=env)
        if not report.is_file():
            sys.stderr.write("error: pytest wrote no junit report\n")
            return 1
        seconds, failed, collection_errors = read_report(report)
    print(f"tier-1: {seconds:.1f} s (pytest's wall time)")
    for node in sorted(failed):
        print(f"failed: {node}{' (known red)' if node in KNOWN_RED else ''}")
    for node in sorted(KNOWN_RED - failed):
        print(f"known red test did not fail: {node}")
    if collection_errors:
        print(f"collection errors: {collection_errors}")
    code = verdict(failed, collection_errors)
    print("tier-1 no worse than the known red set" if code == 0 else "tier-1 differs from the known red set")
    return code


if __name__ == "__main__":
    sys.exit(main())
