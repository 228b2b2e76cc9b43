"""Rebuild golden.json: the digest of every op any workload seed can draw.

    python3 perfbench/make_golden.py [workload ...]

Each pool group is built and each of its ops run once; the outputs must pass
every check in checks.py before their digests are recorded. Run it only at a
commit whose outputs are known good: later commits are checked against it.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    run._import_fza()
    import workloads
    from checks import GOLDEN, Checker

    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for name in argv or workloads.WORKLOADS:
        runner = run.Runner(name, 0)
        digests: dict[str, str] = {}
        for fn, args in workloads.pool_groups(name):
            group = workloads.build_group(fn, args, runner.work)
            checker = Checker(group, None)
            runner.run_ops(group.ops, checker)
            checker.cross_check()
            if checker.bad:
                print("\n".join(f"{k}: {r}" for k, r in checker.bad.items()), file=sys.stderr)
                return 1
            digests.update(checker.digest)
        golden[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
