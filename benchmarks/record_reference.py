#!/usr/bin/env python3
"""Record benchmarks/reference.json from one verify run per workload.

Usage: python3 benchmarks/record_reference.py

Runs every workload once at the default seed and stores the quantities of
``run.extract`` next to the workload's config.  ``run.py`` then requires
every run at that seed to reproduce them, and every run at any seed to
reproduce the seed-independent diagnostics.  Record only from a commit
whose outputs are trusted, and never to make a failing run pass.
"""

import json
import sys

import run


def main() -> int:
    reference = {}
    for name, config in run.load_workloads().items():
        result = run.Result(workload=name, seed=run.DEFAULT_SEED, trace=0)
        runner = run.Runner(config, run.DEFAULT_SEED,
                            run.OUT / f"reference-{name}", None, result)
        sample, _ = runner.verify()
        if result.failed:
            print(f"{name}: {result.failures}", file=sys.stderr)
            return 1
        report = json.loads(runner.first["report.json"])
        reference[name] = {"config": config, "seed": run.DEFAULT_SEED,
                           "exit_code": sample.code, **run.extract(report)}
        print(f"{name}: exit {sample.code}, {sample.wall_s:.2f} s, "
              f"{report['verdict_summary']}")
    # one line per recorded field keeps the file short and its diffs readable
    body = ",\n".join(
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                      for k, v in ref.items())
        + "\n }"
        for name, ref in reference.items())
    run.REFERENCE.write_text("{\n" + body + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
