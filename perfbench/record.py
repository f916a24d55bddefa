"""Record the sha256 digest of every checked output at the default seed.

Usage, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record.py

Each workload runs once with one thread, so the threaded m6 map of the
maps workload is checked against sequential output.  Writes ``perfbench/references.json``.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    references = {}
    for name in workloads.WORKLOADS:
        workdir = run.WORK / "record" / name
        workloads.generate(name, workloads.DEFAULT_SEED, workdir)
        worker = run.spawn(name, workdir, workloads.DEFAULT_SEED, False, 1, 0.0,
                           run.RUN_LIMIT_S)
        result = worker["runs"][0]
        if "crashed" in result or len(result["digests"]) != result["attempted"]:
            print(f"{name}: not every operation gave an output: {result}", file=sys.stderr)
            return 1
        references[name] = result["digests"]
        print(f"{name}: {len(result['digests'])} digests")
    (run.HERE / "references.json").write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
