"""Rewrite references.json from one seed-0 pass of every workload.

    python3 perfbench/freeze.py

Each output is first checked by the independent routes in ``validate.py``
alone; the file is written only when every check passes.  Library outputs
are stored as values (QP results by their ratio), CLI outputs by the SHA-256
of their stdout bytes.
"""

from __future__ import annotations

import json
import sys

import run
import validate
import workloads


def main() -> int:
    refs = {}
    for workload in workloads.WORKLOADS:
        prm = workloads.params(workload, 0)
        out = run.run_pass(workload, 0)
        _, failed, messages = run.check(workload, 0, prm, [out], use_refs=False)
        if failed:
            print("\n".join(messages), file=sys.stderr)
            return 1
        refs[workload] = {
            r["task"]: ({"sha256": validate.digest(r["stdout"]), "bytes": len(r["stdout"].encode())}
                        if "stdout" in r else validate.frozen_value(r["task"], r["output"]))
            for r in out["results"]
        }
    refs["checked_by"] = validate.ROUTES
    validate.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {validate.REFERENCES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
