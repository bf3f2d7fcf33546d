"""Set-up probe: times ``import thermosdp`` plus problem construction in a
fresh process.

Reads ``{"src": <path>, "specs": [...]}`` as JSON on stdin, prepares the raw
arrays with numpy, then times the import and ``workloads.build`` of every
spec, and prints ``{"setup_s": <seconds>}``.
"""

import json
import sys
import time

import workloads


def main():
    payload = json.load(sys.stdin)
    sys.path.insert(0, payload["src"])
    data = [workloads.raw(spec) for spec in payload["specs"]]
    start = time.perf_counter()
    import thermosdp  # noqa: F401  (the import is part of what is timed)

    problems = [workloads.build(item) for item in data]
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "problems": len(problems)}))


if __name__ == "__main__":
    main()
