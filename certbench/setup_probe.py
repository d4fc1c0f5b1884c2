"""Set-up cost in a fresh interpreter: import kkt2, then build or parse the
problem and the point, as a CLI call does before any check runs.

Usage: python3 setup_probe.py SRC_DIR SPEC_JSON.  Prints the seconds taken,
then the mean time of the host-speed kernel (hostspeed.py) right after.
SPEC_JSON is {"builtin": name, "size": n} or {"files": [[problem, point or null], ...]}.
"""

import json
import sys
import time

KERNEL_SAMPLES = 10

spec = json.loads(sys.argv[2])
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import kkt2  # noqa: E402

if "builtin" in spec:
    from kkt2.examples import build_example1, build_example2

    build = build_example1 if spec["builtin"] == "example1" else build_example2
    build(spec["size"])
else:
    from kkt2.problem_file import parse_point, parse_problem

    for problem_path, point_path in spec["files"]:
        with open(problem_path, encoding="utf-8") as fh:
            problem, _ = parse_problem(fh.read()).build()
        if point_path is not None:
            with open(point_path, encoding="utf-8") as fh:
                parse_point(fh.read(), problem.dim)
setup_s = time.perf_counter() - start

from hostspeed import _kernel, kernel_time  # noqa: E402  (numpy is loaded by now)

_kernel()  # first call pays for lazy initialisation
kernel_s = sum(kernel_time() for _ in range(KERNEL_SAMPLES)) / KERNEL_SAMPLES
print(repr(setup_s), repr(kernel_s))
