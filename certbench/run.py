"""Certification-run benchmark for kkt2.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file).  One process, closed loop: one certification at a time.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with the
package untouched (cert_s and setup_s are taken at the reference host
speed of hostspeed.py); --trace 1 installs the span tracer and reports the
per-layer metrics.  Either way every report is checked against the
workload's reference, and the last stdout line is the JSON result.  Exit
code 1 means a result was wrong (``correct`` is false); 2 means the
benchmark could not run (for example, no kkt2 sources next to it).
See certbench/BENCHMARK.md.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for this process and the set-up probes; must be set
# before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeedProbe, at_reference  # noqa: E402
from tracer import (  # noqa: E402
    Tracer, TracerError, check_names, evidence, layer_modules, layer_stats)
from workloads import WORKLOADS, replay_witnesses  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".certbench"

SETUP_PROBES = 15       # fresh interpreters per run for setup_s
# Set-up (imports, mostly numpy's) slows 1.3x where the host-speed kernel
# slows 1.8x: log-log slope about 0.4 (see BENCHMARK.md, "Host speed").
SETUP_ELASTICITY = 0.4
MIN_TIMED_CYCLES = 2    # timed passes over the workload's instances, at least
MIN_TRACED_CYCLES = 2   # traced passes, at least (count determinism needs two)
PROBE_TIMEOUT_S = 60


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------


def setup_probe(spec: dict) -> tuple[float, float]:
    """Set-up time of one fresh interpreter (setup_probe.py), raw and at the
    reference host speed."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(spec)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()}")
    setup_s, kernel_s = map(float, proc.stdout.split())
    return setup_s, at_reference(setup_s, kernel_s, SETUP_ELASTICITY)


class Runner:
    """Runs passes over a workload's instances and keeps the tally."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.defects: list[str] = []
        self._replayed: set = set()

    def cycle(self, traced: bool, probe: HostSpeedProbe | None = None, seed=None):
        """One certification of every instance.  Returns the wall times (less
        the probe's own time), the times at the reference speed (with
        ``probe``, else empty) and the tracer run ids (empty when untraced).
        ``seed`` is the search seed, the workload seed by default.  Checking
        is not timed."""
        seed = self.workload.seed if seed is None else seed
        walls, refs, runs, outcomes = [], [], [], []
        instances = self.workload.instances()
        if traced:
            self.tracer.install()
        try:
            for instance in instances:
                if traced:
                    runs.append(self.tracer.new_run())
                t0 = time.perf_counter()
                with probe or contextlib.nullcontext():
                    outcomes.append(self.workload.certify(instance, seed))
                walls.append(time.perf_counter() - t0)
                if probe:
                    refs.append(probe.reference_time(walls[-1]))
                    walls[-1] -= probe.own_time()
        finally:
            if traced:
                self.tracer.uninstall()
        for instance, outcome in zip(instances, outcomes):
            self._check(instance, outcome)
        return walls, refs, runs

    def _check(self, instance, outcome) -> None:
        self.workload.check(instance, outcome)
        key = json.dumps([[r[0], r[1], _without_wall_time(r[2]), r[3]] for r in outcome.records],
                         sort_keys=True, default=str)
        if key not in self._replayed:  # identical reports replay identically
            replay_witnesses(outcome)
            if not outcome.errors:
                self._replayed.add(key)
        self.attempted += 1
        self.failed += outcome.failed
        self.errors += outcome.errors
        self.defects += outcome.defects


def _without_wall_time(report):
    if report is None:
        return None
    return {k: v for k, v in report.items() if k != "wall_time_s"}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def layer_value(name: str, stats: dict) -> float:
    """One per-layer metric from tracer.layer_stats of one traced pass."""
    span, field = name.rsplit(".", 1)
    entry = stats.get(span)
    if entry is None:
        return 0
    if field in ("calls", "self_s"):
        return entry[field]
    if field == "yield":
        attrs = entry["attrs"]
        got = attrs["returned"] if "returned" in attrs else attrs["accepted"]
        return got / attrs["requested"] if attrs["requested"] else 0.0
    return entry["attrs"][field]


def is_count(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in ("calls", "rows", "yield")


def run_untraced(runner: Runner, seconds: float, setup_spec: dict) -> dict:
    layer_modules()  # imports every layer, so no timed pass pays for imports
    setup_probe(setup_spec)  # unmeasured: warms the file cache
    probe = HostSpeedProbe()
    walls: list[list[float]] = []  # per instance
    refs: list[list[float]] = []
    setups: list[tuple[float, float]] = []
    start = time.perf_counter()
    cycles = 0
    while cycles < MIN_TIMED_CYCLES or time.perf_counter() - start < seconds:
        cycle_walls, cycle_refs, _ = runner.cycle(traced=False, probe=probe)
        walls = walls or [[] for _ in cycle_walls]
        refs = refs or [[] for _ in cycle_refs]
        for times, wall in zip(walls, cycle_walls):
            times.append(wall)
        for times, ref in zip(refs, cycle_refs):
            times.append(ref)
        cycles += 1
        # set-up probes spread over the run, not bunched at its end
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setups) < SETUP_PROBES * share:
            setups.append(setup_probe(setup_spec))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(setup_spec))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Traced passes after the timed ones (so spans do not count in the peak
    # RSS) count the evidence, which is exact at a fixed seed.
    evidence_counts = []
    for seed in runner.workload.evidence_seeds():
        _walls, _refs, runs = runner.cycle(traced=True, seed=seed)
        evidence_counts.append(evidence(layer_stats(runner.tracer.spans(runs))))
    values = {
        "cert_s": statistics.fmean(statistics.median(t) for t in refs),
        "setup_s": statistics.median(ref for _raw, ref in setups),
        "peak_rss_mb": peak_rss_mb,
        "evidence_n": statistics.fmean(evidence_counts),
        "wall_s": statistics.fmean(statistics.median(t) for t in walls),
        "setup_wall_s": statistics.median(raw for raw, _ref in setups),
        "wall_times_s": walls,
        "reference_times_s": refs,
        "setup_times_s": setups,
        "evidence_counts": evidence_counts,
    }
    print(f"# timed certifications: {cycles} per instance, {len(walls)} instance(s)")
    print(f"# wall times {[[round(x, 4) for x in t] for t in walls]} s, "
          f"median {values['wall_s']!r} s")
    print(f"# at reference speed {[[round(x, 4) for x in t] for t in refs]} s")
    print(f"# set-up (wall, at reference speed) {[(round(a, 4), round(b, 4)) for a, b in setups]}"
          f" s, median wall {values['setup_wall_s']!r} s")
    print(f"# evidence per seed {evidence_counts}")
    return values


def run_traced(runner: Runner, seconds: float, metrics: list[dict]) -> dict:
    runner.cycle(traced=False)  # warm-up, checked but not timed
    traced_walls, untraced_walls, passes = [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_TRACED_CYCLES or time.perf_counter() - start < seconds:
        walls, _refs, runs = runner.cycle(traced=True)
        traced_walls.append(sum(walls))
        passes.append(layer_stats(runner.tracer.spans(runs)))
        walls, _refs, _runs = runner.cycle(traced=False)
        untraced_walls.append(sum(walls))

    counts = [
        {m["name"]: layer_value(m["name"], st) for m in metrics if is_count(m["name"])}
        | {"evidence_n": evidence(st)}
        for st in passes
    ]
    for k, c in enumerate(counts[1:], start=2):
        diff = sorted(n for n in c if c[n] != counts[0][n])
        if diff:
            runner.errors.append(f"traced pass {k} counts differ from pass 1: {diff}")

    values = {}
    for m in metrics:
        name = m["name"]
        if name == "trace.overhead_frac":
            base = statistics.median(untraced_walls)
            values[name] = (statistics.median(traced_walls) - base) / base
        elif is_count(name):
            values[name] = counts[0][name]
        else:
            values[name] = statistics.median(layer_value(name, st) for st in passes)
    values["pass_wall_times_s"] = {"traced": traced_walls, "untraced": untraced_walls}
    print(f"# traced passes: {len(passes)}; wrapped functions: {runner.tracer.wrapped_count}; "
          f"evidence_n {counts[0]['evidence_n']}")
    return values


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "kkt2").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "kkt2" / "__init__.py").is_file():
        print(f"error: no kkt2 sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload.prepare(args.seed, workdir)

    try:
        check_names(m["name"] for m in spec["per_layer"])
        runner = Runner(workload, Tracer())
        if args.trace:
            values = run_traced(runner, args.seconds, spec["per_layer"])
            metrics = spec["per_layer"]
            runner.tracer.dump(workdir / "spans.jsonl")
        else:
            values = run_untraced(runner, args.seconds, workload.setup_spec())
            metrics = spec["end_to_end"]
    except (BenchmarkError, TracerError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = not runner.errors
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    info = {"workload": args.workload, "provenance": provenance(args.seed),
            "failed_frac": runner.failed / runner.attempted,
            "known_defects": sorted(set(runner.defects)), "errors": runner.errors,
            "values": values, "result": result}
    (workdir / "result.json").write_text(json.dumps(info, indent=2, default=str))
    for m in metrics:
        print(f"{m['name']:<36} {values[m['name']]!r:>24} {m['unit']}")
    print(f"failed_frac {info['failed_frac']!r} ({runner.failed} of {runner.attempted} "
          f"certifications)")
    for line in info["known_defects"]:
        print(f"# known defect: {line}")
    for line in sorted(set(runner.errors)):
        print(f"# WRONG: {line}")
    print(f"# provenance: {json.dumps(info['provenance'], sort_keys=True)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
