"""sporbits benchmark: one workload per invocation, single process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/sporbits`.  The workloads
and why each was chosen are described in `workloads.py`; metric names,
units and bounds are listed in `BENCHMARK.json` at the root of the checkout.

A run first times `import sporbits` in fresh interpreters (`setup_s`, the
median of several), then repeats whole passes over the workload's cases
until `--seconds` have gone by.  Before every case the process-wide
`functools` caches of sporbits are emptied, as a new CLI process would find
them, and the garbage collector is run; the oracle check of each output
happens outside the timed region.

* `--trace 0` prints the end-to-end metrics: medians over passes of the pass
  time (`cpu_s`) and of its slowest case (`slowest_case_cpu_s`), `setup_s`
  and the process's peak resident memory.
* `--trace 1` runs one untraced pass, then traced passes (see `tracer.py`),
  and prints the per-layer metrics: medians over the traced passes, the
  tracing overhead as traced over untraced pass time, and the share of
  cases that failed.

Times are CPU seconds of the timed process (`time.process_time`), scaled to
the reference speed by the samples of `calibrate.Sampler`.  The workloads
are single-threaded, CPU-bound and do no I/O, so on an idle machine this is
their wall-clock time.  On a shared virtual machine, wall-clock time also
counts the time the hypervisor gives the CPU to others (runs of the same
code differed by up to 70 %), and raw CPU time follows the host's changing
speed (by up to a factor of two within minutes).  Raw CPU and wall-clock
times are still recorded per case in the details file.

Both print human-readable lines first and one JSON object as the last line
of standard output; details (metadata, per-case times, the per-span table)
go to `.bench_out/` in the checkout, spans of a traced run to a JSONL file
beside them.  The exit code is 0 when every output was correct, 1 when some
were not, and 2 when the run could not start (e.g. no `src/sporbits`).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 15
SETUP_CODE = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
import calibrate
samples = [calibrate.probe() for _ in range(3)]
start = time.process_time()
import sporbits
spent = time.process_time() - start
samples += [calibrate.probe() for _ in range(3)]
print(spent * calibrate.REFERENCE_S / statistics.median(samples))
"""


def measure_setup() -> list[float]:
    """Seconds to import sporbits, each in a fresh interpreter and scaled to
    the reference speed; the first import (which may compile bytecode) is
    not counted."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import sporbits failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


class Caches:
    """The functools caches of sporbits: emptied before every case, with
    their hit and miss counts summed per pass."""

    def __init__(self, package_modules):
        self.caches = {
            f"{mod.__name__.rsplit('.', 1)[-1]}.{name}": obj
            for mod in package_modules
            for name, obj in vars(mod).items()
            if callable(getattr(obj, "cache_clear", None))
            and callable(getattr(obj, "cache_info", None))
            and getattr(obj, "__module__", None) == mod.__name__
        }
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    def new_pass(self) -> None:
        self.clear()
        self.hits = dict.fromkeys(self.caches, 0)
        self.misses = dict.fromkeys(self.caches, 0)

    def clear(self) -> None:
        for name, cache in self.caches.items():
            info = cache.cache_info()
            if name in self.hits:
                self.hits[name] += info.hits
                self.misses[name] += info.misses
            cache.cache_clear()

    def hit_ratio(self, name: str) -> float:
        total = self.hits.get(name, 0) + self.misses.get(name, 0)
        return self.hits[name] / total if total else 0.0


def run_pass(cases, caches: Caches, sampler, tracer=None) -> dict:
    """Run every case once; returns per-case CPU seconds and failure messages.

    The pass runs under the speed sampler (see calibrate.py); its CPU time is
    taken out of each case, and `speed` scales the pass to the reference
    speed."""
    caches.new_pass()
    if tracer is not None:
        tracer.reset()
    first_sample = len(sampler.samples)
    times: dict[str, float] = {}
    wall: dict[str, float] = {}
    failures: dict[str, str] = {}
    cross_check: list[dict] = []
    sampler.start()
    try:
        for case in cases:
            caches.clear()
            gc.collect()
            if tracer is not None:
                tracer.case = case.id
            start, start_wall = sampler.clock(), time.perf_counter()
            out = error = None
            try:
                out = case.run()
            except Exception:  # a crash is a failed case, the run goes on
                error = traceback.format_exc(limit=3)
            times[case.id] = sampler.clock() - start
            wall[case.id] = time.perf_counter() - start_wall
            if error is None:
                try:
                    error = case.check(out)
                except Exception:
                    error = "oracle check raised:\n" + traceback.format_exc(limit=3)
            if error:
                failures[case.id] = error
            elif tracer is not None and case.reported_timings is not None:
                cross_check.append({"case": case.id, "reported": case.reported_timings(out)})
            del out
    finally:
        sampler.stop()
    caches.clear()
    if tracer is not None:
        spans = {c: (l, r, k) for c, l, r, k in tracer.phases}
        for row in cross_check:
            row["from_spans"] = dict(zip(("left_seconds", "right_seconds", "compare_seconds"), spans.get(row["case"], ())))
    samples = sampler.samples[first_sample:]
    speed = calibrate.REFERENCE_S / statistics.median(samples) if samples else 1.0
    return {
        "raw_cpu_s": sum(times.values()),
        "cpu_s": speed * sum(times.values()),
        "slowest_case_cpu_s": speed * max(times.values()),
        "speed": speed,
        "samples": len(samples),
        "wall_clock_s": sum(wall.values()),
        "raw_cpu_times": times,
        "wall_clock_times": wall,
        "failures": failures,
        "timings_cross_check": cross_check,
    }


def metadata(args, package) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "sporbits").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "sporbits_file": os.path.relpath(package.__file__, ROOT),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sporbits" / "__init__.py").is_file():
        print(f"error: no sporbits package under {SRC}", file=sys.stderr)
        return 2
    try:
        setup_times = measure_setup()
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    package = importlib.import_module("sporbits")
    if Path(package.__file__).resolve().parent != (SRC / "sporbits").resolve():
        print(f"error: imported sporbits from {package.__file__}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    modules = [importlib.import_module(f"sporbits.{m}") for m in tracing.MODULES]
    caches = Caches(modules)
    rng = random.Random(f"{args.workload}:{args.seed}")
    cases = workloads.WORKLOADS[args.workload](rng)

    passes: list[dict] = []
    traced: list[dict] = []
    sampler = calibrate.Sampler()
    tracer = tracing.Tracer(sampler.clock) if args.trace else None
    deadline = time.perf_counter() + args.seconds
    passes.append(run_pass(cases, caches, sampler))
    if tracer is not None:
        # one untraced pass as the base of the overhead ratio, then traced ones
        tracer.install()
        try:
            while True:
                result = run_pass(cases, caches, sampler, tracer)
                result["layers"] = layer_metrics(spec, tracer, caches, result, passes[0])
                result["span_table"] = tracer.table()
                traced.append(result)
                if time.perf_counter() >= deadline:
                    break
        finally:
            tracer.uninstall()
    else:
        while time.perf_counter() < deadline:
            passes.append(run_pass(cases, caches, sampler))

    every = passes + traced
    attempted = sum(len(p["raw_cpu_times"]) for p in every)
    failed = sum(len(p["failures"]) for p in every)
    error_rate = failed / attempted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "slowest_case_cpu_s": statistics.median(p["slowest_case_cpu_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layers = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
        layers["error_rate"] = error_rate
        reported = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        reported = {m["name"]: (end_to_end[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    meta = metadata(args, package)
    what, roadmap, select, combine = workloads.BASELINES[args.workload]
    raw_baseline = [combine([t for cid, t in p["raw_cpu_times"].items() if select(cid)]) for p in passes]
    baseline = statistics.median(p["speed"] * t for p, t in zip(passes, raw_baseline))

    for key in ("python", "nproc", "cpu_model", "git_commit", "seed"):
        print(f"# {key}: {meta[key]}")
    print(f"# passes: {len(passes)} untraced, {len(traced)} traced; cases per pass: {len(cases)}")
    print(
        f"# baseline: {what}: {baseline:.3f} s at reference speed, "
        f"{statistics.median(raw_baseline):.3f} s raw CPU; ROADMAP {roadmap}"
    )
    print(f"# error_rate: {error_rate} ({failed} of {attempted} cases)")
    checked = [r for p in traced for r in p["timings_cross_check"] if r["from_spans"]]
    if checked:
        # spans are CPU seconds, the report wall seconds rounded to 1 ms
        worst = max(abs(r["from_spans"][k] - r["reported"].get(k, 0.0)) for r in checked for k in r["from_spans"])
        print(f"# DegenerationReport.timings vs spans: largest difference {worst:.3f} s over {len(checked)} reports")
    for p in every:
        for cid, message in p["failures"].items():
            print(f"# FAILED {cid}: {message.strip()}")
    for name, (value, unit) in reported.items():
        print(f"{name} = {value:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "metadata": meta,
        "setup_times_s": setup_times,
        "end_to_end": end_to_end,
        "error_rate": error_rate,
        "baseline": {"what": what, "roadmap": roadmap, "measured_s": baseline, "raw_cpu_s": raw_baseline},
        "passes": passes,
        "traced_passes": traced,
    }
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1, default=str))
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0 if correct else 1


def layer_metrics(spec, tracer, caches: Caches, traced_pass: dict, untraced_pass: dict) -> dict:
    """Every per-layer metric of one traced pass except error_rate; times are
    scaled to the reference speed like the pass time."""
    special = {
        "permutations.rank_matrix.cache_hit_ratio": caches.hit_ratio("permutations._rank_matrix"),
        "trace.overhead_ratio": traced_pass["cpu_s"] / untraced_pass["cpu_s"],
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in special:
            out[name] = special[name]
        elif name != "error_rate":
            value = tracer.value(name)
            out[name] = value * traced_pass["speed"] if m["unit"] == "s" else value
    return out


if __name__ == "__main__":
    sys.exit(main())
