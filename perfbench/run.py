"""nkg benchmark: one workload run, every workload, or the scaling sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                    # every workload, one after another
    python3 perfbench/run.py --sweep            # non-gating scaling sweep
    python3 perfbench/run.py --record-digests 1-10 [--workload NAME]

A run generates the workload's inputs from the seed, starts set-up probes
and then one measuring worker, each its own single-threaded process, and
prints a readable summary followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json; with
--trace 1 they are the per-layer ones from a traced run. The end-to-end
timings are scaled to a host of fixed speed (see reference.py); the summary
also prints them as the wall clock read them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("eval-story", "normalize-vocab", "query-mix", "ingest")
ITEM = {
    "eval-story": "panel scored",
    "normalize-vocab": "distinct label normalized",
    "query-mix": "query answered",
    "ingest": "panel ingested",
}
SETUP_PROBES = 6  # set-up is also timed in the worker: seven samples a run
WORKER_TIMEOUT = 170
ENV = {
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _worker(workload: str, inputs: Path, *extra: str) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--inputs", str(inputs), *extra]
    done = subprocess.run(command, env={**os.environ, **ENV}, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 probes: int = SETUP_PROBES, pinned: bool = True) -> dict:
    """Generate inputs, time set-up, run the worker; returns its samples.

    Unpinned, the worker ignores digests.json and checks every pass against
    the first one and against the generator's ground truth."""
    import workloads

    inputs = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        workloads.prepare(workload, seed, inputs)
        setups = [_worker(workload, inputs, "--setup-only") for _ in range(probes)]
        extra = ["--seconds", str(seconds), "--seed", str(seed)]
        if not pinned:
            extra.append("--unpinned")
        if trace:
            extra += ["--trace", "--spans", str(WORK / f"spans-{workload}-{seed}.jsonl")]
        result = _worker(workload, inputs, *extra)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    result["setups"] = [(s["setup_s"], s["setup_reference_s"]) for s in setups + [result]]
    return result


def end_to_end(result: dict, scaled: bool = True) -> dict:
    """The gated metrics; `scaled` puts every timing at reference speed."""
    from reference import REFERENCE_S

    def scale(reference_s: float) -> float:
        return REFERENCE_S / reference_s if scaled else 1.0

    rates = [items / (seconds * scale(ref)) for seconds, items, ref in result["passes"]]
    setups = [seconds * scale(ref) for seconds, ref in result["setups"]]
    return {
        "items_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    def unit(name: str) -> str:
        for suffix, u in (("_ms", "ms"), ("_s", "s"), ("_yield", "ratio")):
            if name.endswith(suffix):
                return u
        return "count"

    return {name: {"value": value, "unit": unit(name)}
            for name, value in sorted(result["layers"].items())}


def summary(workload: str, seed: int, result: dict, metrics: dict) -> list[str]:
    import tracer
    from reference import REFERENCE_S

    passes = result["passes"]
    lines = [
        f"{workload} seed {seed}: {len(passes)} passes of "
        f"{passes[0][1] if passes else 0} items (item = {ITEM[workload]}), "
        f"output digest {result['digest_status']}: {str(result['digest'])[:16]}",
        f"  error_rate {result['failed'] / max(result['attempted'], 1):.4g} "
        f"({result['failed']} failed of {result['attempted']} operations)",
    ]
    lines += [f"  failure: {message}" for message in result["failures"]]
    if result["latencies"]:
        p50, p99 = tracer.percentiles(result["latencies"], (50, 99))
        lines.append(f"  query latency p50 {p50 * 1000:.3f} ms, p99 {p99 * 1000:.3f} ms "
                     f"over {len(result['latencies'])} queries")
    counts = {"items_per_s": f"median of {len(passes)} passes",
              "setup_s": f"median of {len(result['setups'])} set-ups"}
    wall = end_to_end(result, scaled=False) if passes else {}
    for name, metric in metrics.items():
        note = counts.get(name, "")
        if name in counts and name in wall:
            note += f", {wall[name]['value']:.6g} by the wall clock"
        lines.append(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    if passes:
        references = [ref for *_, ref in passes]
        lines.append(f"  host reference median {statistics.median(references):.4f} s "
                     f"(range {min(references):.4f}-{max(references):.4f} s), "
                     f"timings scaled to {REFERENCE_S} s")
    return lines


def one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    result = run_workload(workload, seed, seconds, trace)
    metrics = per_layer(result) if trace else end_to_end(result)
    print("\n".join(summary(workload, seed, result, metrics)))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def every_workload(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own processes, never two at once."""
    command = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)), "--workload"]
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(command + [workload], stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="")
        status = status or done.returncode
    return status


def record_digests(seeds: list[int], path: Path = BENCH / "digests.json",
                   names: tuple[str, ...] = WORKLOADS) -> int:
    """Pin each seed's output digest, replacing any pinned before; writes
    nothing unless every pass passes its ground-truth checks."""
    recorded = json.loads(path.read_text())
    for workload in names:
        for seed in seeds:
            result = run_workload(workload, seed, 0, False, probes=0, pinned=False)
            if result["failed"]:
                print(f"{workload} seed {seed}: checks failed, not recorded: "
                      f"{result['failures']}", file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(seed)] = result["digest"]
            print(f"{workload} seed {seed}: {result['digest']}")
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


def _seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nkg benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="scaling sweep at 200 to 10k panels (not gating)")
    parser.add_argument("--record-digests", metavar="FIRST-LAST",
                        help="pin output digests of the seed code for these seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nkg" / "__init__.py").is_file():
        print(f"error: no nkg sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(ENV)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    WORK.mkdir(parents=True, exist_ok=True)

    if args.sweep:
        import sweep

        print(json.dumps(sweep.sweep(args.seed), indent=2))
        return 0
    if args.record_digests:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        return record_digests(_seeds(args.record_digests), names=names)
    if args.workload == "all":
        return every_workload(args.seed, args.seconds, bool(args.trace))
    return one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
