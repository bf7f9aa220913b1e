"""Measuring process: set up one workload, run timed passes, check outputs.

Started by run.py with PYTHONPATH holding src/ and perfbench/, one worker
per run, single-threaded. It prints one JSON line with the raw samples;
run.py turns them into the reported metrics. Set-up and every pass are
followed by a run of reference.reference(), which times the host's current
speed; run.py scales the timings by it.

    python3 worker.py --workload NAME --inputs DIR --seconds S --seed N
                      [--trace] [--spans PATH] [--setup-only] [--unpinned]
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start before any import
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import reference  # noqa: E402

MAX_FAILURE_MESSAGES = 5


def _setup(name: str, inputs: Path):
    """(workload, set-up seconds): imports, lexicon, provider, loaded graphs."""
    import workloads  # imports nkg, numpy included

    imported = time.perf_counter()
    workload = workloads.WORKLOADS[name](inputs)  # reads the sidecar: not set-up
    start = time.perf_counter()
    workload.setup()
    return workload, (imported - _IMPORT_START) + (time.perf_counter() - start)


class Run:
    """Timed passes of one workload, with every output checked."""

    def __init__(self, workload, expected_digest: str | None,
                 reference_s: float | None = None):
        self.workload = workload
        self.last_reference = reference() if reference_s is None else reference_s
        self.expected = expected_digest
        self.first_digest: str | None = None
        self.digest_status = "unverified" if expected_digest is None else "verified"
        # (seconds, items, mean reference seconds just before and after)
        self.passes: list[tuple[float, int, float]] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, ops: int, messages: list[str]) -> None:
        self.failed += ops
        self.failures.extend(messages[: MAX_FAILURE_MESSAGES - len(self.failures)])

    def one_pass(self) -> float | None:
        gc.collect()  # no pass pays for garbage an earlier one left
        start = time.perf_counter()
        try:
            output, items, latencies = self.workload.run_pass()
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
            self.attempted += 1
            self._fail(1, [f"pass raised {exc!r}"])
            return None
        seconds = time.perf_counter() - start
        after = reference()
        reference_s = (self.last_reference + after) / 2
        self.last_reference = after
        ops = len(latencies) if latencies is not None else 1
        self.attempted += ops
        try:
            failed, messages = self._checked(output, ops)
        except Exception as exc:  # noqa: BLE001 - an output that cannot be checked failed
            failed, messages = ops, [f"checking the output raised {exc!r}"]
        if failed:
            self._fail(failed, messages)
        self.passes.append((seconds, items, reference_s))
        self.latencies.extend(latencies or ())
        return seconds

    def _checked(self, output, ops: int) -> tuple[int, list[str]]:
        """(failed operations, messages) for one pass's output."""
        digest = self.workload.digest(output)
        self.first_digest = self.first_digest or digest
        reference = self.expected or self.first_digest
        if digest != reference:
            self.digest_status = "mismatch"
            return ops, [f"output digest {digest[:12]} != expected {reference[:12]}"]
        failures = self.workload.check(output)
        return min(len(failures), ops), failures

    def until(self, seconds: float) -> int:
        """Run passes until `seconds` have gone by, at least one; returns the count."""
        start = time.perf_counter()
        count = 0
        while count == 0 or time.perf_counter() - start < seconds:
            self.one_pass()
            count += 1
        return count


def _traced(run: Run, seconds: float, seed: int, spans_path: str | None) -> dict:
    """A warm-up pass, untraced passes for half the window, traced ones for the rest."""
    import statistics

    import tracer

    run.one_pass()  # fills long-lived caches, so both halves below run warm
    untraced_from = len(run.passes)
    run.until(seconds / 2)
    nkg_modules = {
        name: module for name, module in sys.modules.items()
        if name == "nkg" or name.startswith("nkg.") or name == "workloads"
    }
    trace = tracer.Tracer(run_id=f"{seed}")
    traced_from = len(run.passes)
    trace.install(nkg_modules)
    try:
        count = run.until(seconds / 2)
    finally:
        trace.restore()

    def median_pass(passes) -> float:
        return statistics.median(s for s, *_ in passes) if passes else 0.0

    untraced = median_pass(run.passes[untraced_from:traced_from])
    traced = median_pass(run.passes[traced_from:])
    layers = trace.metrics(count)
    layers["trace.untraced_pass_s"] = untraced
    layers["trace.overhead_s"] = traced - untraced if traced and untraced else 0.0
    layers["trace.spans"] = len(trace.spans)
    if spans_path:
        with open(spans_path, "w") as fh:
            for record in trace.span_records():
                fh.write(json.dumps(record) + "\n")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--unpinned", action="store_true",
                        help="ignore digests.json: check against the first pass and ground truth")
    args = parser.parse_args(argv)

    workload, setup_s = _setup(args.workload, Path(args.inputs))
    result: dict = {"setup_s": setup_s, "setup_reference_s": reference()}
    if not args.setup_only:
        recorded = {} if args.unpinned else json.loads(
            (Path(__file__).parent / "digests.json").read_text())
        run = Run(workload, recorded.get(args.workload, {}).get(str(args.seed)),
                  result["setup_reference_s"])
        if args.trace:
            result["layers"] = _traced(run, args.seconds, args.seed, args.spans)
        else:
            run.until(args.seconds)
        result.update(
            passes=run.passes,
            latencies=run.latencies,
            attempted=run.attempted,
            failed=run.failed,
            failures=run.failures,
            digest=run.first_digest,
            digest_status=run.digest_status,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
