"""Benchmark of the domcover command line: time to a checked answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop, in one process with no extra threads: each op
is a call of domcover.cli.main in this process, with stdout and stderr
captured, and the next op starts only after the previous one has finished.
A run makes whole passes over the workload's op list, which the seed fixes,
until the ops' own wall time reaches --seconds, so the mix of ops does not
depend on how fast the code is.  Every answer is checked (workloads.py);
an op fails when it raises, exits nonzero, answers wrongly, or prints other
bytes than an earlier run of the same op.

Set-up is a child process that imports domcover, generates the instances and
writes the edge-list files, followed by a warm-up here that runs each op
shape twice on a small instance and requires byte-identical stdout.  It is
repeated (three times on the large workload, seven on the small ones) and
setup_s is the median round.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the time as
usual and half with spans around domcover's public functions (spans.py),
and prints the per-layer metrics; the spans are written to
perfbench/out/spans-WORKLOAD-SEED.jsonl.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from spans import COUNTS, END, NAME, PARENT, START, Tracer
from workloads import ROOT, WORKLOADS, load_domcover

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_TIMEOUT_S = 150

# per-layer metric -> span name; the value is mean self seconds per call
PER_CALL_S = {
    "graph.parse_s": "graph.parse",
    "graph.build_s": "graph.build",
    "graph.write_s": "graph.write",
    "families.generate_s": "families.generate",
    "graph.blocks_s": "graph.blocks",
    "graph.is_block_graph_s": "graph.is_block_graph",
    "blockdp.cut_tree_s": "blockdp.cut_tree",
    "blockdp.solve_min_s": "blockdp.solve_min",
    "blockdp.solve_max_s": "blockdp.solve_max",
    "treedp.root_s": "treedp.root",
    "treedp.solve_min_s": "treedp.solve_min",
    "treedp.solve_max_s": "treedp.solve_max",
    "oracle.gamma_s": "oracle.gamma",
    "oracle.gamma_total_s": "oracle.gamma_total",
    "oracle.cover_extrema_s": "oracle.cover_extrema",
    "oracle.total_cover_extrema_s": "oracle.total_cover_extrema",
    "oracle.enumerate_s": "oracle.enumerate",
    "families.audit_bounds_s": "families.audit_bounds",
    "products.lex_product_s": "products.lex_product",
    "products.closed_form_s": "products.closed_form",
    "products.validate_s": "products.validate",
}
# These layers run in set-up on dp-large; their set-up spans
# count when the ops never call them.
SETUP_LAYERS = ("graph.write", "families.generate")
# per-layer metric -> (span name prefix, count); the value is the mean per span
PER_SPAN_COUNT = {
    "graph.n": ("graph.build", "n"),
    "graph.m": ("graph.build", "m"),
    "blockdp.blocks": ("blockdp.cut_tree", "blocks"),
    "blockdp.cut_vertices": ("blockdp.cut_tree", "cut_vertices"),
    "treedp.witness_size": ("treedp.solve_", "witness"),
}


def run_op(cli_main, argv: list[str], tracer: Tracer | None):
    """One CLI call: (seconds, exit code or None, stdout, exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("op") if tracer else None
    start = perf_counter()
    rc, exc = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli_main(argv)
    except Exception as e:  # counted as a failed op; the run goes on
        exc = e
    elapsed = perf_counter() - start
    if span:
        tracer.close(span)
    return elapsed, rc, out.getvalue(), exc


class Run:
    """Counts and latencies of the ops of one run, across its phases."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.ops: list[list[str]] = []
        self.checker = None
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: FAILED {what}: {reason}", file=sys.stderr)

    def warmup(self, ops: list[list[str]]) -> None:
        for argv in ops:
            outs = []
            for _ in range(2):
                self.attempted += 1
                _, rc, stdout, exc = run_op(self.cli_main, argv, None)
                if exc or rc != 0:
                    self.fail(" ".join(argv), repr(exc) if exc else f"exit code {rc}")
                outs.append(stdout)
            if outs[0] != outs[1]:
                self.fail(" ".join(argv), "a repeated op printed other bytes")

    def phase(self, seconds: float, tracer: Tracer | None = None):
        """Whole passes until the ops' wall time reaches seconds.

        Returns (latencies, correct ops, passes)."""
        latencies: list[float] = []
        correct = passes = 0
        while passes == 0 or sum(latencies) < seconds:
            errors = {}
            for i, argv in enumerate(self.ops):
                if tracer:
                    tracer.op = self.attempted
                self.attempted += 1
                elapsed, rc, stdout, exc = run_op(self.cli_main, argv, tracer)
                latencies.append(elapsed)
                errors[i] = self._check(i, rc, stdout, exc)
            passed = {i for i, reason in errors.items() if reason is None}
            for i, reason in self.checker.check_pass(passed).items():
                errors[i] = errors[i] or reason
            for i, reason in errors.items():
                if reason:
                    self.fail(" ".join(self.ops[i]), reason)
                else:
                    correct += 1
            passes += 1
        return latencies, correct, passes

    def _check(self, i, rc, stdout, exc) -> str | None:
        if exc:
            return "".join(traceback.format_exception_only(exc)).strip()
        if rc != 0:
            return f"exit code {rc}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            return "stdout differs from an earlier run of the same op"
        try:
            return self.checker.check(i, json.loads(stdout))
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
            return f"malformed answer: {e!r}"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it; the maximum when there are too few ops."""
    s = sorted(latencies)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    return s[-11], 100.0 * (len(s) - 10) / len(s), 10


def per_layer(tracer: Tracer, setup_spans: dict, ops_traced: int, passes: int) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    total = defaultdict(float)
    calls = defaultdict(int)
    for span, t in zip(spans, own):
        total[span[NAME]] += t
        calls[span[NAME]] += 1
    for name in SETUP_LAYERS:
        if not calls[name] and setup_spans.get(name):
            total[name], calls[name] = sum(setup_spans[name]), len(setup_spans[name])

    m = {}
    for metric, name in PER_CALL_S.items():
        m[metric] = (total[name] / calls[name] if calls[name] else 0.0, "s")
    for metric, (prefix, key) in PER_SPAN_COUNT.items():
        values = [s[COUNTS][key] for s in spans if s[NAME].startswith(prefix)]
        m[metric] = (statistics.fmean(values) if values else 0.0, "count")

    def per(count, unit):
        return count / unit if unit else 0.0

    def counted(name, key):
        return sum(s[COUNTS][key] for s in spans if s[NAME] == name)

    m["oracle.calls"] = (per(sum(calls[k] for k in calls if k.startswith("oracle.")), ops_traced), "count")
    m["oracle.gamma_sets"] = (per(counted("oracle.enumerate", "gamma_sets"), ops_traced), "count")
    m["products.pairs"] = (per(calls["products.validate"], passes), "count")
    m["products.formula_mismatches"] = (per(counted("products.validate", "mismatch"), passes), "count")
    m["cli.argparse_s"] = (per(total["cli.argparse"], ops_traced), "s")
    library = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "op" and not span[NAME].startswith("cli."):
            library[span[PARENT]] += span[END] - span[START]
    cli_self = sum(s[END] - s[START] - library[i] for i, s in enumerate(spans) if s[NAME] == "op")
    m["cli.self_s"] = (per(cli_self, ops_traced), "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind normally: subprocess.run kills and reaps the set-up
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    load_domcover()
    from domcover.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(cli_main)
        rounds, setup_spans, info = [], defaultdict(list), None
        for _ in range(workload.setup_rounds):
            start = perf_counter()
            child = subprocess.run(
                [sys.executable, str(HERE / "setup_child.py"), workload.name, str(args.seed), str(workdir)],
                cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
            if child.returncode != 0:
                raise SystemExit(f"perfbench: set-up failed:\n{child.stderr}")
            result = json.loads(child.stdout)
            if info is None:
                info = result["info"]
            elif result["info"] != info:
                run.fail("set-up", "the same seed generated other instances")
            run.warmup(workload.warmup(info))
            rounds.append(perf_counter() - start)
            for name, values in result["spans"].items():
                setup_spans[name].extend(values)

        run.ops, run.checker = workload.ops(info), workload.checker(info)
        if args.trace:
            lat, correct, _ = run.phase(args.seconds / 2)
            plain_rate = correct / sum(lat)
            tracer = Tracer()
            tracer.install()
            lat, correct, passes = run.phase(args.seconds / 2, tracer)
            metrics = per_layer(tracer, setup_spans, len(lat), passes)
            traced_rate = correct / sum(lat)
            metrics["trace.overhead_ratio"] = (traced_rate / plain_rate if plain_rate else 0.0, "ratio")
            tracer.write(str(OUT / f"spans-{workload.name}-{args.seed}.jsonl"))
        else:
            lat, correct, passes = run.phase(args.seconds)
            tail_s, tail_pct, beyond = tail(lat)
            metrics = {
                "setup_s": (statistics.median(rounds), "s"),
                "ops_per_s": (correct / sum(lat), "1/s"),
                "op_p50_s": (statistics.median(lat), "s"),
                "op_tail_s": (tail_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print(f"op_tail_s is p{tail_pct:.1f} of {len(lat)} ops, {beyond} beyond it; {passes} passes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatches = getattr(run.checker, "mismatches", None)
    if mismatches is not None:
        print(f"closed-form disagreements with the oracle: {mismatches} over all passes")
    print(f"fail_ratio: {run.failed / run.attempted:.6f} ({run.failed} of {run.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
