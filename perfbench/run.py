#!/usr/bin/env python3
"""hvsim benchmark: a closed loop with one client, one operation at a time.

    python3 perfbench/run.py --workload fiber-sampling --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout; hvsim is imported from its `src/`. Each run
draws its inputs from --seed, runs whole rounds of operations until
--seconds have passed (and at least 150 operations were attempted), checks
every operation's outputs, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the rounds of an untraced half run
again traced, and the metrics are the per-layer ones. Times are
scaled to reference speed (speed.py); unscaled figures go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {"fiber-sampling": "fiber", "chsh-lattice": "lattice", "cli-reports": "reports"}
MIN_OPS = 150  # op_ms_p90 needs ten operations above it; three cli-reports rounds
SETUP_PROBES = 9
WARMUP_ROUND = 2**32  # a round index measured runs never reach
WARMUP_S = 1.0
MIN_ACCOUNTED_PCT = 97.0  # self-check: op time outside every layer span stays below 3%

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Units of the traced run's metrics: the spans' own plus two the loop measures."""
    from spans import UNITS
    return {**UNITS, "cli.report_bytes_per_op": "B/op", "trace.overhead_pct": "%"}


def pin_to_one_cpu() -> None:
    """Keep this process, its set-up probes and numpy's BLAS on one CPU.

    The reference kernel then measures the speed of the CPU the operations
    run on, and the loop stays single-threaded. Call before numpy is imported.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def load_program():
    """Put the checkout's hvsim and the benchmark modules on the path, or exit."""
    if not (SRC / "hvsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hvsim sources under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import hvsim
    if Path(hvsim.__file__).resolve().parent != (SRC / "hvsim").resolve():
        sys.exit(f"perfbench: imported hvsim from {hvsim.__file__}, not from {SRC}")


def workload_module(name: str):
    return __import__(WORKLOADS[name])


# ---------------------------------------------------------------------------
# running operations


class Tally:
    """What one pass of rounds did: counts, per-op times, failure notes.

    Times are scaled to reference speed (see speed.py); the raw_ fields keep
    them as measured.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.ok_ms: list[float] = []
        self.raw_ok_ms: list[float] = []
        self.scales: list[float] = []
        self.report_bytes = 0
        self.unexpected: list[str] = []
        self.fault_failures: dict[str, int] = {}

    def record(self, op, elapsed: float, factor: float, facts, failures) -> None:
        self.attempted += 1
        self.busy_s += elapsed * factor
        self.raw_busy_s += elapsed
        self.scales.append(factor)
        if facts is not None:
            self.report_bytes += facts.get("report_bytes", 0)
        if not failures:
            self.ok_ms.append(1e3 * elapsed * factor)
            self.raw_ok_ms.append(1e3 * elapsed)
            return
        self.failed += 1
        for code, message in failures:
            if code in op.fault_codes:
                self.fault_failures[code] = self.fault_failures.get(code, 0) + 1
            else:
                self.unexpected.append(f"{op.kind}: {code}: {message}")

    def absorb(self, other: "Tally") -> None:
        """Add another pass's counts (not its times) to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        for code, count in other.fault_failures.items():
            self.fault_failures[code] = self.fault_failures.get(code, 0) + count

    def completed_per_s(self, raw: bool = False) -> float:
        return (self.attempted - self.failed) / (self.raw_busy_s if raw else self.busy_s)

    def attempted_per_s(self) -> float:
        return self.attempted / self.busy_s


def timed_run(op, tracer=None, index: int = 0):
    """Run one operation, timed. Returns (seconds, raw result, exception or None)."""
    if tracer is not None:
        tracer.begin_op(index)
    t0 = time.perf_counter()
    try:
        raw, error = op.run(), None
    except Exception as exc:  # a fault in the program is a failed operation
        raw, error = None, exc
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
    return elapsed, raw, error


def verdict(op, raw, error):
    """Check one operation's result. Returns (facts or None, failures)."""
    if error is not None:
        return None, [("raised", f"{type(error).__name__}: {error}")]
    try:
        facts = op.observe(raw)
        return facts, op.judge(facts)
    except Exception as exc:  # output of an unexpected shape
        return None, [("check-raised", f"{type(exc).__name__}: {exc}")]


def run_op(op, kernel, tally: Tally, tracer, before: float):
    """Time one operation, run the reference kernel, check the operation and
    record it. `before` is the kernel time just before; returns (kernel time
    just after, facts, failures)."""
    elapsed, raw, error = timed_run(op, tracer, tally.attempted)
    after = kernel.seconds()
    facts, failures = verdict(op, raw, error)
    tally.record(op, elapsed, kernel.scale(before, after), facts, failures)
    return after, facts, failures


def run_round(module, seed: int, index: int, workdir: Path, tally: Tally, tracer=None) -> None:
    """Run round `index`, with the reference kernel before its first operation
    and after every operation."""
    round_dir = workdir / f"round{index}"
    round_dir.mkdir()
    before = module.KERNEL.seconds()
    for op in module.build_round(seed, index, round_dir):
        before, _, _ = run_op(op, module.KERNEL, tally, tracer, before)
    shutil.rmtree(round_dir)


def run_rounds(module, seed: int, seconds: float, min_ops: int, workdir: Path, tally: Tally) -> int:
    """Run rounds 0, 1, ... until `seconds` have passed and `min_ops` were
    attempted. Returns the number of rounds run."""
    start = time.perf_counter()
    rounds = 0
    while True:
        run_round(module, seed, rounds, workdir, tally)
        rounds += 1
        if time.perf_counter() - start >= seconds and tally.attempted >= min_ops:
            return rounds


def warm_up(module, seed: int, workdir: Path) -> None:
    """Run operations of a round no measured run uses, for about a second."""
    round_dir = workdir / "warmup"
    round_dir.mkdir()
    start = time.perf_counter()
    for op in module.build_round(seed, WARMUP_ROUND, round_dir):
        verdict(op, *timed_run(op)[1:])
        if time.perf_counter() - start >= WARMUP_S:
            break
    shutil.rmtree(round_dir)


def measure_setup(name: str, module, seed: int, workdir: Path) -> tuple[float, float]:
    """Median time from starting a fresh interpreter until hvsim is imported and
    the workload's first input has become hvsim objects (one unmeasured probe
    first, so bytecode caches exist). The workload writes that input to files
    first; probe.py imports only numpy and hvsim and reads them. Returns (scaled, raw)
    medians."""
    probe_dir = workdir / "setup"
    probe_dir.mkdir()
    module.prepare_first(seed, probe_dir)
    cmd = [sys.executable, str(HERE / "probe.py"), WORKLOADS[name], str(probe_dir)]
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        before = speed.INTERPRETER.seconds()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        after = speed.INTERPRETER.seconds()  # once the probe has exited: it shares the CPU
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace').strip()}")
        if i:
            raw.append(t1 - t0)
            scaled.append((t1 - t0) * speed.INTERPRETER.scale(before, after))
    shutil.rmtree(probe_dir)
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------------------
# modes


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def benchmark(args, workdir: Path) -> dict:
    load_program()
    module = workload_module(args.workload)
    tally = Tally()
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(args.workload, module, args.seed, workdir)
        warm_up(module, args.seed, workdir)
        run_rounds(module, args.seed, args.seconds, MIN_OPS, workdir, tally)
        values = {
            "setup_s": setup_s,
            "ops_per_s": tally.completed_per_s(),
            "op_ms_p50": statistics.median(tally.ok_ms),
            "op_ms_p90": p90(tally.ok_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = metric_block(values, END_TO_END_UNITS)
        print(f"perfbench: unscaled setup_s={raw_setup_s:.4f} "
              f"ops_per_s={tally.completed_per_s(raw=True):.4f} "
              f"op_ms_p50={statistics.median(tally.raw_ok_ms):.4f} "
              f"op_ms_p90={p90(tally.raw_ok_ms):.4f}; median speed scale "
              f"{statistics.median(tally.scales):.3f}", file=sys.stderr)
    else:
        from spans import Tracer
        warm_up(module, args.seed, workdir)
        plain = Tally()
        rounds = run_rounds(module, args.seed, args.seconds / 2, 1, workdir, plain)
        tracer = Tracer()
        tracer.install()
        try:  # the same rounds again, traced
            for index in range(rounds):
                run_round(module, args.seed, index, workdir, tally, tracer)
        finally:
            tracer.uninstall()
        values = tracer.metrics(tally.scales, tally.busy_s)
        values["cli.report_bytes_per_op"] = tally.report_bytes / tally.attempted
        values["trace.overhead_pct"] = 100.0 * (1.0 - tally.attempted_per_s() / plain.attempted_per_s())
        metrics = metric_block(values, per_layer_units())
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"),
                     {"workload": args.workload, "seed": args.seed, "ops": tally.attempted})
        tally.absorb(plain)
    for note in tally.unexpected[:10]:
        print(f"perfbench: unexpected failure: {note}", file=sys.stderr)
    for code, count in sorted(tally.fault_failures.items()):
        print(f"perfbench: known fault {code}: {count} failed checks", file=sys.stderr)
    return {"correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def self_check(workdir: Path) -> int:
    """Run one round of every workload (traced), then feed each checker altered
    outputs and confirm it reports them as failed."""
    load_program()
    from spans import Tracer
    problems = []
    for name in WORKLOADS:
        module = workload_module(name)
        round_dir = workdir / name
        round_dir.mkdir()
        tracer = Tracer()
        tracer.install()
        tally, passing = Tally(), {}
        try:
            before = module.KERNEL.seconds()
            for op in module.build_round(0, 0, round_dir):
                before, facts, failures = run_op(op, module.KERNEL, tally, tracer, before)
                if not failures:
                    passing.setdefault(op.kind, (op, facts))
        finally:
            tracer.uninstall()
        problems += [f"{name}: {note}" for note in tally.unexpected]
        layer = tracer.metrics(tally.scales, tally.busy_s)
        if layer["trace.accounted_pct"] < MIN_ACCOUNTED_PCT:
            problems.append(f"{name}: layer spans cover only {layer['trace.accounted_pct']:.1f}% "
                            "of op time")
        for kind, mutations in module.MUTATIONS.items():
            if kind not in passing:
                problems.append(f"{name}: no passing {kind} operation to mutate")
                continue
            op, facts = passing[kind]
            for label, mutate in mutations:
                if not op.judge(mutate(facts)):
                    problems.append(f"{name}: checker missed '{label}' on {kind}")
        print(f"self-check {name}: {tally.attempted} ops, {tally.failed} failed (known faults), "
              f"{sum(len(m) for m in module.MUTATIONS.values())} mutations tried")
    for p in problems:
        print(f"self-check problem: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run one round of every workload and test the checkers")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        if args.self_check:
            return self_check(workdir)
        result = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
