#!/usr/bin/env python3
"""Benchmark for the semicrossed package.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own process,
imports ``semicrossed`` from ``src/`` and calls it directly; ``--workload
all`` (the default) runs the four workloads one after another, each in a
child process.

A run generates its inputs from the seed, sets up (import, ``load_config``
of every shipped config, building the workload's polynomials and points;
repeated SETUP_REPEATS times, the median is ``setup_s``), then times
round(seconds / nominal pass time) passes, at least MIN_PASSES, over the
workload's operation list: the run lasts about ``--seconds`` on the
reference machine, or three passes where those take longer, and two commits
compared at one setting make the same calls (see ``run_phase``).  Each call
is scaled to reference-machine seconds by a kernel timed through the run
(reference.py), and an operation's latency is the median of its calls.
After the timed phase every output is checked against the oracle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
timed phase with spans recorded around every call into the library's
layers and reports per-layer metrics, the tracing overhead, and whether
the traced outputs match the untraced ones bit for bit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report,
and the spans of a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; at most the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import bisect
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import reference
import tracing
import workloads
from workloads import Failed, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
MIN_PASSES = 3
MAX_TRACED_PASSES = 1
REFERENCE_EVERY_S = 0.25  # phase time between reference-kernel timings
REFERENCE_WINDOW_S = 1.0  # timings this close to a call scale it
TAIL_SAMPLES = 10


# ---------------------------------------------------------------------------
# environment


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None when
    the tree is not a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / workloads.PACKAGE).rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# timed phase


@dataclass
class Phase:
    times: list  # per op: the duration of each of its calls, in seconds
    starts: list  # per op: the clock reading at the start of each call
    first: dict = field(default_factory=dict)  # label -> output of the op's first call
    digests: list = field(default_factory=list)  # per op, of its first call's output
    raised: set = field(default_factory=set)  # indices of ops with a call that raised
    rss_before_last_mib: float = 0.0  # peak memory before the ``last`` ops
    busy_s: float = 0.0  # time spent in calls
    reference_at: list = field(default_factory=list)  # clock reading of each kernel timing
    reference: list = field(default_factory=list)  # the kernel times

    def kernel_time(self, start: float, end: float) -> float:
        """The reference kernel's time around the interval: the median of
        its timings within REFERENCE_WINDOW_S of it, or the nearest one."""
        lo = bisect.bisect_left(self.reference_at, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.reference_at, end + REFERENCE_WINDOW_S)
        if lo == hi:  # none that close: the nearest one
            before, after = lo - 1, lo
            if after == len(self.reference) or (
                before >= 0 and start - self.reference_at[before] <= self.reference_at[after] - end
            ):
                lo = before
            hi = lo + 1
        return statistics.median(self.reference[lo:hi])

    def scaled_times(self) -> list:
        """``times`` in reference-machine seconds (see reference.py): each
        call scaled by the kernel's time around it."""
        return [
            [t * reference.NOMINAL_S / self.kernel_time(s, s + t) for s, t in zip(starts, times)]
            for starts, times in zip(self.starts, self.times)
        ]


def run_phase(ops: list, passes: int, tracer=None, between=None) -> Phase:
    """Closed loop, one caller: each operation starts when the previous one
    has returned, and every call of an operation has the same inputs.

    A pass calls each operation ``op.repeats`` times.  Call k of the j-th
    of n operations sits at (k + j / n) / repeats of the pass: the calls of
    a repeated operation spread evenly over the pass, and the single calls
    of the heavy operations cut the quick ones into many short stretches, so
    that a slow or fast spell of the machine meets only a few calls of
    each operation.  An operation whose call reads an earlier one's output has
    one call per pass, and so keeps its place after it.  Operations marked
    ``last`` are called after all the passes, ``op.repeats`` times each, so
    that what they do to the process (its peak memory) leaves the other
    operations' figures alone.  Which calls are made depends on the
    operation list and ``passes`` alone, never on how long a call took.
    ``between(p)`` runs, untimed, after pass p - 1 for p = 1 .. passes.

    The reference kernel is timed at the start of every pass and after
    every call that ends REFERENCE_EVERY_S or more after its last timing, so
    its samples spread evenly over the phase's time."""
    clock = time.perf_counter
    phase = Phase([[] for _ in ops], [[] for _ in ops])
    calls = 0
    sampled = 0.0

    def sample():
        nonlocal sampled
        phase.reference_at.append(clock())
        phase.reference.append(reference.measure())
        sampled = clock()

    def call(i, env):
        nonlocal calls
        if tracer is not None:
            tracer.op = calls
        calls += 1
        start = clock()
        phase.starts[i].append(start)
        try:
            out = ops[i].call(env)
        except (Exception, SystemExit) as exc:
            out = Failed(type(exc).__name__, str(exc)[:300])
        elapsed = clock() - start
        phase.times[i].append(elapsed)
        phase.busy_s += elapsed
        if isinstance(out, Failed):
            phase.raised.add(i)
        if clock() - sampled >= REFERENCE_EVERY_S:
            sample()
        return out

    early = [i for i, op in enumerate(ops) if not op.last]
    schedule = sorted(
        ((k + j / len(early)) / ops[i].repeats, i, k)
        for j, i in enumerate(early)
        for k in range(ops[i].repeats)
    )
    for p in range(passes):
        if p and between is not None:
            between(p)
        sample()
        env = {}
        for _, i, k in schedule:
            out = call(i, env)
            if k == 0:
                env[ops[i].label] = out
        if p == 0:
            phase.first = env
    if between is not None:
        between(passes)
    phase.rss_before_last_mib = peak_rss_mib()
    for i, op in enumerate(ops):
        if op.last:
            for n in range(op.repeats):
                out = call(i, phase.first)
                if n == 0:
                    phase.first[op.label] = out
    phase.digests = [workloads.digest(phase.first[op.label]) for op in ops]
    return phase


def typical_latencies(times: list) -> list:
    """Each operation's median call over the run.  A shared machine's speed
    drifts for seconds at a time, both ways: the fastest call depends on
    whether a rare fast spell met one of the operation's calls, the median
    of calls spread over the run does not."""
    return [statistics.median(t) for t in times]


def attempted_calls(phase: Phase) -> int:
    return sum(map(len, phase.times))


@dataclass
class Verdict:
    failed: int  # calls that raised, gave a wrong output or missed accuracy
    failed_ops: int  # operations with such calls
    failures: dict  # label -> reason the call raised
    wrong: dict  # label -> violated invariants
    misses: dict  # label -> accuracy misses
    shortfall: float
    norms_checked: int

    def plus_untimed(self, other: "Verdict") -> "Verdict":
        """This verdict with the failures and accuracy figures of untimed
        operations added; ``failed_ops`` stays that of the timed ones."""
        return Verdict(
            self.failed + other.failed,
            self.failed_ops,
            {**self.failures, **other.failures},
            {**self.wrong, **other.wrong},
            {**self.misses, **other.misses},
            max(self.shortfall, other.shortfall),
            self.norms_checked + other.norms_checked,
        )


def check_phase(ops: list, phase: Phase) -> Verdict:
    failures, wrong, misses = {}, {}, {}
    shortfall, norms_checked = 0.0, 0
    for op in ops:
        out = phase.first[op.label]
        if isinstance(out, Failed):
            failures[op.label] = f"{out.kind}: {out.message}" if out.message else out.kind
            continue
        try:
            problems = op.check(out, phase.first)
            missed = op.accuracy(out, phase.first) if op.accuracy else []
            pairs = op.norms(out, phase.first) if op.norms else []
        except Exception as exc:  # a malformed output makes its check raise
            problems, missed, pairs = [f"check raised {type(exc).__name__}: {exc}"], [], []
        for bound, value in pairs:
            shortfall = max(shortfall, bound - value)
            norms_checked += 1
        if problems:
            wrong[op.label] = problems
        if missed:
            misses[op.label] = missed
    # every later call repeats the first call on the same inputs
    bad = {i for i, op in enumerate(ops) if op.label in wrong or op.label in misses}
    failed_ops = bad | phase.raised
    failed = sum(len(phase.times[i]) for i in failed_ops)
    return Verdict(failed, len(failed_ops), failures, wrong, misses, shortfall, norms_checked)


def harrell_davis(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of the
    order statistics, the weights being Beta((n+1)q, (n+1)(1-q)) mass per
    rank.  Operation costs come in clusters; when the quantile falls in a
    gap between two clusters a single order statistic jumps across it, this
    estimate does not."""
    s = np.sort(np.asarray(values, dtype=float))
    n = len(s)
    if q <= 0:
        return float(s[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cells = 200 * n  # midpoint rule on a grid that puts i/n on cell edges
    x = (np.arange(cells) + 0.5) / cells
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(cdf[::200]) / cdf[-1]  # Beta mass on ((i-1)/n, i/n]
    return float(np.dot(weights, s))


def tail_percentile(n: int) -> float:
    """Highest percentile, in steps of 0.1, with at least TAIL_SAMPLES of n
    samples beyond it."""
    return max(0, (1000 * (n - TAIL_SAMPLES)) // n) / 10


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class memory_budget:
    """Soft address-space limit for the timed phase (None: no limit)."""

    def __init__(self, mib):
        self.mib = mib

    def __enter__(self):
        self.old = resource.getrlimit(resource.RLIMIT_AS)
        if self.mib is not None:
            soft = self.mib * 2**20
            hard = self.old[1]
            if hard != resource.RLIM_INFINITY:
                soft = min(soft, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        return self

    def __exit__(self, *exc):
        resource.setrlimit(resource.RLIMIT_AS, self.old)
        return False


# ---------------------------------------------------------------------------
# metrics


def e2e_metrics(phase: Phase, times: list, verdict: Verdict, setup_times: list, attempted: int) -> dict:
    """The end-to-end metrics from each call's time in ``times`` (scaled or
    not, as ``setup_times``)."""
    typical = typical_latencies(times)
    p = tail_percentile(len(typical))
    return {
        "ops_per_s": {
            "value": (len(typical) - verdict.failed_ops) / sum(typical),
            "unit": "1/s",
        },
        "op_latency_p50_s": {
            "value": harrell_davis(typical, 0.5),
            "unit": "s",
            "ops": len(typical),
            "samples": attempted_calls(phase),
        },
        "op_latency_tail_s": {
            "value": harrell_davis(typical, p / 100),
            "unit": "s",
            "percentile": p,
            "ops": len(typical),
            "samples": attempted_calls(phase),
        },
        "peak_rss_mb": {"value": phase.rss_before_last_mib, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s", "repeats": len(setup_times)},
        "ops_failed_ratio": {
            "value": verdict.failed / attempted,
            "unit": "ratio",
            "failed": verdict.failed,
            "attempted": attempted,
        },
        "norm_shortfall_max": {
            "value": max(0.0, verdict.shortfall),
            "unit": "1",
            "norms_checked": verdict.norms_checked,
        },
    }


def layer_metrics(summary: dict, plain: Phase, traced: Phase) -> dict:
    """Per-layer values by name: every counter the tracer kept, each layer's
    self time and escaped exceptions, and the tracing overhead.  A counter
    that never fired is absent and reads as 0."""
    counts = summary["counts"]
    out = dict(counts)
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = summary["layer_self_s"][layer]
        out[f"{layer}.errors"] = sum(summary["errors"][layer].values())
    name = "representations.verify_nest_truncation"
    out[f"{name}.self_s"] = summary["name_self_s"].get(name, 0.0)
    estimators = ("representations.semicrossed_norm", "representations.crossed_norm")
    estimates = sum(counts.get(f"{e}.calls", 0) for e in estimators)
    converged = sum(counts.get(f"{e}.converged", 0) for e in estimators)
    out["representations.norm_levels"] = sum(counts.get(f"{e}.levels", 0) for e in estimators)
    out["representations.converged_ratio"] = converged / estimates if estimates else 0.0
    plain_rate = len(plain.digests) / sum(typical_latencies(plain.scaled_times()))
    traced_rate = len(traced.digests) / sum(typical_latencies(traced.scaled_times()))
    out["trace.ops_per_s_untraced"] = plain_rate
    out["trace.ops_per_s_traced"] = traced_rate
    out["trace.overhead_ops_per_s"] = plain_rate - traced_rate
    return out


# ---------------------------------------------------------------------------
# one workload


def tree_problem():
    if not (ROOT / "src" / workloads.PACKAGE / "__init__.py").is_file():
        return f"no src/{workloads.PACKAGE}/ package under {ROOT}"
    if not list((ROOT / "configs").glob("*.json")):
        return f"no shipped configs under {ROOT / 'configs'}"
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[name](ROOT, seed)
    setup_times, scaled_setup_times = [], []

    def setup():
        # each set-up is scaled by reference timings just before and after it
        before = reference.measure()
        start = time.perf_counter()
        lib = workloads.import_library()
        ops = workload.build(lib)
        elapsed = time.perf_counter() - start
        after = reference.measure()
        setup_times.append(elapsed)
        scaled_setup_times.append(elapsed * 2 * reference.NOMINAL_S / (before + after))
        gc.collect()  # drop the previous set-up's objects before the next pass
        return ops

    passes = max(MIN_PASSES, round(seconds / workload.nominal_pass_s))
    # Both phases of a traced run make the same calls, so the overhead
    # compares like with like; at most MAX_TRACED_PASSES passes bound the
    # spans it keeps.
    if trace:
        passes = min(passes, MAX_TRACED_PASSES)
    # The set-ups are spread over the run, between passes, so that one slow
    # spell of the machine cannot move their median.
    slots = Counter(i * passes // (SETUP_REPEATS - 1) for i in range(1, SETUP_REPEATS))
    ops = setup()
    for _ in range(slots[0]):
        setup()
    with memory_budget(workload.memory_budget_mib):
        plain = run_phase(ops, passes, between=lambda p: [setup() for _ in range(slots[p])])
    attempted = attempted_calls(plain)
    rss_with_last = peak_rss_mib()  # before the oracle allocates anything
    if trace:
        # a fresh set-up, traced from load_config on (the import itself runs
        # before the wrappers exist), then the same passes again
        lib = workloads.import_library()
        tracer = tracing.Tracer(lib.modules, workloads.package_modules())
        with tracer:
            traced_ops = workload.build(lib)
            with memory_budget(workload.memory_budget_mib):
                traced = run_phase(traced_ops, passes, tracer)
    # operations that only feed the accuracy figures, run once, untimed
    checked_ops = workload.build_checked(workloads.import_library())
    with memory_budget(workload.memory_budget_mib):
        checked = run_phase(checked_ops, 1)
    attempted += attempted_calls(checked)
    verdict = check_phase(ops, plain).plus_untimed(check_phase(checked_ops, checked))
    scaled = plain.scaled_times()
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": passes,
        "ops": len(ops),
        "untimed_ops": len(checked_ops),
        "calls_per_pass": {op.label: op.repeats for op in ops if op.repeats > 1},
        "run_last": [op.label for op in ops if op.last],
        "inputs": {"sha256": gen.digest(workload.inputs), **workload.sizes()},
        "environment": environment(seed),
        "memory_budget_mib": workload.memory_budget_mib,
        "setup_times_s": setup_times,
        "timed_s": plain.busy_s,
        "reference": {
            "nominal_s": reference.NOMINAL_S,
            "median_s": statistics.median(plain.reference),
            "samples": len(plain.reference),
            "window_s": REFERENCE_WINDOW_S,
        },

        "op_latency_s": dict(zip((op.label for op in ops), typical_latencies(scaled))),
        "end_to_end": e2e_metrics(plain, scaled, verdict, scaled_setup_times, attempted),
        # the same, as the clock read them
        "end_to_end_unscaled": e2e_metrics(plain, plain.times, verdict, setup_times, attempted),
        # the process's peak once the ``last`` operations have run too
        "peak_rss_with_last_mib": rss_with_last,
        "failures": verdict.failures,
        "wrong_outputs": verdict.wrong,
        "accuracy_misses": verdict.misses,
    }
    correct = not verdict.wrong
    if trace:
        summary = tracing.summarize(tracer.spans, tracer.counts)
        identical = traced.digests == plain.digests
        correct = correct and identical
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        tracer.write(spans_path)
        report.update(
            {
                "per_layer": layer_metrics(summary, plain, traced),
                "errors_by_type": summary["errors"],
                "span_self_s": summary["name_self_s"],
                "spans": summary["spans"],
                "spans_file": str(spans_path.relative_to(ROOT)),
                "traced_outputs_identical": identical,
            }
        )
    report["correct"] = correct
    report["attempted"] = attempted
    report["failed"] = verdict.failed
    return report


def print_report(report: dict) -> None:
    budget = report["memory_budget_mib"]
    print(
        f"{report['workload']}  seed={report['seed']}  passes={report['passes']}  "
        f"ops={report['ops']}  correct={report['correct']}"
        + (f"  memory budget={budget} MiB" if budget else "")
    )
    print(f"  inputs {json.dumps(report['inputs'])}")
    print(f"  environment {json.dumps(report['environment'])}")
    ref = report["reference"]
    print(
        f"  reference kernel {ref['median_s'] * 1e3:.4g} ms median over {ref['samples']} timings;"
        f" each call scaled by {ref['nominal_s'] * 1e3:.4g} ms / the kernel's median within"
        f" {ref['window_s']:g} s of it"
    )
    for key, m in report["end_to_end"].items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        note = "  " + " ".join(f"{k}={v}" for k, v in extra.items()) if extra else ""
        print(f"  {key:20s} {m['value']:.6g} {m['unit']}{note}")
    if report["run_last"]:
        print(f"  peak rss with {', '.join(report['run_last'])}: {report['peak_rss_with_last_mib']:.6g} MiB")
    for label, reason in report["failures"].items():
        print(f"  failed: {label}: {reason}")
    for label, problems in report["wrong_outputs"].items():
        print(f"  wrong: {label}: {'; '.join(problems)}")
    for label, problems in report["accuracy_misses"].items():
        print(f"  accuracy: {label}: {'; '.join(problems)}")
    if "per_layer" in report:
        print(f"  traced outputs identical: {report['traced_outputs_identical']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status

    problem = tree_problem()
    if problem is not None:
        print(f"bench: {problem}", file=sys.stderr)
        return 2

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    print_report(report)
    # BENCHMARK.json names the reported metrics and their units
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {
            m["name"]: {"value": report["per_layer"].get(m["name"], 0), "unit": m["unit"]}
            for m in declared["per_layer"]
        }
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            m["name"]: {"value": report["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
