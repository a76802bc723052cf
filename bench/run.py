"""Benchmark of the rgamma library: end-to-end metrics and a traced run.

    python3 bench/run.py --workload {swell,survey,points} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the library is imported from ``src/`` next to this
directory, and nothing else is needed (standard library only).

One run:

1. Set-up, repeated SETUP_REPEATS times: import rgamma afresh and build the
   workload's corpus from ``--seed``.  ``setup_s`` is the median.
2. Timed phase, in a forked child with an address-space limit
   (RLIMIT_AS): whole passes over the corpus, one closed-loop client, until
   ``--seconds`` have passed and at least MIN_PASSES were made.  Every
   operation runs under a wall-time budget and its result is checked; an
   operation that raises, produces a wrong result or overruns its budget
   is counted as failed, and the pass goes on.  With ``--trace 1``
   untraced and traced passes alternate.
3. With ``--trace 1`` only: a tracemalloc pass in a second child for the
   ``*.peak_kb`` metrics, and a check that the budget works, in a third
   child, on <12,15,17> under a tiny address-space and wall-time budget.

An operation's latency is the median over the passes of its time; the
corpus gives one latency per item, and ``ops_per_s``, ``op_p50_ms`` and
``op_tail_ms`` are taken over those.  Every reported time is rescaled to
a reference CPU speed (see speed.py); the report also gives the
wall-clock figures.

The second-to-last line of standard output is a report: sample counts,
the percentile used for the tail, failures and fail_ratio, digests,
counts, the per-layer sum and the tracing overhead, python version,
nproc, seed and commit.  The last line is the result: {"correct",
"attempted", "failed", "metrics"}, holding the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Spans of the
traced passes are written to ``bench/out/``.  The exit code is 0 only when
every check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import select
import signal
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from types import SimpleNamespace

from speed import Speedometer
from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

LAYERS = ("semigroup", "normalform", "deceptive", "reduction", "variety", "oracle", "cli")
SETUP_REPEATS = 3
# the per-operation memory budget; the largest case, <11,13,17>, peaks
# far below it
ADDRESS_SPACE_BYTES = 3 << 30
# the timed child may finish the pass in progress after --seconds
PASS_GRACE_S = 90.0
MIN_PASSES = 2
TAIL_PERCENTILES = (99, 98, 95, 90, 75, 50)
LAYER_SUM_TOLERANCE = 0.10

# per-layer self-time metrics that cover one span name each
SPAN_METRICS = {
    "reduction.phi_s": "reduction.phi",
    "reduction.reduce_s": "reduction.reduce",
    "variety.eliminate_s": "variety.eliminate_linear",
    "variety.membership_s": "variety.membership",
    "variety.plane_s": "variety.plane_test_3gen",
    "cli.render_s": "cli.render",
}
COUNT_METRICS = (
    "semigroup.calls", "normalform.variables", "deceptive.binomials",
    "reduction.steps", "reduction.phi_terms", "reduction.reduced_terms",
    "variety.equations", "variety.equation_terms", "variety.max_degree",
    "variety.residual", "variety.solved_terms", "oracle.calls", "cli.bytes",
)
PEAK_LAYERS = ("reduction", "variety", "oracle")


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded()


# -- library and set-up -----------------------------------------------------

def load_library() -> SimpleNamespace:
    """Import rgamma afresh, so that every set-up repeat pays the import."""
    for name in [m for m in sys.modules if m == "rgamma" or m.startswith("rgamma.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        layer: importlib.import_module("rgamma." + layer) for layer in LAYERS
    })


def set_up_once(workload, seed):
    with Speedometer() as speed:
        mark = speed.mark()
        start = time.perf_counter()
        lib = load_library()
        corpus = workload.build(lib, random.Random(seed))
        raw, rescaled = speed.rescale(mark, time.perf_counter() - start)
    return raw, rescaled, lib, corpus


def set_up(workload, seed):
    """(raw seconds, rescaled seconds, lib, corpus) of SETUP_REPEATS
    set-ups.  All but the last run in throw-away children, so that the heap
    the timed children inherit holds one corpus and no garbage of earlier
    repeats."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        result, error = in_child(lambda: set_up_once(workload, seed)[:2], 300.0)
        if error:
            raise RuntimeError(f"set-up failed: {error}")
        times.append(result)
    raw, rescaled, lib, corpus = set_up_once(workload, seed)
    times.append((raw, rescaled))
    gc.collect()
    return [t[0] for t in times], [t[1] for t in times], lib, corpus


# -- child processes --------------------------------------------------------

def in_child(fn, deadline_s: float):
    """(result, None) of fn() run in a forked child under the address-space
    limit, which applies to the child only; (None, reason) when the child
    failed, died or overran the deadline, in which case it is killed."""
    sys.stdout.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            try:
                hard = resource.getrlimit(resource.RLIMIT_AS)[1]
                limit = ADDRESS_SPACE_BYTES
                if hard != resource.RLIM_INFINITY:
                    limit = min(limit, hard)
                resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
                signal.signal(signal.SIGALRM, _on_alarm)
                data = json.dumps({"ok": fn()})
            except BaseException:
                data = json.dumps({"crash": traceback.format_exc()})
            with os.fdopen(write_end, "w") as stream:
                stream.write(data)
        finally:
            os._exit(0)

    os.close(write_end)
    chunks = []
    deadline = time.monotonic() + deadline_s
    timed_out = False
    with os.fdopen(read_end, "rb") as stream:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([stream], [], [], left)[0]:
                timed_out = True
                break
            chunk = os.read(stream.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    if timed_out or status != 0 or not chunks:
        return None, (
            "child overran its deadline" if timed_out
            else f"child exited with status {status} and no result"
        )
    reply = json.loads(b"".join(chunks))
    if "crash" in reply:
        return None, reply["crash"]
    return reply["ok"], None


def run_op(fn, budget_s: float):
    """(seconds, result, failure) of one operation under a wall budget."""
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
    except BudgetExceeded:
        return None, None, "budget_exceeded: wall time"
    except MemoryError:
        return None, None, "budget_exceeded: address space"
    except Exception as exc:
        return None, None, f"error: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, result, None


# -- passes -----------------------------------------------------------------

def run_pass(workload, lib, corpus, reference, speed=None, tracer=None) -> dict:
    """One pass over the corpus.  ``op_s`` holds each item's rescaled
    latency and ``op_raw_s`` its wall-clock latency, None where the
    operation failed."""
    op_s, op_raw_s, failures, summaries = [], [], [], {}
    # every pass starts from a collected heap, so the collector's work
    # falls at the same points of each pass
    gc.collect()
    for op_id, item in enumerate(corpus):
        key = workload.key(item)
        if tracer is None:
            fn = lambda: workload.run(lib, item)  # noqa: E731
        else:
            tracer.op = op_id
            fn = lambda: workload.run_traced(lib, item, tracer)  # noqa: E731
        mark = speed.mark() if speed else None
        elapsed, result, failure = run_op(fn, workload.op_budget_s)
        raw = rescaled = None
        if failure is None:
            raw, rescaled = speed.rescale(mark, elapsed) if speed else (elapsed, elapsed)
            failure = workload.check(item, result, reference)
            if failure is not None:
                failure = "mismatch: " + failure
        if failure is not None:
            failures.append(f"{key}: {failure}")
            raw = rescaled = None
        else:
            summaries[key] = workload.summary(result)
        op_raw_s.append(raw)
        op_s.append(rescaled)
    problems = workload.check_pass(summaries) if not failures else []
    record = {
        "traced": tracer is not None,
        "op_s": op_s,
        "op_raw_s": op_raw_s,
        "failures": failures,
        "problems": problems,
        "digest": hashlib.sha256(
            json.dumps(sorted(summaries.items())).encode()
        ).hexdigest(),
    }
    if tracer is not None:
        # self times rescaled like the operation they belong to
        record["self_s"] = [
            [op, name, ns / 1e9 * op_s[op] / op_raw_s[op]]
            for (op, name), ns in tracer.self_ns().items()
            if op_s[op] is not None
        ]
        record["counts"] = {name: tracer.counts[name] for name in COUNT_METRICS}
        record["peak_kb"] = {
            layer: tracer.peak_bytes[layer] / 1024 for layer in PEAK_LAYERS
        }
    return record


def timed_phase(workload, lib, corpus, reference, seconds, trace, spans_path):
    """Passes until ``seconds`` have passed and each kind has MIN_PASSES;
    with tracing, untraced and traced passes alternate."""
    passes, tracers = [], []
    start = time.perf_counter()
    with Speedometer() as speed:
        while time.perf_counter() - start < seconds or len(passes) < MIN_PASSES * (1 + trace):
            passes.append(run_pass(workload, lib, corpus, reference, speed))
            if trace:
                tracers.append(Tracer())
                passes.append(run_pass(workload, lib, corpus, reference, speed, tracers[-1]))
    if trace:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as stream:
            for index, tracer in enumerate(tracers):
                tracer.write(stream, index)
    return {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def memory_pass(workload, lib, corpus, reference):
    tracemalloc.start()
    try:
        return run_pass(workload, lib, corpus, reference, tracer=Tracer(memory=True))
    finally:
        tracemalloc.stop()


def budget_check(lib):
    """<12,15,17> takes tens of seconds; under a tiny budget each attempt
    must be stopped and recorded as budget_exceeded.
    The address-space attempt runs first, before an aborted attempt has
    left freed memory behind for the second to reuse."""
    def equations():
        with contextlib.redirect_stdout(io.StringIO()):
            return lib.cli.main(["equations", "12,15,17", "--format", "json"])

    with open("/proc/self/statm") as stream:
        mapped = int(stream.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (mapped + (8 << 20), hard))
    try:
        memory = run_op(equations, 60.0)[2]
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    wall = run_op(equations, 0.5)[2]
    return {"address_space_+8MiB": memory, "wall_0.5s": wall}


# -- statistics -------------------------------------------------------------

def tail(values):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    ten values beyond it, or the maximum when there are too few values."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) >= 1000:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return 100, max(values)


def item_medians(series) -> list[float]:
    """Each corpus item's median time over the passes, skipping failures."""
    medians = []
    for repetitions in zip(*series):
        measured = [t for t in repetitions if t is not None]
        if measured:
            medians.append(statistics.median(measured))
    return medians


def latency_metrics(series) -> dict:
    items = item_medians(series)
    p, tail_s = tail(items)
    return {
        "ops_per_s": len(items) / sum(items),
        "op_p50_ms": statistics.median(items) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "tail_percentile": p,
    }


def end_to_end(untraced, peak_rss_kb, setup_s, setup_raw_s):
    if not item_medians(p["op_s"] for p in untraced):
        return {}, {}
    rescaled = latency_metrics(p["op_s"] for p in untraced)
    raw = latency_metrics(p["op_raw_s"] for p in untraced)
    raw["setup_s"] = statistics.median(setup_raw_s)
    metrics = {
        "ops_per_s": (rescaled["ops_per_s"], "1/s"),
        "op_p50_ms": (rescaled["op_p50_ms"], "ms"),
        "op_tail_ms": (rescaled["op_tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    items = len(untraced[0]["op_s"])
    detail = {
        "samples": {
            "ops_per_s": items, "op_p50_ms": items, "op_tail_ms": items,
            "peak_rss_mb": 1, "setup_s": len(setup_s),
        },
        "repetitions_per_item": len(untraced),
        "tail_percentile": rescaled["tail_percentile"],
        "wall_clock": raw,
    }
    return metrics, detail


def span_medians(traced) -> dict:
    """Median rescaled self time of each (operation, span name) over the
    traced passes."""
    by_key: dict = {}
    for p in traced:
        for op, name, seconds in p["self_s"]:
            by_key.setdefault((op, name), []).append(seconds)
    return {key: statistics.median(v) for key, v in by_key.items()}


def per_layer(spans: dict, memory: dict) -> dict:
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = (
            sum(s for (_, name), s in spans.items() if name.split(".", 1)[0] == layer), "s"
        )
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = (sum(s for (_, name), s in spans.items() if name == span), "s")
    for name in COUNT_METRICS:
        metrics[name] = (memory["counts"][name], "count")
    for layer in PEAK_LAYERS:
        metrics[f"{layer}.peak_kb"] = (memory["peak_kb"][layer], "KiB")
    return metrics


# -- provenance -------------------------------------------------------------

def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rgamma").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# -- main -------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rgamma" / "__init__.py").is_file():
        print(f"error: the rgamma sources are missing ({SRC / 'rgamma'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text())
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    phase_s = {}
    clock = time.perf_counter()

    def phase_done(name):
        nonlocal clock
        now = time.perf_counter()
        phase_s[name] = now - clock
        clock = now

    setup_raw, setup_times, lib, corpus = set_up(workload, args.seed)
    phase_done("setup")
    spans_path = BENCH / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
    timed, error = in_child(
        lambda: timed_phase(workload, lib, corpus, reference, args.seconds, trace, spans_path),
        args.seconds + PASS_GRACE_S,
    )
    phase_done("timed")
    problems = [f"timed phase: {error}"] if error else []
    passes = timed["passes"] if timed else []

    memory = budget = None
    if trace and not error:
        memory, error = in_child(lambda: memory_pass(workload, lib, corpus, reference), 120.0)
        phase_done("tracemalloc")
        if error:
            problems.append(f"tracemalloc pass: {error}")
        budget, error = in_child(lambda: budget_check(lib), 60.0)
        phase_done("budget_check")
        if error:
            problems.append(f"budget check: {error}")
        elif not all(v and v.startswith("budget_exceeded") for v in budget.values()):
            problems.append(f"budget check: {budget}")

    every = passes + ([memory] if memory else [])
    failures = [f for p in every for f in p["failures"]]
    attempted = len(corpus) * len(every)
    problems += [q for p in every for q in p["problems"]]
    if len({p["digest"] for p in every}) > 1:
        problems.append("result digests differ between passes")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    e2e, detail = end_to_end(
        untraced, timed["peak_rss_kb"] if timed else 0, setup_times, setup_raw
    )
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
        "src_sha256": source_digest(), "corpus": len(corpus),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_s": setup_times, "phase_s": phase_s, **detail,
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20], "digest": every[0]["digest"] if every else None,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }

    metrics = e2e
    if trace and traced and memory and not failures:
        counts = [p["counts"] for p in traced + [memory]]
        if any(c != counts[0] for c in counts):
            problems.append("counts differ between passes")
        if counts[0] != reference["counts"][workload.name]:
            problems.append("counts differ from the pinned reference")
        spans = span_medians(traced)
        metrics = per_layer(spans, memory)
        untraced_s = sum(item_medians(p["op_s"] for p in untraced))
        traced_s = sum(item_medians(p["op_s"] for p in traced))
        layer_sum_s = sum(spans.values())
        report["layer_sum"] = {
            "untraced_s": untraced_s, "layer_sum_s": layer_sum_s,
            "ratio": layer_sum_s / untraced_s,
            "tracing_overhead": traced_s / untraced_s - 1,
        }
        if abs(layer_sum_s / untraced_s - 1) > LAYER_SUM_TOLERANCE:
            problems.append("per-layer self times do not sum to within 10% of end to end")
        report["counts"] = counts[0]
        report["budget_check"] = budget
        report["spans"] = str(spans_path.relative_to(ROOT))
    elif trace:
        metrics = {}
        problems.append("no traced result")

    report["problems"] = problems
    correct = not problems and not any(": mismatch" in f for f in failures)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and not failures and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
