"""One benchmark process: set-up, a cold first call, then timed repetitions.

Started by run.py, one process at a time, and never imported by it, so
every worker starts with a cold interpreter and the package not yet
imported.  It prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload euler --seed 1 --worker 0 --reps 2

After the first call the worker makes --reps further repetitions.  The
number is fixed, not fitted to a time budget: the package's caches grow
with every input a process has seen, and later calls get slower, so a
call's place in its process must not depend on the host's speed.  With
--trace the worker runs the first call, two untraced repetitions as the
base of the tracer's overhead, then one traced call.

After the first call, and after every repetition, the worker times a
fixed reference task: pure Python that builds a dictionary of 300k
integers and reads it back in shuffled order, touching about as much
memory as the workloads do.  It uses nothing of the package.  Each later
call is reported also as a multiple of the reference times beside it:
the mean of the one before and the one after.  The set-up and the first
call have only the one after, because the peak resident memory is read
after the first call and a reference run before it would add its own.
The host's speed drifts by a third over minutes; the reference drifts
with it, so the ratio holds still where seconds do not.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

import workloads

TRACE_BASE_REPS = 2
REFERENCE_KEYS = 300_000


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (VmHWM).

    Not getrusage's ru_maxrss: on Linux that keeps the high-water mark of
    the process that spawned this one, which would report run.py's memory
    whenever it is the larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def reference_task():
    """Build the reference task's data and return the timed part, which
    returns its own duration in seconds."""
    keys = list(range(0, REFERENCE_KEYS * 7919, 7919))
    order = keys[:]
    random.Random(0).shuffle(order)

    def timed() -> float:
        t0 = time.perf_counter()
        table = {}
        for k in keys:
            table[k] = k
        total = 0
        for k in order:
            total += table[k]
        elapsed = time.perf_counter() - t0
        if total != sum(keys):
            raise RuntimeError("reference task computed a wrong sum")
        return elapsed

    return timed


def run_rep(wl, lib, inp, expected) -> tuple[float, list[str]]:
    """Time one library call and check its result; returns (seconds, problems)."""
    t0 = time.perf_counter()
    try:
        result = wl.call(lib, inp)
    except Exception as exc:  # a raising repetition is a failed one, not a crash
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    return elapsed, wl.check(wl.summarize(lib, inp, result), expected)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worker", type=int, default=0)
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file to write the traced call's span tree to")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()[wl.name]

    # set-up: import the package and generate (and validate) the first input
    t_start = time.perf_counter()
    lib = workloads.load_library()
    inputs = wl.inputs(lib, args.seed, args.worker)
    first = next(inputs)
    setup_s = time.perf_counter() - t_start

    times: list[float] = []
    errors: list[str] = []
    attempted = failed = 0

    def rep(inp):
        nonlocal attempted, failed
        elapsed, problems = run_rep(wl, lib, inp, expected)
        attempted += 1
        if problems:
            failed += 1
            errors.extend(problems)
        times.append(elapsed)

    rep(first)
    # the memory of set-up plus one call, before the reference task adds its own
    peak_mb = peak_rss_mb()
    reference = reference_task()
    refs = [reference()]
    out = {"setup_s": setup_s, "first_call_s": times[0]}

    if args.trace:
        from tracer import Tracer

        for _ in range(TRACE_BASE_REPS):
            rep(next(inputs))
            refs.append(reference())
        inp = next(inputs)
        tracer = Tracer(lib)
        attempted += 1
        try:
            result = tracer.run(lambda: wl.call(lib, inp))
            problems = wl.check(wl.summarize(lib, inp, result), expected)
        except Exception as exc:  # counted as a failed repetition, like run_rep
            problems = [f"traced call: {type(exc).__name__}: {exc}"]
        closed, gap = tracer.check_closure()
        if not closed:
            problems.append(f"layer self times miss the traced wall time by {gap:.3g} s")
        if problems:
            failed += 1
            errors.extend(problems)
        out["trace"] = tracer.metrics(statistics.median(times[1:]))
        out["closure_gap_s"] = gap
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        for _ in range(args.reps):
            rep(next(inputs))  # input generation and its check are not timed
            refs.append(reference())

    out.update(
        wall_samples=times[1:],
        ref_samples=refs,
        call_ref_samples=[t / ((a + b) / 2) for t, a, b in zip(times[1:], refs, refs[1:])],
        attempted=attempted,
        failed=failed,
        errors=errors[:10],
        peak_rss_mb=peak_mb,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
