"""One workload in one fresh process (started by ``run.py``).

``python child.py '<spec json>'`` prints one JSON object as its last
stdout line.  Modes: ``measure`` (the untraced end-to-end run),
``setup`` (set-up only, for the set-up time median), ``trace`` (a short
untraced segment, the same segment again with every call decomposed
into spans, then the layer probes) and ``expected`` (oracle digests).

Set-up time runs from the first line of this file to the first measured
op: importing ``repro``, building and loading the inputs, preparing and
registering forms, starting the service, warm-up.
"""

import time

_STARTED = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import measure  # noqa: E402


def pin_to_one_core():
    """Client thread and service worker share one core; returns the
    cores the process may use again for the probes.

    Under the GIL only one of the two runs at a time anyway.  On one
    core the hand-over is a local context switch; on two it is a
    wake-up of an idle vCPU whose latency follows the host (a 3x swing
    of ``serve_hit`` was measured between two sets of runs of the same
    code before this was added).
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[-1:])
    return cpus


def run_blocks(run_op, blocks, trace=None):
    """The closed loop: one client, next op only after the last reply.

    Returns per-op latencies, answers and work, and per block its wall
    and CPU seconds.  Only the call itself is inside an op's timed
    region; a raised error is a failed op.
    """
    latencies, answers, works, block_seconds, block_cpu = [], [], [], [], []
    clock = time.perf_counter
    for block in blocks:
        cpu_started = time.process_time()
        block_started = clock()
        for op in block:
            if trace is not None:
                trace.op += 1
            started = clock()
            try:
                if trace is None:
                    answer, work = run_op(op)
                else:
                    answer, work = run_op(op, trace)
            except Exception as exc:  # a failed op, reported below
                answer, work = exc, 0
            latencies.append(clock() - started)
            answers.append(answer)
            works.append(work)
        block_seconds.append(clock() - block_started)
        block_cpu.append(time.process_time() - cpu_started)
    return latencies, answers, works, block_seconds, block_cpu


def fingerprint(answers):
    """sha256 of the sorted rendered answer tuples."""
    digest = hashlib.sha256()
    for line in sorted(repr(answer) for answer in answers):
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def kind_digests(workload, oracle):
    """``{kind: sha256}`` over the oracle answers of the kind's keys."""
    digests = {}
    for kind, keys in workload.kind_keys().items():
        digest = hashlib.sha256()
        for key in sorted(keys, key=repr):
            digest.update(
                ("%r\t%s\n" % (key, fingerprint(oracle[key])))
                .encode("utf-8")
            )
        digests[kind] = digest.hexdigest()
    return digests


class _Capped(list):
    """A problem list that keeps the first twenty: a wholly wrong run
    of 300 000 ops must not build 300 000 messages."""

    def append(self, item):
        if len(self) < 20:
            super().append(item)


def check(workload, ops, answers, works, expected_path):
    """Failed-op count and a list of problems; runs untimed.

    Every answer is compared with the unoptimized evaluation; a read
    scheduled as a hit (miss) must have been one; and where a reviewed
    expected file exists for this seed the oracle itself is compared
    with it.
    """
    oracle = workload.oracle()
    problems = _Capped()
    failed = 0
    hit_kinds = {
        index for index, name in enumerate(workload.kinds)
        if name.startswith("read_hit")
    }
    miss_kinds = {
        index for index, name in enumerate(workload.kinds)
        if name.startswith("read_miss")
    }
    for op, answer, work in zip(ops, answers, works):
        key = workload.key(op)
        if isinstance(answer, Exception):
            failed += 1
            problems.append("%s raised %r" % (
                workload.kinds[op[0]], answer))
        elif key is not None and answer != oracle[key]:
            failed += 1
            problems.append("%s answered %r wrongly" % (
                workload.kinds[op[0]], key))
        elif (op[0] in hit_kinds and work != 1) or \
                (op[0] in miss_kinds and work <= 1):
            failed += 1
            problems.append("%s was not a %s" % (
                key, workload.kinds[op[0]]))
    digests = kind_digests(workload, oracle)
    if expected_path is not None and os.path.exists(expected_path):
        with open(expected_path) as handle:
            expected = json.load(handle)[workload.name]
        for kind, digest in sorted(digests.items()):
            if expected.get(kind) != digest:
                problems.append("%s differs from %s" % (
                    kind, os.path.basename(expected_path)))
                failed += sum(
                    1 for op in ops if workload.kinds[op[0]] == kind
                )
    return min(failed, len(ops)), problems, digests


def settle(workload, ops, answers, works, expected_path):
    """Tear the workload down and check it; a failed end-state check
    (recovery, audit replay) fails the run even when every op passed."""
    problems = workload.finish()
    failed, wrong, digests = check(workload, ops, answers, works,
                                   expected_path)
    if problems and not failed:
        failed = 1
    return failed, (problems + wrong)[:20], digests


def end_to_end(workload, ops, latencies, works, block_seconds, block_cpu,
               setup_s):
    """The end-to-end metrics of one measured phase.

    Every block holds the same multiset of ops, so a per-block
    statistic estimates the same quantity ten times; the median of the
    ten is reported.  A burst of interference on the box then has to
    cover half the run before it moves a number.
    """
    count = len(ops)
    size = count // len(block_seconds)
    per_block = [
        latencies[start:start + size] for start in range(0, count, size)
    ]
    rates = measure.block_rates([size] * len(block_seconds), block_seconds)
    kinds = [op[0] for op in ops]
    by_kind = {}
    for latency, kind in zip(latencies, kinds):
        by_kind.setdefault(workload.kinds[kind], []).append(latency)
    median = statistics.median
    return {
        "setup_s": setup_s,
        "throughput_ops_s": median(rates),
        "latency_p50_ms": median(
            measure.percentile(block, 50) for block in per_block) * 1e3,
        "latency_p95_ms": median(
            measure.percentile(block, 95) for block in per_block) * 1e3,
        "op_geomean_ms": measure.kind_geomean(latencies, kinds) * 1e3,
        "cpu_ms_per_op": median(block_cpu) / size * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_op": sum(works) / count,
    }, {
        "ops": count,
        "measured_s": sum(block_seconds),
        "samples_beyond_p95": measure.samples_beyond(count, 95),
        "block_spread": measure.block_spread(rates),
        "kind_median_ms": {
            kind: median(values) * 1e3
            for kind, values in sorted(by_kind.items())
        },
    }


def announce(blocks):
    """Tell the runner how many ops this child owes, in case it has to
    kill us: they then count as failed."""
    print("PLANNED %d" % sum(len(block) for block in blocks), flush=True)


def main():
    spec = json.loads(sys.argv[1])
    cpus = pin_to_one_core()
    import workloads

    workload = workloads.make(spec["workload"], spec["seed"],
                              spec["scratch"])
    workload.name = spec["workload"]
    workload.setup()
    gc.collect()
    gc.freeze()
    setup_s = time.perf_counter() - _STARTED
    mode = spec["mode"]
    out = {"workload": workload.name, "mode": mode, "setup_s": setup_s}
    if mode == "setup":
        workload.close()
    elif mode == "expected":
        workload.close()
        out["digests"] = kind_digests(workload, workload.oracle())
    elif mode == "measure":
        blocks = workload.blocks(spec["blocks"], spec["cycles"])
        announce(blocks)
        latencies, answers, works, seconds, cpu = run_blocks(
            workload.run_op, blocks
        )
        ops = [op for block in blocks for op in block]
        # Peak RSS is read inside end_to_end, before the oracle runs.
        metrics, info = end_to_end(
            workload, ops, latencies, works, seconds, cpu, setup_s
        )
        failed, problems, digests = settle(
            workload, ops, answers, works, spec.get("expected")
        )
        metrics["failed_frac"] = failed / len(ops)
        out.update(
            metrics=metrics, info=info, failed=failed,
            problems=problems,
            determinism={
                "work": sum(works), "digests": digests,
                "finals": _counts(workload.finals),
            },
        )
    else:
        out.update(trace_run(workload, spec, cpus))
    print(json.dumps(out))


def _counts(finals):
    """The counter blocks of a run minus anything measured in time."""
    finals = json.loads(json.dumps(finals))
    finals.get("wal", {}).pop("append_seconds", None)
    return finals


def trace_run(workload, spec, cpus):
    """Plain and traced blocks alternate, so slow drift of the box
    lands on both sides of ``bench.trace_overhead_frac``."""
    import layers

    pairs = spec["blocks"]
    blocks = workload.blocks(2 * pairs, spec["cycles"])
    announce(blocks)
    trace = layers.LayerTrace()
    plain = ([], [], [], [])
    traced = ([], [], [], [])
    for index, block in enumerate(blocks):
        if index % 2 == 0:
            run = run_blocks(workload.run_op, [block])
            into = plain
        else:
            run = run_blocks(workload.run_op_traced, [block], trace)
            into = traced
        for collected, part in zip(into, run):
            collected.extend(part)
    replay_ops = trace.op + 1
    ops = [op for block in blocks[0::2] + blocks[1::2] for op in block]
    failed, problems, digests = settle(
        workload, ops, plain[1] + traced[1], plain[2] + traced[2],
        spec.get("expected"),
    )
    # The probes include two-worker and two-process cells.
    os.sched_setaffinity(0, cpus)
    layers.run_probes(trace, spec["scratch"])
    layer = layers.layer_metrics(
        trace, workload, replay_ops, plain[0], traced[0],
        measure.block_rates([len(blocks[0])] * pairs, plain[3]),
    )
    trace.write_chrome(spec["trace_path"])
    return {
        "layer": layer, "failed": failed, "ops": len(ops),
        "problems": problems,
        "self_time_s": dict(sorted(
            measure.self_time_by_name(trace.spans).items()
        )),
        "determinism": {
            "work": sum(plain[2]) + sum(traced[2]), "digests": digests,
            "finals": _counts(workload.finals),
            "counts": layers.repeatable(layer),
        },
    }


if __name__ == "__main__":
    main()
