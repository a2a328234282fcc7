"""End-to-end benchmark runner.

    python3 benchmarks/e2e/run.py --seed N [--workload W] [--seconds S]
        [--trace [0|1]] [--json OUT] [--repeat K]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --check-determinism [--workload W]
    python3 benchmarks/e2e/run.py --write-expected --seed 1

Each workload runs in a fresh child process (``child.py``) with a
pinned ``PYTHONHASHSEED``, ``PYTHONPATH=src`` and a hard timeout; the
runner itself never imports ``repro``.  Every metric is printed by name
with its unit, every answer is checked, and the exit status is non-zero
when any op failed.  With ``--workload`` the last stdout line is the
driver's JSON object: the end-to-end metrics for ``--trace 0``, the
per-layer metrics for ``--trace 1``.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from measure import iqr_share, quartiles  # noqa: E402

#: Not derived from ``--seed``: ``magic``'s ``total_work`` moves by up
#: to 10 % with the string hash seed (README.md, "Determinism"), which
#: would drown the 0.1 % gate on ``work_per_op``.
HASH_SEED = "0"
BLOCKS = 10
#: Set-up is timed in this many extra set-up-only children plus the
#: measuring child itself; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Cycles per block at the committed run length.  A cycle is one pass
#: over the matrix (53 / 32 ops), one permutation of the 1024
#: (form, binding) pairs, or 40 read/write windows (360 ops).  Frozen
#: after calibration on a 2-core box; ``--seconds`` scales them.
CYCLES = {
    "oneshot_fixpoint": 2,
    "oneshot_counting": 4,
    "serve_hit": 33,
    "serve_churn": 3,
}
#: One invocation (all children of one workload) must end well inside
#: the driver's 180 s; a child that outlives its share is killed.
INVOCATION_SECONDS = 170.0
CHILD_SECONDS = 120.0


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def cycles_for(name, seconds, run_seconds):
    return max(1, round(CYCLES[name] * seconds / run_seconds))


def trace_shape(cycles):
    """(blocks, cycles per block) of one traced segment: a tenth of the
    full schedule, never under two cycles."""
    segment = max(2, BLOCKS * cycles // 10)
    blocks = min(BLOCKS, segment)
    return blocks, segment // blocks


def run_child(spec, timeout):
    """Run one child; returns (result dict or None, planned op count)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        # The whole session: the traced run's parallel probe forks.
        os.killpg(child.pid, signal.SIGKILL)
        stdout, _ = child.communicate()
    lines = stdout.strip().splitlines()
    planned = 0
    for line in lines:
        if line.startswith("PLANNED "):
            planned = int(line.split()[1])
    if child.returncode != 0 or not lines:
        return None, planned
    try:
        return json.loads(lines[-1]), planned
    except ValueError:
        return None, planned


def run_workload(name, seed, seconds, trace, contract):
    """All children of one workload; returns its result record."""
    deadline = time.monotonic() + INVOCATION_SECONDS
    os.makedirs(OUT, exist_ok=True)
    cycles = cycles_for(name, seconds, contract["run_seconds"])
    expected = os.path.join(HERE, "expected", "seed%d.json" % seed)
    base = {"workload": name, "seed": seed, "expected": expected}
    setups = []
    modes = ["trace"] if trace else ["setup"] * SETUP_REPEATS + ["measure"]
    result = None
    for mode in modes:
        scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
        spec = dict(base, mode=mode, scratch=scratch, blocks=BLOCKS,
                    cycles=cycles)
        if trace:
            spec["blocks"], spec["cycles"] = trace_shape(cycles)
            spec["trace_path"] = os.path.join(OUT, "trace-%s.json" % name)
        try:
            result, planned = run_child(
                spec, min(CHILD_SECONDS, deadline - time.monotonic())
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if result is None:
            # Killed or crashed: every op it still owed counts as failed.
            planned = max(planned, 1)
            return {"workload": name, "seed": seed, "attempted": planned,
                    "failed": planned, "metrics": {},
                    "problems": ["child (%s) died or timed out" % mode]}
        setups.append(result["setup_s"])
    record = {"workload": name, "seed": seed, "failed": result["failed"],
              "problems": result["problems"],
              "determinism": result["determinism"]}
    if trace:
        record.update(attempted=result["ops"], metrics=result["layer"],
                      self_time_s=result["self_time_s"])
    else:
        metrics = result["metrics"]
        metrics["setup_s"] = statistics.median(setups)
        record.update(attempted=result["info"]["ops"], metrics=metrics,
                      info=result["info"], setup_samples=setups)
    return record


def units(contract, trace):
    section = contract["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def driver_line(record, contract, trace):
    unit = units(contract, trace)
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit[name]}
            for name in unit if name in record["metrics"]
        },
    })


def print_record(record, contract, trace):
    unit = units(contract, trace)
    print("== %s  seed %d  %d ops, %d failed" % (
        record["workload"], record["seed"], record["attempted"],
        record["failed"]))
    for name, value in record["metrics"].items():
        print("  %-34s %16.6f %s" % (name, value, unit.get(name, "ratio")))
    info = record.get("info")
    if info:
        print("  measured %.2f s, %d samples beyond p95, block spread %.3f,"
              " set-up samples %s" % (
                  info["measured_s"], info["samples_beyond_p95"],
                  info["block_spread"],
                  " ".join("%.3f" % s for s in record["setup_samples"])))
    for problem in record["problems"]:
        print("  FAILED: %s" % problem)


# -- repeat / compare --------------------------------------------------

def summarize(sets, contract):
    """Per workload and end-to-end metric: median, quartiles, spread."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    print("%-18s %-18s %12s %12s %12s %8s %7s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for name in sets[0]:
        for metric, bound in bounds.items():
            values = [s[name]["metrics"][metric] for s in sets]
            q1, median, q3 = quartiles(values)
            print("%-18s %-18s %12.5f %12.5f %12.5f %8.4f %7.3f%s" % (
                name, metric, q1, median, q3, iqr_share(values), bound,
                "" if iqr_share(values) * 3 <= bound or metric == "setup_s"
                else "  (over a third of the bound)"))


def compare(path_a, path_b, contract):
    """Each (workload, metric) pairing in its own row: within bound,
    regression, or unresolved when either side's spread exceeds it."""
    with open(path_a) as handle:
        sets_a = json.load(handle)["sets"]
    with open(path_b) as handle:
        sets_b = json.load(handle)["sets"]
    regressions = 0
    print("%-18s %-18s %12s %12s %9s %8s  %s" % (
        "workload", "metric", "median A", "median B", "worse by",
        "spread", "verdict"))
    for name in sets_a[0]:
        if name not in sets_b[0]:
            continue
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [s[name]["metrics"][key] for s in sets_a]
            b = [s[name]["metrics"][key] for s in sets_b]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spread = max(iqr_share(a), iqr_share(b))
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
                regressions += 1
            else:
                verdict = "within bound"
            print("%-18s %-18s %12.5f %12.5f %+8.2f%% %7.2f%%  %s" % (
                name, key, median_a, median_b, worse * 100, spread * 100,
                verdict))
    return regressions


# -- determinism / expected --------------------------------------------

def check_determinism(names, seed, seconds, contract):
    """Each traced (one-tenth) schedule twice; every count must repeat."""
    different = 0
    for name in names:
        first = run_workload(name, seed, seconds, True, contract)
        second = run_workload(name, seed, seconds, True, contract)
        a, b = first.get("determinism"), second.get("determinism")
        if a is None or a != b:
            different += 1
            print("%s: NOT deterministic" % name)
            for key in sorted(set(a or {}) | set(b or {})):
                if (a or {}).get(key) != (b or {}).get(key):
                    print("  %s differs" % key)
        else:
            print("%s: work %d, %d digests, %d layer counts repeat" % (
                name, a["work"], len(a["digests"]), len(a["counts"])))
    return different


def write_expected(names, seed):
    os.makedirs(OUT, exist_ok=True)
    digests = {}
    for name in names:
        scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
        try:
            result, _ = run_child(
                {"workload": name, "seed": seed, "mode": "expected",
                 "scratch": scratch}, CHILD_SECONDS)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if result is None:
            raise SystemExit("expected run of %s failed" % name)
        digests[name] = result["digests"]
    path = os.path.join(HERE, "expected", "seed%d.json" % seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(CYCLES))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro beside BENCHMARK.json — nothing to "
              "benchmark", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.compare:
        return 1 if compare(args.compare[0], args.compare[1], contract) \
            else 0
    seconds = args.seconds if args.seconds else contract["run_seconds"]
    names = [args.workload] if args.workload else \
        [w["name"] for w in contract["workloads"]]
    if args.write_expected:
        write_expected(names, args.seed)
        return 0
    if args.check_determinism:
        return 1 if check_determinism(names, args.seed, seconds,
                                      contract) else 0

    trace = bool(args.trace)
    sets = []
    failed = 0
    for repeat in range(args.repeat):
        records = {}
        for name in names:
            record = run_workload(name, args.seed + repeat, seconds, trace,
                                  contract)
            print_record(record, contract, trace)
            failed += record["failed"]
            records[name] = record
        sets.append(records)
    if args.repeat > 1 and not trace and not failed:
        summarize(sets, contract)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "trace": trace, "sets": sets}, handle, indent=1)
    if args.workload:
        print(driver_line(sets[-1][args.workload], contract, trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
