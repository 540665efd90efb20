"""stableci benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-screen --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the package is imported from ./src). It
sets up the workload's inputs several times in fresh interpreters (their
median wall time is setup_s), then runs the workload's `stableci.cli.main`
calls in one measurement process for --seconds, checks every output and
prints the environment, each metric with its unit, the checks, and as the
last line one JSON object {correct, attempted, failed, metrics}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced run. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPS = {"sweep": 7, "csv": 3}
WORK_ROOT = ".perfbench_work"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _blas_threads(workers: int) -> int:
    """BLAS threads per process so that workers x threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    return max(1, nproc // workers)


def _git_sha() -> str:
    """HEAD of a git checkout in the current directory, read from .git
    without running git (which would search the parent directories)."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)),
                        "unknown")
    except OSError:
        return "unknown"


def _code_hash() -> str:
    """Hash of the package source and the benchmark code: the key under
    which results of one code version and seed must repeat exactly."""
    h = hashlib.sha256()
    for base in ("src", os.path.relpath(HERE)):
        for root, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(root, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _environment(blas_threads: int, blas_threads_measured) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas_threads_set": blas_threads,
            "blas_threads_measured_process": blas_threads_measured}


def _run(cmd: list[str], deadline: float) -> float:
    """Run cmd in its own process group; kill the group at the deadline.
    Returns the wall time. A timer thread does the killing, so that wait()
    needs no timeout: with one it polls in sleeps of up to 50 ms, which
    rounded set-up times up to those steps."""
    expired = threading.Event()

    def kill() -> None:
        expired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group ended meanwhile
            pass

    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if expired.is_set():
        raise RuntimeError(f"{os.path.basename(cmd[1])} passed the run deadline")
    if rc != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} ... exited with {rc}")
    return elapsed


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def _history(key: str, facts: dict) -> list[str]:
    """Results of an earlier run of the same code, workload and seed must
    match: the records hash, the intervals hash and the exact counters."""
    directory = os.path.join(WORK_ROOT, "history")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    try:
        with open(path) as fh:
            old = json.load(fh)
    except (OSError, ValueError):
        old = {}
    problems = [f"{name} differs from an earlier run of this code and seed: "
                f"{old[name]} != {value}"
                for name, value in facts.items() if name in old and old[name] != value]
    with open(path, "w") as fh:
        json.dump({**old, **facts}, fh, sort_keys=True)
    return problems


class Tally:
    """What the checks of one run found, and the samples its metrics use."""

    def __init__(self):
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {"trials_per_s": [], "select_s": [], "ci_s": []}
        self.raw: dict[str, list[float]] = {"trials_per_s": [], "select_s": [], "ci_s": []}
        self.unit_s: dict[bool, list[float]] = {False: [], True: []}  # by traced
        self.records_sha: set[str] = set()
        self.intervals_sha: set[str] = set()
        self.width_q90: list[float] = []


def _tally(w, measured: dict, X, y) -> Tally:
    """Check every iteration's outputs; collect times at reference speed
    (and raw) from the untraced iterations, and experiment (sweeps) or
    pipeline (cli-csv) times of both kinds for the tracing overhead."""
    import checks
    from speed import bracketed, probed

    def at_ref(call: dict) -> float:
        if w.probe_calls:
            return probed(call["s"], call["probe"])
        return bracketed(call["s"], *call["ref"])

    t = Tally()
    checked: dict[str, dict] = {}  # check_intervals() of each output path
    size = int(w.select_args[w.select_args.index("--k") + 1]) \
        if "--k" in w.select_args else None
    for it in measured["iterations"]:
        timed = not it["traced"]
        if w.kind == "sweep":
            per_call = w.config["trials"] * len(w.config["eta_grid"])
            t.attempted += per_call
            exp = it["experiment"]
            if exp["rc"] != 0:
                t.failed += per_call
                t.problems.append(f"experiment exited {exp['rc']}: {exp['err']}")
            else:
                facts = checks.check_records(
                    os.path.join(it["dir"], "exp", "records.csv"), w.config)
                t.failed += facts["flagged"]
                t.problems += facts["problems"]
                t.records_sha.add(facts["sha256"])
                t.width_q90.append(facts["width_q90"])
                t.unit_s[it["traced"]].append(at_ref(exp))
                if timed:
                    t.samples["trials_per_s"].append(per_call / at_ref(exp))
                    t.raw["trials_per_s"].append(per_call / exp["s"])
        for pair in it["pairs"]:
            t.attempted += 2
            calls = [pair["select"], pair.get("ci")]
            bad = [c for c in calls if c is None or c["rc"] != 0]
            t.failed += len(bad)
            t.problems += [f"{c['err']} (exit {c['rc']})" for c in bad if c is not None]
            if bad:
                continue
            if not pair["written"]:
                t.problems.append(f"ci exited 0 but did not write {pair['iv']}")
                continue
            # the file holds the last iteration's output; earlier ones must
            # have the same hash
            if pair["iv"] not in checked:
                checked[pair["iv"]] = checks.check_intervals(pair["iv"], X, y, size)
                t.problems += checked[pair["iv"]]["problems"]
                t.intervals_sha.add(checked[pair["iv"]]["sha256"])
            facts = checked[pair["iv"]]
            t.intervals_sha.add(pair["sha256"])
            sel, ci = calls
            if w.kind == "csv":
                t.width_q90.append(facts["width_q90"])
                t.unit_s[it["traced"]].append(at_ref(sel) + at_ref(ci))
                if timed:
                    t.samples["trials_per_s"].append(1.0 / (at_ref(sel) + at_ref(ci)))
                    t.raw["trials_per_s"].append(1.0 / (sel["s"] + ci["s"]))
            if timed:
                t.samples["select_s"].append(at_ref(sel))
                t.samples["ci_s"].append(at_ref(ci))
                t.raw["select_s"].append(sel["s"])
                t.raw["ci_s"].append(ci["s"])
    if len(t.records_sha) > 1 or len(t.intervals_sha) > 1:
        t.problems.append("outputs differ between iterations of one run (traced or not)")
    if not t.unit_s[False]:
        t.problems.append("no successful untraced iteration")
    return t


def _set_up(w, seed: int, work: str, reps: int, deadline: float) -> list[float]:
    """Wall times of reps runs of the set-up step. They are not scaled to
    the reference speed: start-up and imports wait on the file system and
    memory more than on the core, and scaling made them spread more."""
    return [_run([sys.executable, os.path.join(HERE, "workloads.py"), "--workload", w.name,
                  "--seed", str(seed), "--dir", work], deadline)
            for _ in range(reps)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="stableci benchmark (one workload, one run)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "stableci", "cli.py")):
        return _fail("run from the root of a stableci checkout (no src/stableci/cli.py here)")
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, make_design
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    w = WORKLOADS[args.workload]

    # before numpy loads, here and in every process started below
    threads = _blas_threads(w.workers)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ["PYTHONHASHSEED"] = "0"  # same str hashes, dict layouts in every run
    src = os.path.abspath("src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, src)
    from tracing import EXACT_COUNTERS, LAYER_METRICS

    work = os.path.abspath(os.path.join(WORK_ROOT, f"{w.name}-{args.seed}-{os.getpid()}"))
    os.makedirs(work)
    try:
        setup_s = _set_up(w, args.seed, work, 1 if args.trace else SETUP_REPS[w.kind], deadline)
        trace_file = os.path.abspath(os.path.join(WORK_ROOT, f"trace-{w.name}.json"))
        _run([sys.executable, os.path.join(HERE, "measure.py"), "--workload", w.name,
              "--seed", str(args.seed), "--dir", work, "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--trace-file", trace_file], deadline)
        with open(os.path.join(work, "measure.json")) as fh:
            measured = json.load(fh)
        t = _tally(w, measured, *make_design(w, args.seed))
    except RuntimeError as e:
        return _fail(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    layers = measured["layers"]
    counters = {}
    for name in EXACT_COUNTERS:
        seen = {layer[name] for layer in layers}
        if len(seen) > 1:
            t.problems.append(f"counter {name} differs between traced iterations: {seen}")
        counters[name] = seen.pop() if seen else None
    code_hash = _code_hash()
    facts = {"records_sha256": sorted(t.records_sha),
             "intervals_sha256": sorted(t.intervals_sha)}
    if args.trace:
        facts["counters"] = counters
    t.problems += _history(f"{w.name}-seed{args.seed}-{code_hash[:16]}", facts)

    if args.trace:
        samples = {name: [layer[name] for layer in layers] for name in LAYER_METRICS}
        metrics = {name: {"value": (statistics.median_low if unit == "count" else _median)(
                       samples[name]), "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        traced, untraced = _median(t.unit_s[True]), _median(t.unit_s[False])
        metrics["bench.trace_overhead"] = {
            "value": traced / untraced - 1 if untraced > 0 else 0.0, "unit": "ratio"}
    else:
        samples = {**t.samples, "setup_s": setup_s}
        rss_kb = measured["maxrss_kb"] + w.workers * measured["children_maxrss_kb"]
        metrics = {
            "setup_s": {"value": _median(setup_s), "unit": "s"},
            "trials_per_s": {"value": _median(samples["trials_per_s"]), "unit": "1/s"},
            "select_s": {"value": _median(samples["select_s"]), "unit": "s"},
            "ci_s": {"value": _median(samples["ci_s"]), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "width_q90": {"value": t.width_q90[0] if t.width_q90 else 0.0, "unit": "y"},
        }

    env = _environment(threads, measured["blas_threads"])
    env["code_hash"] = code_hash
    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} iterations={len(measured['iterations'])}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"records_sha256 {' '.join(sorted(t.records_sha)) or '-'}")
    print(f"intervals_sha256 {' '.join(sorted(t.intervals_sha)) or '-'}")
    for name, m in metrics.items():
        note = f"; raw wall median {_median(t.raw[name]):.6g}" if name in t.raw else ""
        print(f"metric {name} = {m['value']:.6g} {m['unit']} "
              f"({_spread(samples.get(name, []))}{note})")
    print(f"operations attempted={t.attempted} failed={t.failed} "
          f"fail_frac={t.failed / max(t.attempted, 1):.6g}")
    for problem in t.problems:
        print(f"check FAILED: {problem}")
    if not t.problems:
        print("checks ok")
    print(json.dumps({"correct": not t.problems, "attempted": t.attempted,
                      "failed": t.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
