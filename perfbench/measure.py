"""One measurement process of the stableci benchmark.

Runs the workload's calls into `stableci.cli.main` in a loop, after one
untimed warm-up iteration, until the given number of seconds have passed and
at least MIN_TIMED iterations are done, and writes their timings, exit codes and output paths to
DIR/measure.json; run.py checks the outputs and turns the timings into
metrics. Its own peak memory is the workload's, which is why the checks and
the input generation live in other processes.

With --trace 1 untraced and traced iterations alternate (at least one
untraced and two traced), and every traced iteration adds its per-layer
totals; the spans of the last one are written to --trace-file.

    python3 perfbench/measure.py --workload W --dir WORK --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import stableci.cli as cli

from checks import sha256
from speed import PAD_S, REF_REPS, SpeedMeter, reference
from workloads import CONFIG_FILE, WORKLOADS, X_FILE, Y_FILE

MIN_TIMED = 4  # timed iterations, however short --seconds is
SHORT_REPS = 12  # reference() repetitions around each small select or ci call


class _Caller:
    """Calls cli.main and times each call. Unless the workload probes during
    calls (see speed.py), each call gets the times of reference() right
    before and right after it; consecutive calls share the run between
    them. finish() adds each call's mean probe time if the workload probes."""

    def __init__(self, probe_calls: bool):
        self.meter = SpeedMeter() if probe_calls else None
        self.calls: list[dict] = []
        self.last_ref = None  # ((all_cpus, reps), seconds) of the latest reference()

    def _reference(self, kind: tuple[bool, int]) -> float:
        self.last_ref = (kind, reference(*kind))
        return self.last_ref[1]

    def __call__(self, argv: list[str], rec, all_cpus: bool = False,
                 reps: int = REF_REPS) -> dict:
        kind = (all_cpus, reps)
        before = None
        if self.meter is None:
            before = self.last_ref[1] if self.last_ref and self.last_ref[0] == kind \
                else self._reference(kind)
        err = io.StringIO()
        with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(err):
            start = time.perf_counter()
            try:
                if rec is None:
                    rc = cli.main(argv)
                else:
                    with rec.span("cli.main", extra=argv[0]):
                        rc = cli.main(argv)
            except Exception:  # a crash is one failed operation, not the end of the run
                rc = -1
                err.write(traceback.format_exc(limit=3))
            end = time.perf_counter()
        call = {"rc": rc, "s": end - start, "span": [start, end],
                "err": err.getvalue().strip()[-400:]}
        if self.meter is None:
            call["ref"] = [before, self._reference(kind)]
        self.calls.append(call)
        return call

    def finish(self) -> None:
        for call in self.calls:
            span = call.pop("span")
            if self.meter is not None:
                call["probe"] = self.meter.mean_probe(*span)


def _blas_threads() -> int | None:
    """Threads OpenBLAS uses in this process, as the library reports it."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def _mtime(path: str) -> int | None:
    try:
        return os.stat(path).st_mtime_ns
    except FileNotFoundError:
        return None


def _iteration(call: _Caller, w, work: str, seed: int, index: int, rec) -> dict:
    """The experiment call (sweeps), then w.pairs select/ci pairs."""
    out = os.path.join(work, f"it{index}")
    os.makedirs(out, exist_ok=True)
    x, y = os.path.join(work, X_FILE), os.path.join(work, Y_FILE)
    it = {"dir": out, "traced": rec is not None, "pairs": []}
    if w.kind == "sweep":
        # the pool's workers run on every CPU, so its reference does too
        it["experiment"] = call(["experiment", "--config", os.path.join(work, CONFIG_FILE),
                                 "--out-dir", os.path.join(out, "exp"),
                                 "--workers", str(w.workers)], rec, all_cpus=w.workers > 1)
    for j in range(w.pairs):
        # The same two paths in every iteration: the calls overwrite their
        # output instead of creating a file, whose cost on a virtual disk
        # swings many-fold over minutes with the file system's background
        # work. The hash taken here, after the timed call, keeps each
        # iteration's output checkable.
        sel, iv = os.path.join(work, f"sel{j}.csv"), os.path.join(work, f"iv{j}.csv")
        # a short reference around each of these few-millisecond calls
        # follows the speed of the machine more closely than a long one
        # around all of them
        pair = {"select": call(["select", "--x", x, "--y", y, *w.select_args,
                                "--seed", str(seed), "--out", sel], rec, reps=SHORT_REPS),
                "iv": iv}
        if pair["select"]["rc"] == 0:
            stamp = _mtime(iv)
            pair["ci"] = call(["ci", "--x", x, "--y", y, "--selection", sel, *w.ci_args,
                               "--out", iv], rec, reps=SHORT_REPS)
            if pair["ci"]["rc"] == 0:
                pair["written"] = _mtime(iv) != stamp
                pair["sha256"] = sha256(iv)
        it["pairs"].append(pair)
    return it


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]

    rec = None
    if args.trace:
        import tracing
        rec = tracing.Recorder()

    call = _Caller(w.probe_calls)
    if call.meter is not None:
        call.meter.start()
    # the first calls pay lazy imports, BLAS start-up and cold caches; not timed
    _iteration(call, w, args.dir, args.seed, 0, None)

    iterations, layers, last_spans = [], [], []
    start = time.perf_counter()
    index = 1
    while True:
        traced = args.trace and index % 3 != 1  # U T T U T T ...
        if traced:
            rec.reset()
            tracing.install(rec)
            try:
                it = _iteration(call, w, args.dir, args.seed, index, rec)
            finally:
                tracing.uninstall()
            layers.append(tracing.layer_metrics(rec.spans))
            last_spans = rec.spans
        else:
            it = _iteration(call, w, args.dir, args.seed, index, None)
        iterations.append(it)
        index += 1
        enough = time.perf_counter() - start >= args.seconds
        if args.trace:
            if enough and len(layers) >= 2:
                break
        elif enough and len(iterations) >= MIN_TIMED:
            break

    if call.meter is not None:
        time.sleep(PAD_S)  # probes after the last call
        call.meter.stop()
    call.finish()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(os.path.join(args.dir, "measure.json"), "w") as fh:
        json.dump({"iterations": iterations, "layers": layers, "blas_threads": _blas_threads(),
                   "maxrss_kb": own, "children_maxrss_kb": children}, fh)
    if args.trace and args.trace_file:
        with open(args.trace_file, "w") as fh:
            json.dump({"fields": ["name", "parent", "trial", "start", "end", "extra"],
                       "spans": last_spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
