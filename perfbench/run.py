"""Run one workload of the ybe-lab benchmark and print its metrics.

    python3 perfbench/run.py --workload members-cli --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from the src/ directory next to
perfbench/ and nowhere else. The run sets up its seeded inputs three
times (setup_s is the median, plus import time), then runs whole sweeps of
ops until they have taken --seconds of normalized time (below), checking
every output outside the timed interval. The report goes to stdout; its last line is one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

Times are reference-normalized. The machine this benchmark was written on
shares its cores, and its speed drifts by up to 1.7x for seconds at a
time. So a fixed pure-Python kernel is timed right before and after every
op and every set-up, and every 20 ms of CPU time during it. Each time is
scaled by REF_NOMINAL_S over the median of those kernel times: it reads as
seconds on a machine where the kernel runs at REF_NOMINAL_S per row. The
kernel never calls the library, so a change to the library moves these
figures in full. The report lines also give the raw medians.

A traced run runs each sweep untraced and then again traced, so the
tracing overhead is measured on the same work in the same process; its
per-command medians come from the untraced sweeps and its span list is
written to perfbench/out/.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
REF_NOMINAL_S = 7.2e-5  # per row on a shared 2 GHz x86-64 core; about 6e-5 when idle
PROBE_ROWS = 2
PROBE_INTERVAL_S = 0.02

# Per-command medians: the op kind and size class (None: every size) whose
# untraced latencies give each median, on the one workload that runs it.
COMMAND_METRICS = {
    "construct_p50_ms": ("members-cli", "construct", 64),
    "classify_p50_ms": ("members-cli", "classify", 64),
    "aut_p50_ms": ("members-cli", "aut", 64),
    "iso_p50_ms": ("members-cli", "iso", 64),
    "verify_ok_p50_ms": ("verify-untrusted", "verify-ok", 128),
    "verify_reject_p50_ms": ("verify-untrusted", "verify-witness", 128),
    "recover_p50_ms": ("members-large", "recover", 512),
    "enumerate_p50_ms": ("members-large", "enumerate", None),
    "oracle_p50_ms": ("oracle", "sweep", None),
}


_REF_TABLE = tuple(tuple((i * 7 + k) % 32 for k in range(32)) for i in range(32))


def _kernel(rows):
    """Seconds per row of a fixed cycle-condition-like loop on a 32-point table.

    It allocates no container, so no garbage collection starts inside it.
    """
    inv = _REF_TABLE
    start = perf_counter()
    acc = 0
    for a in range(rows):
        qa = inv[a]
        for b in range(32):
            qu, qb = inv[qa[b]], inv[b]
            for c in range(32):
                acc += qu[qa[c]] == qb[c]
    return (perf_counter() - start) / rows


def reference():
    """Seconds per kernel row, from a 32-row run (about 2 ms)."""
    return _kernel(32)


class _Probe:
    """Samples the machine's speed while an op runs.

    A SIGPROF handler runs a 2-row kernel every PROBE_INTERVAL_S of CPU
    time, so ops longer than the drift's time scale are scaled by the
    speed seen during them, not only at their ends. The handler's own time
    is taken out of the op's time.
    """

    def __init__(self):
        self.samples = []

    def _on_signal(self, signum, frame):
        self.samples.append(_kernel(PROBE_ROWS))

    def run(self, call):
        """Returns (result, seconds without the probes, per-row probe times)."""
        self.samples = []
        previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = perf_counter()
        try:
            result = call()
        finally:
            dt = perf_counter() - t0
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        return result, dt - sum(self.samples) * PROBE_ROWS, self.samples


def _scale(ref_before, ref_after, probes):
    """Factor from raw seconds to seconds at REF_NOMINAL_S per kernel row."""
    return REF_NOMINAL_S / statistics.median([ref_before, ref_after, *probes])


def _import_library():
    """Import ybe_lab from ROOT/src only; exit with an error when it is not there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import ybe_lab
    except ImportError as exc:
        sys.exit(f"error: cannot import ybe_lab from {src}: {exc}")
    if not Path(ybe_lab.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: ybe_lab resolved to {ybe_lab.__file__}, not under {src}")


def tail(latencies):
    """(value, percentile, count) at the highest percentile with ten samples above."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Sample(NamedTuple):
    kind: str
    size: int
    seconds: float  # normalized
    raw: float
    sweep: int
    traced: bool


def measure(wl, seconds, tracer=None):
    """Run whole sweeps until the ops' normalized time reaches `seconds`.

    Counting normalized time, not wall time, makes the number of sweeps,
    and so the op mix, independent of the machine's drift. A run still
    stops after 2 * seconds of wall time, at the end of a sweep. With a
    tracer, each sweep runs untraced and then again traced, and the loop
    stops only after a traced sweep. Returns (samples, failures, attempted).
    """
    samples, failures = [], []
    rps = wl.rounds_per_sweep
    attempted = k = 0
    busy = 0.0
    probe = _Probe()
    start = perf_counter()
    ref_before = reference()
    while True:
        sweep = k // rps
        if tracer is None:
            traced, ops = False, wl.round(k)
        else:
            traced, ops = sweep % 2 == 1, wl.round(k // (2 * rps) * rps + k % rps)
        if traced:
            tracer.install()
        try:
            for op in ops:
                attempted += 1
                call = op.call
                if traced:
                    call = lambda op_id=attempted, call=call: tracer.run_op(op_id, call)[0]  # noqa: E731
                try:
                    result, dt, probes = probe.run(call)
                except Exception as exc:  # a traceback counts as a failed op
                    failures.append(f"{op.kind} {op.size}: {type(exc).__name__}: {exc}")
                    ref_before = reference()
                    continue
                ref_after = reference()
                scale = _scale(ref_before, ref_after, probes)
                ref_before = ref_after
                samples.append(Sample(op.kind, op.size, dt * scale, dt, sweep, traced))
                busy += dt * scale
                try:
                    problem = op.check(result)
                except Exception as exc:
                    problem = f"checker raised {type(exc).__name__}: {exc}"
                if problem:
                    failures.append(problem)
        finally:
            if traced:
                tracer.uninstall()
        k += 1
        done = k % rps == 0 and (busy >= seconds or perf_counter() - start >= 2 * seconds)
        if tracer is not None:
            done = done and k % (2 * rps) == 0
        if done:
            return samples, failures, attempted


def command_metrics(name, samples):
    """The per-command medians, in ms; 0.0 for commands this workload does not run."""
    out = {}
    for metric, (workload, kind, size) in COMMAND_METRICS.items():
        values = []
        if workload == name and kind == "sweep":
            sweeps = {}
            for s in samples:
                sweeps.setdefault(s.sweep, []).append(s.seconds)
            full = max(len(v) for v in sweeps.values())
            values = [sum(v) for v in sweeps.values() if len(v) == full]
        elif workload == name:
            values = [s.seconds for s in samples if s.kind == kind and size in (None, s.size)]
        out[metric] = (statistics.median(values) * 1000 if values else 0.0, "ms")
    return out


def _setup(workloads, args, tmp):
    """Build the workload SETUP_REPEATS times; returns it and the median set-up time."""
    times = []
    probe = _Probe()
    ref_before = reference()
    for i in range(SETUP_REPEATS):
        workdir = os.path.join(tmp, f"setup{i}")
        os.mkdir(workdir)

        def build(workdir=workdir):
            wl = workloads.build(args.workload, args.seed, workdir)
            wl.warmup()
            return wl

        wl, dt, probes = probe.run(build)
        ref_after = reference()
        times.append(dt * _scale(ref_before, ref_after, probes))
        ref_before = ref_after
    return wl, statistics.median(times)


def main(argv=None):
    _import_library()
    from perfbench import tracing, workloads

    parser = argparse.ArgumentParser(description="Run one ybe-lab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = (perf_counter() - _T0) * REF_NOMINAL_S / reference()

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        wl, setup_median = _setup(workloads, args, tmp)
        tracer = tracing.Tracer() if args.trace else None
        samples, failures, attempted = measure(wl, args.seconds, tracer)

    plain = [s for s in samples if not s.traced]
    latencies = [s.seconds for s in plain]
    tail_s, tail_pct, count = tail(latencies)
    end_to_end = {
        "setup_s": (import_s + setup_median, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    commands = command_metrics(args.workload, plain)

    print(f"# workload {args.workload}, seed {args.seed}: {workloads.WHY[args.workload]}")
    print(f"# {attempted} ops attempted, {len(failures)} failed, "
          f"error_rate {len(failures) / attempted:.6f}")
    for problem in failures[:20]:
        print(f"# FAILED {problem}")
    raw = [s.raw for s in plain]
    print(f"# op_tail_ms is p{tail_pct:.1f} of {count} untraced samples; raw op p50 "
          f"{statistics.median(raw) * 1000:.6g} ms, raw ops/s {len(raw) / sum(raw):.6g}")
    for name, (value, unit) in {**end_to_end, **commands}.items():
        if value:
            print(f"{name} {value:.6g} {unit}")

    if args.trace:
        per_layer, op_time, unattributed = tracing.layer_stats(tracer.spans)
        traced = [s.seconds for s in samples if s.traced]
        per_layer["trace.overhead_ratio"] = (
            (len(traced) / sum(traced)) / end_to_end["ops_per_s"][0], "ratio")
        print(f"# traced: {len(traced)} ops, {op_time:.6f} s raw in ops, {unattributed:.6f} s "
              f"outside wrapped layers, {len(tracer.spans)} spans")
        for name, (value, unit) in per_layer.items():
            if value:
                print(f"{name} {value:.6g} {unit}")
        per_layer.update(commands)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = per_layer
    else:
        metrics = end_to_end

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
