"""Benchmark of the crosscap library: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  Each run is a closed loop with one client: the
next job starts when the previous one has finished and its outputs have
been checked against the oracles.  The loop runs whole rounds of jobs until
``--seconds`` have passed, so every run does the same mix of work.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs each job twice, once with the span tracer installed and
once without (alternating which goes first), and reports per-layer
metrics plus the tracing overhead.

Lines starting with ``#`` are the human-readable report (every metric by
name with its unit, the machine, and any failed checks); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full details and, for traced runs, the
recorded spans go to ``.bench_out/`` in the checkout.

``correct`` is false when a job raised or an oracle check failed, except
for failures with the signature of a defect the roadmap already tracks
(see ``workloads.py``); those still count in ``checks_failed_frac``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_CAP = 2
SETUP_PROBES = 7
STARTUP_PROBES = 3
# A run stops mid-round only when a round runs this far past --seconds.
MAX_OVERRUN_S = 60.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LIB_MODULES = (
    "wirtinger", "linespace", "sections", "cpoints", "blowup", "euclid", "ledger", "verify", "cli",
)


def cap_blas_threads():
    """Cap the BLAS pool at min(nproc, 2) before numpy loads; return the cap."""
    cap = min(os.cpu_count() or 1, BLAS_THREAD_CAP)
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cap:
            os.environ[var] = str(cap)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def load_library():
    """Import crosscap from this checkout's src/, never from anywhere else."""
    if not (SRC / "crosscap" / "__init__.py").is_file():
        raise SystemExit(f"error: no crosscap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    lib = {name: importlib.import_module(f"crosscap.{name}") for name in LIB_MODULES}
    if Path(lib["cli"].__file__).resolve().parent != SRC / "crosscap":
        raise SystemExit("error: crosscap was imported from outside this checkout")
    return lib


def _read_cache(index):
    path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        try:
            blas = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(blas, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info(np, blas_cap):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_cap": blas_cap,
        "blas_threads": _blas_runtime_threads(),
        "l2_bytes": _read_cache(2),
        "l3_bytes": _read_cache(3),
        "loadavg": list(os.getloadavg()),
    }


def make_workload(name, seed, lib, workdir, in_process, np):
    import workloads

    ctx = {"workdir": str(workdir), "src": str(SRC), "in_process": in_process}
    return workloads.WORKLOADS[name](np.random.default_rng(seed), lib, ctx)


def tail(times, pct):
    """The ``pct`` percentile of ``times`` and the number of samples beyond it."""
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1] if pct < 100 else max(times)
    return value, sum(t > value for t in times)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _wall_time(cmd, env=None):
    """Wall time of a child process.  Its output is read so that the wait
    ends when the child closes it at exit: a bare wait with a timeout polls
    in steps of up to 50 ms, which would quantize the time."""
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, env=env, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def probe_setup(name, seed, count):
    """Median wall time of fresh interpreters that import crosscap and run one warm-up job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", name,
           "--seed", str(seed)]
    return statistics.median(_wall_time(cmd) for _ in range(count))


def probe_startup(count):
    """Median wall time of a bare interpreter importing crosscap.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import crosscap.cli"]
    return statistics.median(_wall_time(cmd, env) for _ in range(count))


class Tally:
    """Job times, failures, checks and counters of one run."""

    def __init__(self):
        self.times = []
        self.rounds = []                # job times of each round
        self.failed = 0
        self.errors = []
        self.checks = []
        self.counters = {}
        self.largest_working_set = 0

    def job(self, workload, spec, runner):
        """Run one job through ``runner``; record its time, checks and counters."""
        try:
            out, dt = runner(spec)
        except Exception as exc:  # a failing job is a result, not a crash of the benchmark
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        self.times.append(dt)
        self.rounds[-1].append(dt)
        self.checks.extend(workload.check(spec, out))
        for key, value in workload.counters(spec, out).items():
            if key == "working_set_bytes":
                self.largest_working_set = max(self.largest_working_set, value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    @property
    def attempted(self):
        return len(self.times) + self.failed

    def unexpected_failures(self):
        return [c for c in self.checks if not c.ok and not c.known_defect]

    def correct(self):
        return self.failed == 0 and not self.unexpected_failures()


def closed_loop(workload, seconds, tally, step):
    """Call ``step(spec)`` for whole rounds of jobs until ``seconds`` have passed."""
    t0 = time.perf_counter()
    for job_round in workload.rounds():
        tally.rounds.append([])
        for spec in job_round:
            step(spec)
            if time.perf_counter() - t0 >= seconds + MAX_OVERRUN_S:
                return
        if time.perf_counter() - t0 >= seconds:
            return


def run_plain(workload, seconds, tally):
    def step(spec):
        tally.job(workload, spec, lambda s: _timed(workload.run, s))

    closed_loop(workload, seconds, tally, step)


def run_traced(workload, seconds, tally, tracer):
    """Each job runs untraced and traced, alternating the order; returns the two time sums."""
    sums = {False: 0.0, True: 0.0}
    count = [0]

    def once(spec, traced):
        if traced:
            tracer.job_id = count[0]
            tracer.install()
        try:
            return _timed(workload.run, spec)
        finally:
            if traced:
                tracer.uninstall()

    def runner(spec):
        order = (False, True) if count[0] % 2 == 0 else (True, False)
        results = {}
        for traced in order:
            results[traced] = once(spec, traced)
        sums[False] += results[False][1]
        sums[True] += results[True][1]
        count[0] += 1
        return results[True]

    closed_loop(workload, seconds, tally, lambda spec: tally.job(workload, spec, runner))
    return sums[False], sums[True]


def report_lines(workload_name, metrics, units, extra):
    lines = [f"# workload {workload_name}"]
    for key, value in metrics.items():
        lines.append(f"#   {key:36s} {value:16.6g} {units[key]}")
    for key, value in extra.items():
        lines.append(f"# {key}: {value}")
    return lines


def run_once(args):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    blas_cap = cap_blas_threads()
    lib = load_library()
    import numpy as np

    import layers
    import spans

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = make_workload(args.workload, args.seed, lib, workdir, bool(args.trace), np)
        tally = Tally()
        warm = Tally()
        warm.rounds.append([])
        warm.job(workload, workload.warmup(), lambda s: _timed(workload.run, s))
        tracer = None
        if args.trace:
            tracer = spans.Tracer(lib)
            untraced_s, traced_s = run_traced(workload, args.seconds, tally, tracer)
        else:
            run_plain(workload, args.seconds, tally)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    finally:
        for path in sorted(workdir.iterdir()):
            path.unlink()
        workdir.rmdir()

    if not tally.times:
        raise SystemExit(f"error: no job completed; first error: {tally.errors[:1]}")
    failed_checks = [c for c in tally.checks if not c.ok]
    info = machine_info(np, blas_cap)
    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        largest_working_set_bytes=tally.largest_working_set,
        jobs=tally.attempted,
    )
    if args.trace:
        sp = spans.Spans(tracer.arrays(), tracer.names)
        computed, not_exercised = layers.layer_metrics(
            sp,
            n_jobs=len(tally.times),
            job_wall=traced_s,
            overhead=traced_s / untraced_s - 1.0,
            checks=tally.checks,
            counters=tally.counters,
            startup_s=probe_startup(STARTUP_PROBES),
            jobs_failed_frac=tally.failed / tally.attempted,
        )
        if set(computed) != set(units):
            raise SystemExit(
                "error: traced metrics differ from BENCHMARK.json per_layer: "
                + ", ".join(sorted(set(computed) ^ set(units)))
            )
        metrics = {name: computed[name] for name in units}
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        shares = {k: v for k, v in metrics.items() if k.startswith("share.")}
        top = max(shares, key=shares.get).split(".", 1)[1]
        extra = {
            "not exercised on this workload (reported as 0)": ", ".join(not_exercised) or "none",
            "dominant layer": f"{top} (predicted {workload.dominant}: "
            f"{'held' if top == workload.dominant else 'FAILED'})",
        }
    else:
        tail_s, beyond = tail(tally.times, workload.tail_pct)
        metrics = {
            "jobs_per_s": statistics.median(len(r) / sum(r) for r in tally.rounds if r),
            "job_p50_ms": 1e3 * statistics.median(tally.times),
            "job_tail_ms": 1e3 * tail_s,
            "jobs_failed_frac": tally.failed / tally.attempted,
            "checks_failed_frac": len(failed_checks) / max(len(tally.checks), 1),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": probe_setup(args.workload, args.seed, SETUP_PROBES),
        }
        # printed, but not declared: they can read 0, which end_to_end forbids
        units.update(jobs_failed_frac="ratio", checks_failed_frac="ratio")
        extra = {
            "jobs_per_s is": f"the median over {len(tally.rounds)} rounds of a round's jobs per second",
            "job_tail_ms is": f"p{workload.tail_pct} of {len(tally.times)} jobs, {beyond} beyond it"
            + ("" if beyond >= 10 else " (fewer than ten)"),
        }
    extra["machine"] = json.dumps(info, sort_keys=True)
    extra["checks"] = f"{len(tally.checks)} run, {len(failed_checks)} failed"
    groups = {}
    for check in failed_checks:
        groups.setdefault((check.name, check.layer, check.known_defect), []).append(check)
    for (name, layer, known), group in sorted(groups.items()):
        tag = "known defect" if known else "UNEXPECTED"
        extra[f"failed check {name} ({layer}), {tag}"] = f"{len(group)} times, first: {group[0].detail}"
    if tally.errors:
        extra["job errors"] = "; ".join(tally.errors[:5])
    lines = report_lines(args.workload, metrics, units, extra)
    details = {
        "info": info,
        "metrics": metrics,
        "units": units,
        "checks": [c.__dict__ for c in tally.checks if not c.ok],
        "job_errors": tally.errors,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True, default=str)
    keys = [m["name"] for m in section]
    result = {
        "correct": tally.correct(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in keys},
    }
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_probe(args):
    cap_blas_threads()
    lib = load_library()
    import numpy as np

    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, args.seed, lib, workdir, True, np)
        workload.run(workload.warmup())
    finally:
        for path in sorted(workdir.iterdir()):
            path.unlink()
        workdir.rmdir()
    return 0


def run_all(args):
    """Every workload in its own fresh process, printing each report."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def parse_args(argv):
    names = ("capsweep", "sections", "surfaces", "cli")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit("error: BENCHMARK.json not found at the checkout root")
    if args.probe:
        return run_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
