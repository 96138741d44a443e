"""Closed-loop benchmark of the ssbve toolkit.

    python3 perfbench/run.py --workload planted --seed 0 --seconds 30 --trace 0

One client runs ops back to back, serially, in this process: an op starts
only after the previous one has finished and been checked.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs each case once untraced and once traced and reports the per-layer
metrics from the traced ops.  The last line of standard output is one JSON
object; the lines before it are a readable summary.  A record with the
provenance, the op times and the tail percentile goes to
``perfbench/out/``.  Without ``--workload`` the three workloads run one
after another, each in its own process.  Reported times are wall times
scaled to a reference host speed by ``hostspeed``; the unscaled figures are
printed beside them.  See README.md for the metrics.
"""

import time

T0 = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402  (this script's directory is on sys.path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("planted", "worst", "certify")
SETUP_SAMPLES = 3   # this process's set-up plus two in fresh processes
MIN_OPS = 11        # op_s.tail needs one op with ten beyond it
SETUP_READINGS = 9  # host-speed readings that scale one set-up time
PROBE_SHARE = 0.05  # host-speed readings take this share of the op time
CHILD_TIMEOUT_S = 170


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> int:
    """Run numpy's BLAS on one thread; must run before numpy is imported.
    The benchmark is one serial client, so it stays on one core and does
    not depend on a second core of a shared host being free.  Returns the
    thread count in force."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
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
    return None


def _provenance(blas_threads: int) -> dict:
    import numpy
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": _nproc(),
            "blas_threads": blas_threads, "machine": platform.machine(),
            "git_sha": _git_sha()}


def _import_program():
    """Import ssbve from this checkout's src/ and the benchmark modules."""
    if not (SRC / "ssbve" / "__init__.py").is_file():
        sys.exit(f"error: no ssbve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def _run_op(wl, case):
    """One timed op and its check: (seconds, result, ok, quality)."""
    start = time.perf_counter()
    try:
        result = wl.op(case)
    except Exception:  # an op that raises is a failed op, not a crash
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, False, float("nan")
    elapsed = time.perf_counter() - start
    outcome = wl.check(case, result)
    return elapsed, result, outcome.ok, outcome.quality


class Loop:
    """Op bookkeeping shared by the untraced and the traced loop."""

    def __init__(self, wl, quality_cases: int) -> None:
        self.wl = wl
        self.quality_cases = quality_cases
        self.expected: dict[int, object] = {}  # first result per case
        self.quality: dict[int, float] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, index: int):
        case = self.wl.cases[index]
        elapsed, result, ok, quality = _run_op(self.wl, case)
        self.attempted += 1
        # Ops are deterministic: a case must give the same result every time.
        if ok and self.expected.setdefault(index, result) != result:
            print(f"error: case {index} changed its result", file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
        elif index < self.quality_cases:
            self.quality[index] = quality
        return elapsed, ok

    def quality_mean(self) -> float:
        if len(self.quality) < self.quality_cases:
            return float("nan")
        return statistics.fmean(self.quality.values())


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, but not below
    the median, and its value."""
    ordered = sorted(times)
    idx = max(len(ordered) // 2, len(ordered) - 11)
    return 100.0 * idx / len(ordered), ordered[idx]


def _setup(name: str, seed: int, trace: bool):
    """Imports, input generation and one untimed warm-up op."""
    blas_threads = _limit_blas_threads()
    workloads = _import_program()
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[name](seed)
    if tracer:
        tracer.uninstall()
    # The first call into numpy's linear algebra pays a lazy set-up that
    # users pay once per process; keep it out of the timed ops.
    _run_op(wl, wl.cases[0])
    wall = time.perf_counter() - T0
    scale = hostspeed.factor(
        [hostspeed.reading() for _ in range(SETUP_READINGS)])
    setup = {"setup_s": wall * scale, "wall_s": wall, "host_factor": scale}
    return wl, tracer, blas_threads, setup


def _child_setups(args, count: int) -> list[dict]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def _pool_rate(times: list[float], oks: list[bool], pool: int) -> float:
    """Passed ops per second of op time over one pass of the case pool: the
    pool size over the sum of each case's median op time, times the share
    of ops that passed.  Op i ran case i % pool.  The per-case median drops
    ops slowed by a burst on a shared host, and summing over the whole pool
    keeps the instance mix the same on every run of a seed, which slices of
    consecutive ops would not on `worst`, whose op times vary several-fold
    by instance."""
    per_case = [statistics.median(times[i::pool]) for i in range(pool)]
    return pool / sum(per_case) * sum(oks) / len(oks)


def _untraced(wl, seconds: float) -> tuple[Loop, dict, dict]:
    """Ops over the case pool in order, until `seconds` have passed and
    every case has run at least once.  Between ops the host's speed is read
    until the readings have taken PROBE_SHARE of the op time so far.  The
    times are taken over whole passes of the pool, so that every case
    weighs the same and a run of a seed always times the same mix."""
    loop = Loop(wl, wl.quality_cases)
    pool = len(wl.cases)
    times: list[float] = []
    oks: list[bool] = []
    readings = [hostspeed.reading()]
    probe_s = 0.0
    start = time.perf_counter()
    while True:
        elapsed, ok = loop.run(len(times) % pool)
        times.append(elapsed)
        oks.append(ok)
        while probe_s < PROBE_SHARE * sum(times):
            probe_start = time.perf_counter()
            readings.append(hostspeed.reading())
            probe_s += time.perf_counter() - probe_start
        wall = time.perf_counter() - start
        if wall >= seconds and len(times) >= max(MIN_OPS, pool):
            break
    scale = hostspeed.factor(readings)
    passes = times[:len(times) - len(times) % pool]
    pct, tail = _tail(passes)
    unscaled = {"ops_per_s": _pool_rate(passes, oks, pool),
                "op_s.p50": statistics.median(passes), "op_s.tail": tail}
    metrics = {
        "ops_per_s": (unscaled["ops_per_s"] / scale, "1/s"),
        "op_s.p50": (unscaled["op_s.p50"] * scale, "s"),
        "op_s.tail": (unscaled["op_s.tail"] * scale, "s"),
        "quality.ratio_mean": (loop.quality_mean(), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {"op_s": times, "tail_percentile": pct, "timed_ops": len(passes),
            "wall_s": wall, "quality_cases": wl.quality_cases,
            "host_factor": scale, "probe_readings_s": readings,
            "unscaled": unscaled,
            "fail_frac": loop.failed / loop.attempted}
    return loop, metrics, info


def _traced(wl, tracer, seconds: float) -> tuple[Loop, dict, dict]:
    """Whole passes over the first `wl.traced_cases` cases, each case once
    untraced and once traced (alternating which goes first), until `seconds`
    have passed.  Per-op counts are then the same on every run of a seed."""
    loop = Loop(wl, wl.traced_cases)
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    op = 0
    while True:
        for index in range(wl.traced_cases):
            order = (False, True) if op % 2 == 0 else (True, False)
            for use_trace in order:
                if use_trace:
                    tracer.begin_op(op)
                    tracer.install()
                    try:
                        elapsed, _ = loop.run(index)
                    finally:
                        tracer.uninstall()
                    traced.append(elapsed)
                else:
                    elapsed, _ = loop.run(index)
                    plain.append(elapsed)
            op += 1
        if time.perf_counter() - start >= seconds:
            break
    layers = tracer.layer_metrics(len(traced))
    layers["trace.ops_per_s"] = len(traced) / sum(traced)
    layers["trace.untraced_ops_per_s"] = len(plain) / sum(plain)
    layers["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    metrics = {name: (value, _layer_unit(name))
               for name, value in layers.items()}
    info = {"traced_op_s": traced, "untraced_op_s": plain,
            "quality.ratio_mean": loop.quality_mean(),
            "quality_cases": wl.traced_cases,
            "fail_frac": loop.failed / loop.attempted}
    return loop, metrics, info


def _layer_unit(name: str) -> str:
    if name == "generators.s":
        return "s"
    if name.endswith("frac"):
        return "ratio"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("per_call"):
        return "count/call"
    if name.endswith((".s", "_s")):
        return "s/op"
    return "count/op"


def _run_one(args) -> int:
    wl, tracer, blas_threads, setup = _setup(args.workload, args.seed,
                                             args.trace)
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if args.trace:
        loop, metrics, info = _traced(wl, tracer, args.seconds)
    else:
        loop, metrics, info = _untraced(wl, args.seconds)
        setups = [setup] + _child_setups(args, SETUP_SAMPLES - 1)
        metrics["setup_s"] = (
            statistics.median(x["setup_s"] for x in setups), "s")
        info["setup_samples"] = setups
        info["unscaled"]["setup_s"] = statistics.median(
            x["wall_s"] for x in setups)
    prov = _provenance(blas_threads)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": int(args.trace),
              "provenance": prov, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              **info}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl.gz")

    print(f"workload {args.workload}  seed {args.seed}  trace "
          f"{int(args.trace)}  " + "  ".join(f"{k} {v}"
                                              for k, v in prov.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  op_s.tail is p{info['tail_percentile']:.1f} of "
              f"{info['timed_ops']} ops; setup_s is the median of "
              f"{len(info['setup_samples'])} set-ups")
        print(f"  times are scaled by host factor {info['host_factor']:.4g}"
              "; unscaled: " + "  ".join(
                  f"{k} {v:.6g}" for k, v in info["unscaled"].items()))
    print(f"  fail_frac {info['fail_frac']:.6g} "
          f"({loop.failed}/{loop.attempted} ops failed)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": record["metrics"],
    }))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload; all three when omitted")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed, >= 0; case seeds are derived from it")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
