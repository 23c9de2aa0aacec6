"""plytamper benchmark: end-to-end metrics per workload, or a traced run.

Run from the root of a source checkout::

    python3 perfbench/run.py                        # every workload
    python3 perfbench/run.py --workload suite55 --seed 55 --seconds 30
    python3 perfbench/run.py --workload cli_bundled --trace 1

Without ``--trace`` (or with ``--trace 0``) a workload run prints
``setup_s``, ``throughput_ops_s``, ``latency_p50_ms``, ``latency_p90_ms``,
``peak_rss_mb``, plus ``failed_frac`` on its own line. With ``--trace 1`` it prints the
per-layer metrics instead (see ``perfbench/README.md``). Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; run metadata is
printed on the line before it and saved under ``.perfbench_out/``.

The package is imported from ``src/`` of the checkout. Without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("suite55", "ladder_deep", "cli_bundled")
DEFAULT_SEED = 55
DEFAULT_SECONDS = 30.0

#: Fresh processes timed for ``setup_s`` and for the interpreter/import split.
PROBES = 7
PROBE_TIMEOUT_S = 120

#: One thread for the BLAS and OpenMP pools of every process the benchmark
#: runs: one client on a machine of few cores, and no idle pool threads
#: started at each ``import numpy``.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

UNITS = {
    "setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="workload to run (default: all, each in a "
                             "fresh process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def require_sources() -> None:
    """Import plytamper from this checkout's ``src/`` or stop with 2.

    Also pins the thread pools (``SINGLE_THREAD``) before numpy loads.
    """
    if not (SRC / "plytamper" / "__init__.py").is_file():
        print(f"perfbench: no plytamper sources at {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        raise SystemExit(2)
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def probe(argv) -> float:
    """Wall time of a fresh process that must exit 0.

    Reaped with a blocking ``wait4``: ``subprocess.run`` with a timeout
    polls in steps of up to 50 ms, which would round the time up.
    """
    from workloads import wait_with_usage

    start = perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL)
    wait_with_usage(proc, PROBE_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return elapsed


def setup_seconds(args) -> float:
    """Median time for a fresh process to be ready for its first op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    return statistics.median(probe(argv) for _ in range(PROBES))


def interpreter_and_import_seconds() -> tuple[float, float]:
    """Bare interpreter start, and ``import plytamper.cli`` beyond it."""
    bare = statistics.median(probe([sys.executable, "-c", "pass"])
                             for _ in range(PROBES))
    loaded = statistics.median(
        probe([sys.executable, "-c", "import plytamper.cli"])
        for _ in range(PROBES))
    return bare, loaded - bare


def _read_cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False,
                          timeout=PROBE_TIMEOUT_S)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plytamper").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    import numpy
    import yaml

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
        "nproc": os.cpu_count(), "cpu_model": _read_cpu_model(),
    }


class OpLog:
    """Latencies, failures and work counts of the ops a run issued."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.work = 0
        self.errors: list[str] = []

    def fail(self, index: int, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")


def issue(workload, log: OpLog, index: int, op, tracer=None) -> float:
    """Run one op (traced when ``tracer`` is given), then check it.

    Returns the op's latency; the check is not timed.
    """
    start = perf_counter()
    try:
        if tracer is None:
            output = workload.run(op)
        else:
            tracer.op = index
            try:
                with tracer.span("bench.op"):
                    output = workload.run(op)
            finally:
                tracer.op = None
    except Exception as exc:  # an op that raises is a failed op
        elapsed = perf_counter() - start
        log.latencies.append(elapsed)
        log.fail(index, exc)
        return elapsed
    elapsed = perf_counter() - start
    log.latencies.append(elapsed)
    try:
        workload.check(index, op, output)
        log.work += workload.work(output)
    except Exception as exc:  # a wrong or unreadable output fails the op
        log.fail(index, exc)
    return elapsed


def measure(workload, seconds: float) -> OpLog:
    """Closed loop over the workload's op stream for ``seconds``.

    Stops at a cycle boundary once the time is up and at least
    ``workload.min_ops`` ops ran, so every cycle is complete.
    """
    log = OpLog()
    deadline = perf_counter() + seconds
    for index, op in enumerate(workload.stream()):
        if (index >= workload.min_ops and index % workload.cycle == 0
                and perf_counter() >= deadline):
            break
        issue(workload, log, index, op)
    return log


def end_to_end(args, workload, log: OpLog) -> dict:
    lat = sorted(log.latencies)
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb = getattr(workload, "peak_rss_kb", None) or usage
    return {
        "setup_s": setup_seconds(args),
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def traced(args, workload, tracer) -> tuple[dict, OpLog]:
    """Alternate untraced and traced passes over one fixed op list."""
    from tracing import installed, layer_metrics

    ops = list(itertools.islice(workload.stream(), workload.pass_ops))
    log = OpLog()
    plain, timed = [], []
    deadline = perf_counter() + args.seconds
    while not timed or perf_counter() < deadline:
        plain.append(sum(issue(workload, log, i, op)
                         for i, op in enumerate(ops)))
        with installed(tracer):
            timed.append(sum(issue(workload, log, i, op, tracer)
                             for i, op in enumerate(ops)))
    metrics = layer_metrics(tracer, len(timed))
    metrics["bench.tracing_overhead_frac"] = sum(timed) / sum(plain) - 1.0
    interpreter, imports = interpreter_and_import_seconds()
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = imports
    return metrics, log


def run_one(args) -> int:
    from tracing import Tracer, layer_unit
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, OUT, child_env(),
                             in_process=bool(args.trace))
    workload.setup()
    if args.setup_only:
        return 0
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = Tracer()
        metrics, log = traced(args, workload, tracer)
        units = {name: layer_unit(name) for name in metrics}
        tracer.dump(OUT / f"spans-{tag}.jsonl")
    else:
        log = measure(workload, args.seconds)
        metrics = end_to_end(args, workload, log)
        units = UNITS
    meta = metadata(args)
    meta.update(ops=len(log.latencies), failed=log.failed,
                busy_s=sum(log.latencies),
                work_unit=workload.work_unit, work=log.work,
                errors=log.errors)
    result = {
        "correct": log.failed == 0,
        "attempted": len(log.latencies),
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, **result}, handle, indent=2)
    for error in log.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{args.workload:12} {name:48} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    print(f"{args.workload:12} {'failed_frac':48} "
          f"{log.failed / len(log.latencies):>14.6g} frac")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so caches start cold every time."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-2]:
            print(line)
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
        if result is None or not result["correct"]:
            status = 1
        print(f"{name:12} correct={result and result['correct']} "
              f"attempted={result and result['attempted']} "
              f"failed={result and result['failed']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
