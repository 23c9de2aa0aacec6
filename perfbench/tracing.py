"""In-memory span tracing around the package's layer boundaries.

Wrappers are installed at the names the callers actually use (for
example ``plytamper.attack.first_ply_failure``, not only the definition in
``plytamper.failure``), so every call crossing a layer boundary records a
span: name, start, end, parent span and op id. Spans stay in memory and
are written out once, at the end of the run. Nothing is recorded outside
an op, so the benchmark's own output checks never show up in a trace.

A span's self time is its duration minus the time covered by its direct
children; summed over every span of an op, self times add up to the op's
duration exactly, so the per-layer self times account for all traced time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from plytamper import attack, cli, detect, failure
from plytamper.attack import AttackStatus
from plytamper.clt import Laminate

LAYERS = ("bench", "cli", "attack", "failure", "clt", "detect",
          "designfile", "report")
CLI_COMMANDS = ("analyze", "attack", "detect", "export_ladder")

# Span record fields.
NAME, START, END, PARENT, OP, WORK = range(6)


class Tracer:
    """Collects spans for the op currently set in :attr:`op`."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None,
                  self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording a span per call; ``work(args, result)`` is
        stored with the span (plies evaluated, rungs built, ...)."""
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if work is not None:
                record[WORK] = work(args, result)
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps([index] + record) + "\n")


def _attack_work(args, result):
    return (result.evaluations, result.status is AttackStatus.SUCCESS)


@contextmanager
def installed(tracer: Tracer):
    """Install the tracing wrappers for the duration of the block."""
    def plies(args, result):
        return args[0].n_plies

    def rungs(args, result):
        return len(result.rungs)

    ladder = tracer.wrap("failure.simulate_progressive_failure",
                         failure.simulate_progressive_failure, rungs)
    report = tracer.wrap("detect.detectability_report",
                         detect.detectability_report)
    patches = [
        (attack, "first_ply_failure",
         tracer.wrap("failure.first_ply_failure", failure.first_ply_failure,
                     plies)),
        (attack, "simulate_progressive_failure", ladder),
        (failure, "simulate_progressive_failure", ladder),
        (cli, "simulate_progressive_failure", ladder),
        (detect, "detectability_report", report),
        (cli, "detectability_report", report),
        (Laminate, "with_angles",
         tracer.wrap("clt.with_angles", Laminate.with_angles)),
    ]
    main = cli.main

    def traced_main(argv):
        if tracer.op is None:
            return main(argv)
        with tracer.span("cli.main." + argv[0].replace("-", "_")):
            return main(argv)

    patches.append((cli, "main", traced_main))
    for name in ("load_design", "save_design"):
        patches.append((cli, name, tracer.wrap(f"designfile.{name}",
                                               getattr(cli, name))))
    for name in ("write_report", "render_report_text"):
        patches.append((cli, name, tracer.wrap(f"report.{name}",
                                               getattr(cli, name))))
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in patches]
    types = dict(attack.ATTACK_TYPES)
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        for key, fn in types.items():
            attack.ATTACK_TYPES[key] = tracer.wrap(f"attack.{fn.__name__}",
                                                   fn, _attack_work)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
        attack.ATTACK_TYPES.update(types)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if ".us_per_" in name:
        return "us"
    if name.endswith(("_ms", ".ms_per_call")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(("_ratio", "_per_evaluation")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer numbers from the spans of ``passes`` identical passes.

    Counts and self times are per pass; per-call times are means. A layer
    the workload never calls reports zero.
    """
    spans = tracer.spans
    self_time = [r[END] - r[START] for r in spans]
    for r in spans:
        if r[PARENT] is not None:
            self_time[r[PARENT]] -= r[END] - r[START]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for r, own in zip(spans, self_time):
        name = r[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (r[END] - r[START])
        layer_self[name.split(".")[0]] += own
    op_time = sum(r[END] - r[START] for r in spans if r[PARENT] is None)
    if abs(sum(layer_self.values()) - op_time) > 1e-9 * max(op_time, 1.0):
        raise RuntimeError("layer self times do not add up to the op time")

    def work(prefix):
        return [r[WORK] for r in spans if r[NAME].startswith(prefix)]

    def per_call(name, scale):
        if name not in calls:
            return 0.0
        return total[name] / calls[name] * scale

    kernel = "failure.first_ply_failure"
    ladder = "failure.simulate_progressive_failure"
    plies = sum(work(kernel))
    rungs = sum(work(ladder))
    attacks = work("attack.")
    evaluations = sum(e for e, _ in attacks)
    metrics = {
        f"{kernel}.calls": calls.get(kernel, 0) / passes,
        f"{kernel}.us_per_call": per_call(kernel, 1e6),
        f"{kernel}.us_per_ply": total.get(kernel, 0.0) / plies * 1e6
        if plies else 0.0,
        "clt.with_angles.calls": calls.get("clt.with_angles", 0) / passes,
        "clt.with_angles.us_per_call": per_call("clt.with_angles", 1e6),
        "attack.evaluations": evaluations / passes,
        "attack.success_ratio": sum(s for _, s in attacks) / len(attacks)
        if attacks else 0.0,
        "attack.kernel_calls_per_evaluation":
            calls.get(kernel, 0) / evaluations if evaluations else 0.0,
        f"{ladder}.calls": calls.get(ladder, 0) / passes,
        f"{ladder}.rungs": rungs / passes,
        f"{ladder}.us_per_rung": total.get(ladder, 0.0) / rungs * 1e6
        if rungs else 0.0,
        "detect.detectability_report.us_per_call":
            per_call("detect.detectability_report", 1e6),
    }
    for name in ("designfile.load_design", "designfile.save_design",
                 "report.write_report", "report.render_report_text"):
        metrics[f"{name}.ms_per_call"] = per_call(name, 1e3)
    for command in CLI_COMMANDS:
        metrics[f"cli.main.{command}_ms"] = per_call(f"cli.main.{command}",
                                                     1e3)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / passes
    metrics["bench.traced_op_s"] = op_time / passes
    return metrics
