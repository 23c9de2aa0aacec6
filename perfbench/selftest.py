"""Self-test: ``suite55`` at seed 55 is acceptance criterion 5's suite.

    python3 perfbench/selftest.py

Runs the first pass of ``suite55`` (criterion 5's 50 stacks, 300 attack
runs) twice, untraced and then traced, checking every op. Both passes
must give exactly 300 runs, 20 874 evaluations and 118 successes, and
the traced pass must count one kernel call per evaluation. Exits 1 on
any mismatch.
"""

from __future__ import annotations

import itertools
import sys

from run import require_sources

EXPECTED = (300, 20874, 118)  # runs, evaluations, successes


def suite_pass(workload, tracer=None) -> tuple[int, int, int]:
    """Criterion 5's suite once, every op checked (raises on a bad op)."""
    from plytamper.attack import AttackStatus

    runs = evaluations = successes = 0
    ops = itertools.islice(workload.stream(), workload.pass_ops)
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        result = workload.run(op)
        if tracer is not None:
            tracer.op = None
        workload.check(index, op, result)
        runs += 1
        evaluations += result.evaluations
        successes += result.status is AttackStatus.SUCCESS
    return runs, evaluations, successes


def main() -> int:
    require_sources()
    from tracing import Tracer, installed, layer_metrics
    from workloads import DEFAULT_SEED, Suite55

    workload = Suite55(DEFAULT_SEED)
    tracer = Tracer()
    plain = suite_pass(workload)
    with installed(tracer):
        traced = suite_pass(workload, tracer)
    kernel_calls = layer_metrics(tracer, 1)["failure.first_ply_failure.calls"]

    problems = [f"{label}: runs/evaluations/successes = {got}, expected "
                f"{EXPECTED}"
                for label, got in (("untraced", plain), ("traced", traced))
                if got != EXPECTED]
    if kernel_calls != EXPECTED[1]:
        problems.append(f"traced kernel calls {kernel_calls:g}, expected "
                        f"{EXPECTED[1]}")
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        return 1
    print(f"PASS suite55 seed {DEFAULT_SEED}: runs, evaluations, successes "
          f"= {EXPECTED} twice; {kernel_calls:g} traced kernel calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
