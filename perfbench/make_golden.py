"""Record the reference outputs the benchmark checks at the default seed.

    python3 perfbench/make_golden.py

Writes ``perfbench/golden/``: per-op decision digests of ``suite55``,
per-op ladder digests of ``ladder_deep`` and the files one
``cli_bundled`` cycle writes (reports with ``generated_at`` blanked).
Re-record only for a change that is meant to alter outputs, and report
every decision that changed.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys

from run import OUT, child_env, require_sources

SUITE_OPS = 1200
LADDER_OPS = 600


def _write_rows(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(json.dumps(r) for r in rows)
                     + "\n]\n")


def main() -> int:
    require_sources()
    from plytamper import attack, detect, failure
    from workloads import (CLI_CYCLE, DEFAULT_SEED, GOLDEN, CliBundled,
                           ladder_digest, ladder_stream, normalized_output,
                           suite_digest, suite_stream)

    GOLDEN.mkdir(exist_ok=True)
    rows = [suite_digest(attack.ATTACK_TYPES[kind](lam, spec))
            for lam, spec, kind in itertools.islice(
                suite_stream(DEFAULT_SEED), SUITE_OPS)]
    _write_rows(GOLDEN / "suite55.json", rows)

    rows = []
    for lam, load, rotated in itertools.islice(ladder_stream(DEFAULT_SEED),
                                               LADDER_OPS):
        rows.append(ladder_digest(
            failure.simulate_progressive_failure(lam, load),
            detect.detectability_report(lam, lam.with_angles(rotated))))
    _write_rows(GOLDEN / "ladder_deep.json", rows)

    cli = CliBundled(DEFAULT_SEED, OUT / "cli_bundled", child_env())
    cli.prepare()
    shutil.rmtree(GOLDEN / "cli", ignore_errors=True)
    (GOLDEN / "cli").mkdir()
    for op in CLI_CYCLE:
        argv, expected, outputs = op
        code = cli.run(op)
        if code != expected:
            print(f"{' '.join(argv)}: exit {code}, expected {expected}",
                  file=sys.stderr)
            return 1
        for name in outputs:
            (GOLDEN / "cli" / name).write_bytes(
                normalized_output(cli.workdir / name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
