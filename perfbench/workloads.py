"""The three benchmark workloads: inputs from a seed, one op, its checks.

Every workload is a closed loop with one client: the next op is issued
only after the previous one returned. Inputs come from the seed alone;
the program under test only sees the generated laminates, loads and
design files.

* ``suite55`` -- the tamper-search suite of acceptance criterion 5, drawn
  from the same generator and continued past its 50 stacks, so a run can
  keep issuing fresh ops for as long as it measures. One op is one attack
  run. Dominated by the search and the first-ply-failure kernel.
* ``ladder_deep`` -- deep (48-128 ply) stacks on the full angle grid under
  mixed force and moment loads. One op is one knockout ladder plus one
  detectability comparison against a copy with one ply rotated. About one
  6x6 solve per ply, each on a single laminate.
* ``cli_bundled`` -- ``python -m plytamper.cli`` subprocesses on the
  bundled design. One op is one command. Dominated by interpreter start,
  imports, YAML and report I/O.

Each op's output is checked; a check that fails marks the op failed.
At the default seed the outputs are also compared against digests
recorded from the seed commit (``golden/``), so a flipped search decision
shows as a failed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from plytamper import attack, cli, detect, failure
from plytamper.attack import AttackSpec, AttackStatus
from plytamper.clt import Laminate, LoadCase, MaterialProperties
from plytamper.clt import normalize_angle
from plytamper.designfile import bundled_design_path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

#: Seed at which outputs are compared with the recorded digests.
DEFAULT_SEED = 55

# Criterion 5's material and ply thickness (T300/5208-like carbon/epoxy).
MAT = MaterialProperties(
    e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
    sigma1t_ult=1500e6, sigma1c_ult=1500e6,
    sigma2t_ult=40e6, sigma2c_ult=246e6, tau12_ult=68e6,
)
PLY_T = 0.125e-3


class CheckFailed(Exception):
    """An op returned, but its output breaks the contract."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load_golden(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


# =============================================================================
# suite55
# =============================================================================

def suite_stream(seed: int):
    """Criterion 5's op sequence, continued indefinitely.

    The first 300 ops at a seed are exactly criterion 5's suite at that
    seed: 50 stacks of 8-34 plies from the -20..20 degree grid, each
    attacked at target 1.0, 0.9 and 0.8 with both strategies.
    """
    rng = np.random.default_rng(seed)
    grid = [float(a) for a in range(-20, 21, 5)]
    load = LoadCase((1000.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    specs = [AttackSpec(load, sf, design_sf=1.5) for sf in (1.0, 0.9, 0.8)]
    while True:
        n = int(rng.integers(8, 35))
        angles = [float(rng.choice(grid)) for _ in range(n)]
        lam = Laminate.from_angles(MAT, PLY_T, angles)
        for spec in specs:
            for attack_type in (1, 2):
                yield lam, spec, attack_type


def suite_digest(result) -> str:
    """Fingerprint of one search decision: status, new angles, evaluations."""
    text = "|".join((result.status.value,
                     ",".join(repr(a) for a in result.new_angles),
                     str(result.evaluations)))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class Suite55:
    name = "suite55"
    work_unit = "evaluations"
    min_ops = 100
    cycle = 1
    #: One traced pass is criterion 5's whole suite.
    pass_ops = 300

    def __init__(self, seed: int):
        self.seed = seed
        self.golden = _load_golden(self.name, seed)

    def stream(self):
        return suite_stream(self.seed)

    def setup(self) -> None:
        """Warm up on the first stack (six ops); the run checks them."""
        for op in itertools.islice(self.stream(), 6):
            self.run(op)

    @staticmethod
    def work(result) -> int:
        return result.evaluations

    def run(self, op):
        lam, spec, attack_type = op
        return attack.ATTACK_TYPES[attack_type](lam, spec)

    def check(self, index: int, op, result) -> None:
        lam, spec, attack_type = op
        require(result.attack_type == attack_type, "wrong attack type")
        require(result.original_angles == lam.angles,
                "original angles changed")
        for orig, new, delta in zip(result.original_angles,
                                    result.new_angles, result.deltas):
            require(abs(new - normalize_angle(orig + delta)) <= 1e-9,
                    "new angle disagrees with original + delta")
        mult, _ = failure.first_ply_failure(
            lam.with_angles(result.new_angles), spec.load)
        require(mult == result.achieved_multiplier,
                "re-simulated new angles do not reproduce the multiplier")
        if result.status is AttackStatus.SUCCESS:
            require(result.achieved_multiplier <= result.target_multiplier,
                    "success above target")
        if self.golden is not None and index < len(self.golden):
            require(suite_digest(result) == self.golden[index],
                    f"decision differs from the recorded one at op {index}")


# =============================================================================
# ladder_deep
# =============================================================================

def ladder_stream(seed: int):
    """Deep random stacks under mixed loads, each with one ply rotated."""
    rng = np.random.default_rng(seed)
    grid = [float(a) for a in range(-90, 91, 5)]
    while True:
        n = int(rng.integers(48, 129))
        angles = [float(a) for a in rng.choice(grid, size=n)]
        # Moments scaled by thickness/6 so bending and membrane stresses
        # are of the same order.
        moment_scale = 1000.0 * n * PLY_T / 6.0
        load = LoadCase(
            tuple(float(v) for v in rng.uniform(-1000.0, 1000.0, 3)),
            tuple(float(v) for v in rng.uniform(-1.0, 1.0, 3) * moment_scale))
        ply = int(rng.integers(n))
        rotation = float(rng.choice((-1.0, 1.0)) * rng.integers(5, 46))
        rotated = list(angles)
        rotated[ply] = normalize_angle(rotated[ply] + rotation)
        yield Laminate.from_angles(MAT, PLY_T, angles), load, rotated


def ladder_digest(ladder, report) -> list:
    """Exact rung groups and flags, plus multipliers to compare by value."""
    groups = ";".join(",".join(map(str, r.failed_plies)) + ("!" if r.flagged
                                                            else "")
                      for r in ladder.rungs)
    mults = [r.force_multiplier for r in ladder.rungs]
    return [hashlib.sha1(groups.encode()).hexdigest()[:16],
            mults[0], mults[-1], math.fsum(mults),
            report.frequency_change_percent]


def _rel_close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class LadderDeep:
    name = "ladder_deep"
    work_unit = "rungs"
    min_ops = 100
    cycle = 1
    pass_ops = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.golden = _load_golden(self.name, seed)

    def stream(self):
        return ladder_stream(self.seed)

    def setup(self) -> None:
        """Warm up on the first two ops; the run checks them."""
        for op in itertools.islice(self.stream(), 2):
            self.run(op)

    @staticmethod
    def work(output) -> int:
        return len(output[0].rungs)

    def run(self, op):
        lam, load, rotated = op
        ladder = failure.simulate_progressive_failure(lam, load)
        report = detect.detectability_report(lam, lam.with_angles(rotated))
        return ladder, report

    def check(self, index: int, op, output) -> None:
        lam, _, _ = op
        ladder, report = output
        failed = sorted(i for r in ladder.rungs for i in r.failed_plies)
        require(failed == list(range(lam.n_plies)),
                "rungs do not fail every ply exactly once")
        require(not any(r.flagged for r in ladder.rungs[:-1]),
                "flagged rung before the last")
        require(all(math.isfinite(r.force_multiplier)
                    and r.force_multiplier > 0.0 for r in ladder.rungs),
                "rung multiplier not finite and positive")
        computed = [r for r in ladder.rungs if not r.flagged]
        require(len(ladder.sr_history) == len(computed),
                "one strength-ratio row per computed rung expected")
        for rung, row in zip(computed, ladder.sr_history):
            require(rung.force_multiplier == min(row),
                    "rung multiplier is not its row's minimum")
        require(_rel_close(report.frequency_ratio,
                           math.sqrt(report.e_effective_original
                                     / report.e_effective_attacked)),
                "frequency ratio disagrees with the moduli")
        if self.golden is not None and index < len(self.golden):
            want = self.golden[index]
            got = ladder_digest(ladder, report)
            require(got[0] == want[0],
                    f"rung groups differ from the recorded ones at op {index}")
            require(all(_rel_close(g, w) for g, w in zip(got[1:], want[1:])),
                    f"multipliers differ from the recorded ones at op {index}")


# =============================================================================
# cli_bundled
# =============================================================================

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')

#: One cycle: (argv after ``plytamper``, expected exit code, files written).
#: Both attacks exit 2 on the bundled design because a target is missed:
#: type 1 meets none of them (acceptance criterion 6), type 2 only sf 1.0.
CLI_CYCLE = (
    (["analyze", "spar34.yaml", "-o", "analyze.json"], 0, ["analyze.json"]),
    (["attack", "spar34.yaml", "--type", "1", "-o", "attack1.json"], 2,
     ["attack1.json"] + [f"attack1.tampered-type1-sf{sf}.yaml"
                         for sf in ("1", "0.9", "0.8")]),
    (["attack", "spar34.yaml", "--type", "2", "-o", "attack2.json"], 2,
     ["attack2.json"] + [f"attack2.tampered-type2-sf{sf}.yaml"
                         for sf in ("1", "0.9", "0.8")]),
    (["detect", "spar34.yaml", "attack2.tampered-type2-sf1.yaml",
      "-o", "detect.json"], 0, ["detect.json"]),
    (["export-ladder", "attack2.json", "-o", "ladders.csv"], 0,
     ["ladders.csv"]),
)

CLI_TIMEOUT_S = 120


def wait_with_usage(proc: subprocess.Popen, timeout: int):
    """Reap ``proc`` and return its resource usage (peak RSS included).

    ``Popen.wait`` discards the usage, so the child is reaped with
    ``os.wait4``; an alarm kills it if it outlives ``timeout`` seconds.
    """
    def expire(signum, frame):
        raise TimeoutError(f"command still running after {timeout} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def normalized_output(path: Path) -> bytes:
    """File bytes with a report's ``generated_at`` stamp blanked."""
    return _GENERATED_AT.sub(b'"generated_at": ""', path.read_bytes())


class CliBundled:
    name = "cli_bundled"
    work_unit = "commands"
    min_ops = 100
    cycle = len(CLI_CYCLE)
    pass_ops = len(CLI_CYCLE)

    def __init__(self, seed: int, workdir: Path, env: dict,
                 in_process: bool = False):
        # The input is the bundled design; the seed changes nothing here.
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.in_process = in_process
        #: Largest resident set of any command subprocess, in KiB.
        self.peak_rss_kb = 0

    def prepare(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        shutil.copyfile(bundled_design_path(), self.workdir / "spar34.yaml")

    def stream(self):
        while True:
            yield from CLI_CYCLE

    def setup(self) -> None:
        """Fresh work directory; in-process runs also warm up one cycle."""
        self.prepare()
        if self.in_process:
            for op in CLI_CYCLE:
                self.run(op)

    @staticmethod
    def work(returncode) -> int:
        return 1

    def _argv(self, argv):
        return [str(self.workdir / a) if a.endswith((".yaml", ".json", ".csv"))
                else a for a in argv]

    def run(self, op):
        argv = op[0]
        if op is CLI_CYCLE[0]:
            for _, _, written in CLI_CYCLE:
                for name in written:
                    (self.workdir / name).unlink(missing_ok=True)
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(self._argv(argv))
        with open(self.workdir / "stderr.txt", "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "plytamper.cli", *self._argv(argv)],
                env=self.env, stdout=subprocess.DEVNULL, stderr=stderr)
            usage = wait_with_usage(proc, CLI_TIMEOUT_S)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def check(self, index: int, op, returncode) -> None:
        argv, expected, outputs = op
        if returncode != expected:
            stderr = self.workdir / "stderr.txt"
            detail = (stderr.read_text(errors="replace")[-300:]
                      if stderr.is_file() else "")
            raise CheckFailed(f"{' '.join(argv)}: exit code {returncode}, "
                              f"expected {expected}; {detail}")
        for name in outputs:
            path = self.workdir / name
            require(path.is_file(), f"{name} was not written")
            require(normalized_output(path)
                    == (GOLDEN / "cli" / name).read_bytes(),
                    f"{name} differs from the recorded output")


def make_workload(name: str, seed: int, out: Path, env: dict,
                  in_process: bool = False):
    """``out`` holds cli_bundled's work directory; ``in_process`` runs its
    commands through ``cli.main`` (traced run)."""
    if name == Suite55.name:
        return Suite55(seed)
    if name == LadderDeep.name:
        return LadderDeep(seed)
    if name == CliBundled.name:
        return CliBundled(seed, out / name, env, in_process)
    raise ValueError(f"unknown workload {name!r}")
