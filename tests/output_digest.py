"""One digest of the package's search and ladder outputs, float for float.

Usage::

    python3 tests/output_digest.py SRC_DIR

imports ``plytamper`` from ``SRC_DIR``, runs a fixed set of searches and
ladders, and prints one line: the record count, the count of records that
raised, and a sha256 over every record. Floats enter as ``float.hex``, so
two source trees print the same line only if their outputs are
bit-identical; a raising record holds its error type and message. Run it
on two trees to check that a change keeps every output::

    python3 tests/output_digest.py <parent>/src
    python3 tests/output_digest.py <change>/src

CI pins the line this tree prints, on its Python 3.11 leg with the
pinned numpy and PyYAML. A change that means to alter an output updates
the pinned line in ``.github/workflows/tests.yml`` and says why in
``CHANGES.md``.

The records are:

* criterion 5's 50 random stacks at seeds 55, 7 and 101, each searched by
  both strategies at target safety factors 1.0, 0.9 and 0.8 under
  N = (1000, 0, 0), under M = (1, 0, 0), and under N with ``budget=7``;
* the bundled spar's six attacks;
* fresh ladders of mixed-material, signed-zero and wafer-thin stacks;
* the ladders of each of those stacks and of its one-ply variations
  (each ply rotated -5 and +5 degrees), run through the stack's memo, so
  that later ladders take their tails from earlier ones. In the two
  thinner "wafer pair" stacks the thin glass ply fails first, then the
  two 90 plies together, which leaves a lone wafer: the variations of
  the glass ply share the tail that ends in the flagged rung;
* the ladders of a "wafer core" stack, (45, 90, 0, 90, 45) with a 1 nm
  0 ply between two 90 plies, and of its mirrored variations, both outer
  plies at 40 and at 50 degrees, through the stack's memo. Each ladder
  fails the two 90 plies, then the outer pair, and ends in a flagged
  rung on the lone wafer, the same rung state in all three. The one-ply
  variations above never reach a lone wafer twice, so only these show
  whether a tail is stored at a flagged rung.

pytest does not collect this file, and it writes no files.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

MAT = dict(e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
           sigma1t_ult=1500e6, sigma1c_ult=1500e6,
           sigma2t_ult=40e6, sigma2c_ult=246e6, tau12_ult=68e6)
GLASS = dict(e1=38.6e9, e2=8.27e9, g12=4.14e9, nu12=0.26,
             sigma1t_ult=1062e6, sigma1c_ult=610e6,
             sigma2t_ult=31e6, sigma2c_ult=118e6, tau12_ult=72e6)
PLY_T = 0.125e-3
SEEDS = (55, 7, 101)
TARGETS = (1.0, 0.9, 0.8)


def hexes(values):
    return tuple(float(v).hex() for v in values)


def ladder_record(ladder):
    return (tuple((r.force_multiplier.hex(), r.failed_plies, r.flagged)
                  for r in ladder.rungs),
            tuple(hexes(row) for row in ladder.sr_history))


def result_record(result):
    return (result.attack_type, result.status.value, hexes(result.new_angles),
            hexes(result.deltas), result.original_multiplier.hex(),
            result.achieved_multiplier.hex(), result.evaluations,
            result.sweeps, ladder_record(result.ladder))


def attempt(label, run, record):
    """``label`` and ``record(run())``, or the error ``run`` raised."""
    try:
        return label, record(run())
    except ArithmeticError as error:
        return label, "raises", type(error).__name__, str(error)


def records(pkg):
    """Every record, in a fixed order."""
    mat = pkg.clt.MaterialProperties(**MAT)
    glass = pkg.clt.MaterialProperties(**GLASS)
    LoadCase, AttackSpec = pkg.clt.LoadCase, pkg.attack.AttackSpec
    attacks = ((1, pkg.attack.spread_attack), (2, pkg.attack.focused_attack))
    conditions = (("N", LoadCase((1000.0, 0.0, 0.0)), None),
                  ("M", LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), None),
                  ("N budget 7", LoadCase((1000.0, 0.0, 0.0)), 7))
    grid = [float(a) for a in range(-20, 21, 5)]
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for stack in range(50):
            n = int(rng.integers(8, 35))
            angles = [float(rng.choice(grid)) for _ in range(n)]
            lam = pkg.clt.Laminate.from_angles(mat, PLY_T, angles)
            for name, load, budget in conditions:
                for target_sf in TARGETS:
                    spec = AttackSpec(load, target_sf, design_sf=1.5,
                                      budget=budget)
                    for attack_type, attack in attacks:
                        yield attempt(
                            (seed, stack, name, target_sf, attack_type),
                            lambda: attack(lam, spec), result_record)

    design = pkg.designfile.load_bundled_design()
    lam = design.laminate()
    for target_sf in TARGETS:
        spec = AttackSpec(design.load, target_sf, design_sf=design.design_sf)
        for attack_type, attack in attacks:
            yield attempt(("spar", target_sf, attack_type),
                          lambda: attack(lam, spec), result_record)

    Ply, Laminate = pkg.clt.Ply, pkg.clt.Laminate
    mixed_load = LoadCase((1000.0, -400.0, 250.0), (0.3, 0.1, -0.2))
    rng = np.random.default_rng(9)
    stacks = []
    for n in (3, 12, 25):
        stacks.append(("mixed", n, mixed_load, Laminate(tuple(
            Ply(float(rng.choice([0.0, -0.0, 15.0, -45.0, 90.0, 30.5])),
                float(t), (mat, glass)[int(k)])
            for t, k in zip(rng.uniform(0.05e-3, 0.3e-3, size=n),
                            rng.integers(0, 2, size=n))))))
    axial = LoadCase((1000.0, 0.0, 0.0))
    for angles in ([0.0, -0.0, 0.0, -0.0], [-0.0] * 4, [0.0, 90.0, -0.0]):
        stacks.append(("signed zero", angles, axial,
                       Laminate.from_angles(mat, PLY_T, angles)))
    for thin in (1e-9, 1e-7, 1e-5):
        stacks.append(("wafer", thin, axial, Laminate((
            Ply(90.0, 0.1, mat), Ply(0.0, thin, mat), Ply(90.0, 0.1, mat)))))
    for thin in (1e-9, 1e-7, 1e-5):
        stacks.append(("wafer pair", thin, axial, Laminate((
            Ply(90.0, 0.1, mat), Ply(90.0, thin, glass), Ply(0.0, thin, mat),
            Ply(90.0, 0.1, mat)))))
    for kind, what, load, lam in stacks:
        yield attempt(
            (kind, repr(what)),
            lambda: pkg.failure.simulate_progressive_failure(lam, load),
            ladder_record)
    for kind, what, load, lam in stacks:
        variations = [(None, 0.0, lam)]
        for ply in range(lam.n_plies):
            for step in (-5.0, 5.0):
                angles = list(lam.angles)
                angles[ply] += step
                variations.append((ply, step, lam.with_angles(angles)))
        for ply, step, state in variations:
            yield attempt(
                ("memo", kind, repr(what), ply, step),
                lambda: pkg.failure.simulate_progressive_failure(
                    state, load, lam.memo),
                ladder_record)

    core = Laminate(tuple(
        Ply(angle, thickness, mat) for angle, thickness in zip(
            (45.0, 90.0, 0.0, 90.0, 45.0), (0.01, 0.1, 1e-9, 0.1, 0.01))))
    for outer in (45.0, 40.0, 50.0):
        angles = list(core.angles)
        angles[0] = angles[4] = outer
        state = core.with_angles(angles)
        yield attempt(
            ("wafer core", outer),
            lambda: pkg.failure.simulate_progressive_failure(
                state, axial, core.memo),
            ladder_record)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import plytamper
    import plytamper.attack
    import plytamper.designfile
    import plytamper.failure
    if src not in Path(plytamper.__file__).resolve().parents:
        print(f"plytamper came from {plytamper.__file__}, not {src}",
              file=sys.stderr)
        return 2
    digest = hashlib.sha256()
    count = raised = 0
    for record in records(plytamper):
        count += 1
        raised += record[1] == "raises"
        digest.update(repr(record).encode() + b"\n")
    print(count, raised, digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
