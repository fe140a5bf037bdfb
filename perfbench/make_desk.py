"""Write the desk-exhaustive instance set as scenario JSON.

The instances are drawn the way the acceptance suite's exhaustive fixture
draws its own: ``tests/desk.py:random_scenario`` on generator seeds 9000
upward, with the sample count taken from the same generator stream. The
first twenty draws with at most 48 admissible profiles are kept. The
fixture's cap is 64, but its one 64-profile draw (seed 9003) alone takes
17-21 s to solve today, more than half of the set, which would leave room
for one solve per benchmark run. They are written once and committed, so
later edits to the test helpers cannot shift the workload. ``desk2`` and
``sentinel2`` from ``tests/data`` are copied in as well. Run from the
repository root::

    python3 perfbench/make_desk.py
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "scenarios"
INSTANCES = 20
FIRST_SEED = 9000
MAX_PROFILES = 48


def scenario_json(scenario, gen) -> dict:
    return {
        "n": scenario.n,
        "L_km": scenario.L,
        "delta_s": scenario.delta * 3600.0,
        "T": scenario.T,
        "gamma": list(scenario.gamma),
        "pi": scenario.jam_margin,
        "epsilon": scenario.epsilon,
        "segments": [
            {"f_bar": s.f_bar, "rho_bar": s.rho_bar, "u_bar": s.u_bar,
             "f_U": s.f_U, "rho_U": s.rho_U}
            for s in scenario.segments
        ],
        "disturbance": {
            "rho0": [{"lo": lo, "hi": hi}
                     for lo, hi in zip(gen.rho0_lo, gen.rho0_hi)],
            "omega": [{"lo": lo, "hi": hi}
                      for lo, hi in zip(gen.omega_lo, gen.omega_hi)],
        },
    }


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np

    import desk
    from vslcert.network import load_scenario
    from vslcert.sampling import load_generator

    OUT.mkdir(parents=True, exist_ok=True)
    manifest = []
    seed = FIRST_SEED
    while len(manifest) < INSTANCES:
        rng = np.random.default_rng(seed)
        scenario, gen = desk.random_scenario(rng)
        profiles = math.prod(len(b) for b in scenario.bands)
        if profiles <= MAX_PROFILES:
            count = int(rng.integers(1, 4))
            cfg = scenario_json(scenario, gen)
            if load_scenario(cfg) != scenario or load_generator(cfg, scenario.n) != gen:
                raise SystemExit(f"seed {seed}: scenario JSON does not round-trip")
            name = f"desk_{seed}.json"
            (OUT / name).write_text(json.dumps(cfg, indent=1) + "\n")
            manifest.append({"file": name, "generator_seed": seed,
                             "count": count, "profiles": profiles})
        seed += 1
    for name in ("desk2", "sentinel2"):
        shutil.copyfile(ROOT / "tests" / "data" / f"{name}.json", OUT / f"{name}.json")
        cfg = json.loads((OUT / f"{name}.json").read_text())
        profiles = math.prod(len(b) for b in load_scenario(cfg).bands)
        manifest.append({"file": f"{name}.json", "generator_seed": None,
                         "count": 3, "profiles": profiles})
    (OUT / "desk_manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} instances to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
