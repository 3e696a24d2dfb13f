"""Record the reference outputs that run.py checks every unit against.

Run from the root of a checkout:

    python3 perfbench/reference.py

It rewrites perfbench/reference.json with the outputs of units 0..N-1 of seed
0 for each workload (so rep seeds / data seeds 0..N-1) and of the threshold
curves: per-method C, IC and fit class and the MRME ratio for the simulation
workloads, sha256 digests of the exact output bytes for the CLI.  Every output
must pass the structural checks before it is recorded.  Regenerate it only in
a change that alters selections or outputs on purpose, and say so there.
"""

import json
import os
import sys

import run

#: recorded units per workload: more than a 20 s run of seed 0 gets through
RECORDED = {"sim_linear": 40, "sim_glm": 20, "sim_lqa": 20, "cli_session": 40}


def main():
    run.import_package()
    import workloads

    os.makedirs(run.WORKDIR, exist_ok=True)
    reference = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, run.WORKDIR)
        entries = {}
        if hasattr(wl, "run_curves"):
            _, _, out = wl.run_curves()
            errors = wl.check_curves(out, None)
            if errors:
                sys.exit(f"{name} curves: {errors}")
            entries["curves"] = wl.reference_entry(out)
        for k in range(RECORDED[name]):
            key, _, out, _ = wl.run_unit(0, k)
            errors = wl.check(key, out, None)
            if errors:
                sys.exit(f"{name} unit {key}: {errors}")
            entries[key] = wl.reference_entry(out)
        reference[name] = entries
        print(f"{name}: {len(entries)} entries", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
