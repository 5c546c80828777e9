#!/usr/bin/env python3
"""Regenerate the pinned fingerprints under e2ebench/pins.

Run from the repository root:

    python3 e2ebench/pin.py --seeds 1-10

Pinned values come from the repository's own tools, never from the
runner: each workload's generated config (e2e_runner --emit-config) is
run through `precinct_sim --config F --fingerprint` (the plain and
world-sharded workloads) or `precinct_ctl oracle --config F --fingerprint`
(the fleet).  The runner then checks every timed and traced run against
these files, which is what proves its hand-built traced stack equals
core::Scenario.
"""
import argparse
import os
import subprocess

import run

TOOLS = {"fleet-4": ["e2e_precinct_ctl", "oracle"]}
DEFAULT_TOOL = ["e2e_precinct_sim"]
WORKLOADS = ["mobile-320", "static-lossy-320", "world-1600-k4", "fleet-4"]


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()

    out = run.build(["e2e_runner", "e2e_precinct_sim", "e2e_precinct_ctl"])
    conf_dir = os.path.join(out, "pin-configs")
    os.makedirs(conf_dir, exist_ok=True)
    for workload in args.workloads:
        for seed in args.seeds:
            config = subprocess.run(
                [os.path.join(out, "e2e_runner"), "--workload", workload,
                 "--seed", str(seed), "--emit-config"],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            conf = os.path.join(conf_dir, f"{workload}-{seed}.conf")
            with open(conf, "w") as f:
                f.write(config)
            tool = TOOLS.get(workload, DEFAULT_TOOL)
            fingerprint = subprocess.run(
                [os.path.join(out, tool[0]), *tool[1:], "--config", conf,
                 "--fingerprint"],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            path = os.path.join(run.HERE, "pins", workload, f"seed-{seed}.txt")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(fingerprint)
            print(f"{workload} seed {seed}: pinned", flush=True)


if __name__ == "__main__":
    main()
