"""Write frozen_outputs.json: the sha256 of each pool job's canonical output
strings at the frozen seed, for every workload.

    python3 benchmarks/freeze.py

Run it only when a change is meant to alter canonical output strings; the
benchmark counts any other change of them as a failed job.
"""

import json

import run

FROZEN_SEED = 1


def main():
    out = {"seed": FROZEN_SEED, "workloads": {}}
    api = run.import_api()
    for name, workload in run.WORKLOADS.items():
        pool = workload.make_inputs(FROZEN_SEED)
        out["workloads"][name] = [
            run.output_digest(workload.outputs(workload.run(api, spec))) for spec in pool
        ]
    with open(run.FROZEN_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
