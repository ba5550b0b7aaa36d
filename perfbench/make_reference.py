"""Regenerate reference.json: rho_t and u_t for every variant of every workload.

    python3 perfbench/make_reference.py        # from the root of a checkout

The answer checks compare each pass's bounds with these values, so they are
regenerated only on purpose, by a change that explains why the bounds moved.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("CDMOS_THREADS", None)
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

from cdmos import cli  # noqa: E402
from workloads import GENERATORS, VARIANTS  # noqa: E402


def main() -> int:
    refs, bad = {}, []
    for workload, gen in GENERATORS.items():
        refs[workload] = {}
        for variant in range(VARIANTS):
            problem = gen(variant)
            report = cli.run(cli.parse_problem(problem.text()))
            rows = [{"t": row.t, "rho": row.rho, "u": row.u} for row in report.rows]
            if any(r["rho"] is None or r["u"] is None for r in rows):
                bad.append(f"{workload} variant {variant}: {rows}")
            refs[workload][str(variant)] = rows
            print(workload, variant, rows, flush=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")
    for line in bad:
        print("unsolved:", line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
