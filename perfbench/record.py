"""Write expected.json: the seed sets and the outputs the checks compare against.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known good.  A log seed
from either set feeds both ``predict`` and ``corpus``; the two sets are
disjoint, and neither overlaps criterion 8's seeds (9000-9019).  Grid
counts are the equilibria the exact search finds at each cell's
existence threshold.
"""

import json
import sys
import tempfile
from pathlib import Path

import environment

SEED_SETS = {
    "bench": list(range(1000, 1040)),
    "heldout": list(range(5000, 5020)),
}


def main() -> int:
    environment.prepare()
    from rankcomp import competition_log, equilibria, grid_oracle
    from rankcomp.game import RankingGame
    from rankcomp.grid_oracle import GridSpec

    import workloads

    logs = {}
    with tempfile.TemporaryDirectory(dir=environment.ROOT) as tmp:
        for seed in sorted(s for seeds in SEED_SETS.values() for s in seeds):
            log = competition_log.synthesize(workloads.LOG_CONFIG, seed=seed)
            outputs = workloads.corpus_outputs(log)
            logs[str(seed)] = {
                "instances": len(outputs[0]),
                **workloads.corpus_digests(outputs, Path(tmp)),
            }
            print(f"log {seed}: {len(outputs[0])} instances", file=sys.stderr)

    grid = {}
    for n, m, g in workloads.GRID_CELLS:
        peak = equilibria.existence_threshold(n, m)
        result = grid_oracle.grid_nash_search(
            RankingGame.tent(n, m, peak), GridSpec(g=g, n=n, m=m, peak=peak)
        )
        grid[f"{n},{m},{g}"] = len(result.equilibria)
        print(f"grid {(n, m, g)}: {len(result.equilibria)} equilibria", file=sys.stderr)

    out = {"seed_sets": SEED_SETS, "logs": logs, "grid_equilibria": grid}
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
