"""Per-move cost of each long-horizon session at horizons 100, 200, 400 and 800.

Run from the repository root:  python3 perfbench/curves.py [seed]
Prints one row per session: simulate + adjudicate milliseconds per labmove
(the median of three runs of the same seed) and the run's labmoves.  The
cost per move stays flat only if simulation scales linearly with history.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

import workloads as w  # noqa: E402

HORIZONS = (100, 200, 400, 800)


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    print(f"{'session':24s}" + "".join(f"{'H' + str(h):>18s}" for h in HORIZONS))
    for label, how, spec, _ in w.LONG_SESSIONS:
        machine, game = w.long_session_machine(how, spec)
        itp = w.interpretation(w.LONG_INTERPRETATION, game)
        cells = []
        for h in HORIZONS:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                result, _ = w.play(machine, game, itp, seed, h)
                times.append(time.perf_counter() - t0)
            n = len(result.run)
            cells.append(f"{statistics.median(times) * 1e3 / n:8.3f} ms x{n:<6d}")
        print(f"{label:24s}" + "".join(f"{c:>18s}" for c in cells), flush=True)


if __name__ == "__main__":
    main()
