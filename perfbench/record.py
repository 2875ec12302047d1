"""Record the runs that the adjudicate-recorded workload replays.

Run from the repository root:  python3 perfbench/record.py
It plays fixed seeds of the other two workloads' sessions and writes
perfbench/inputs/recorded.jsonl.gz (byte-identical on every run for the
same program).  Each line holds one legal run won by T and how to rebuild
its game and interpretation.
"""

from __future__ import annotations

import gzip
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from colog import kernel  # noqa: E402

import workloads as w  # noqa: E402

SWEEP_SEEDS = range(4)  # per proof and interpretation, at horizon 200
LONG_SEED = 0  # one session per long-horizon entry
LONG_HORIZON = 400  # keeps first_illegal on the illegal copies under a second


def records():
    for name in w.CORPUS:
        proof = w.load_proof(name)
        machine = w.strategies.synthesize(proof)
        game = kernel.CirquentGame(proof.conclusion)
        for kind in w.ATOM_GAMES:
            itp = w.interpretation(kind, game)
            for seed in SWEEP_SEEDS:
                result, verdict = w.play(machine, game, itp, seed, w.SWEEP_HORIZON)
                yield verdict, {
                    "label": f"{name}/{kind}/{seed}", "source": "soundness-sweep",
                    "proof": name, "interpretation": kind, "seed": seed,
                    "horizon": w.SWEEP_HORIZON, "run": result.transcript()}
    for label, how, spec, _ in w.LONG_SESSIONS:
        machine, game = w.long_session_machine(how, spec)
        itp = w.interpretation(w.LONG_INTERPRETATION, game)
        result, verdict = w.play(machine, game, itp, LONG_SEED, LONG_HORIZON)
        yield verdict, {
            "label": f"{label}/{LONG_SEED}", "source": "long-horizon", "how": how,
            "spec": spec, "interpretation": w.LONG_INTERPRETATION, "seed": LONG_SEED,
            "horizon": LONG_HORIZON, "run": result.transcript()}


def main():
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        for verdict, rec in records():
            if verdict != (True, kernel.TOP):
                sys.exit(f"{rec['label']}: adjudicated {verdict}, not recorded")
            gz.write((json.dumps(rec, sort_keys=True) + "\n").encode())
            print(rec["label"], rec["run"].count("\n") + 1, "moves", flush=True)
    w.RECORDINGS.write_bytes(buf.getvalue())


if __name__ == "__main__":
    main()
