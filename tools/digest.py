"""Byte-identity digest of colog's observable behaviour.

Run from the repository root:  python3 tools/digest.py [group ...]

Prints one line per group: its name, the number of sessions and a SHA-256
over a fixed encoding of every session, in a fixed order.  A session is
encoded as its label, transcript, trace lines, grant count and
``adjudicate`` verdict, followed by ``adjudicate`` and ``first_illegal`` of
a copy with one illegal move inserted at a seeded place.  Sessions played
through ``colog simulate`` are encoded by their whole report instead of
transcript, trace and verdict.  A change that keeps behaviour prints the
same lines before and after; point ``PYTHONPATH`` at another checkout's
``src`` to digest that one.

Groups:
  sweep        the criterion-4 sweep: 5 corpus proofs x 3 interpretations
               x 200 seeds at horizon 200, played as cirquent games
  long         the 9 long-horizon sessions at environment seeds 1-3
  equivalence  the equivalence machines of 10 formulas, both directions,
               3 interpretations x 6 seeds at horizon 120
  catalog      the catalog machines on their games, 3 interpretations x
               10 seeds at horizon 200
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, str(ROOT / "src"))

from colog import calculus, cli, kernel, machines, strategies, syntax  # noqa: E402

CORPUS = ["p_implies_p", "crec_p_implies_crec_p", "conj_commute",
          "crec_duplication", "double_undergroup"]
ATOM_GAMES = [
    ("enumeration", kernel.enumeration_game),
    ("sum-parity", kernel.sum_parity_game),
    ("top-played", lambda: kernel.top_played_game("0")),
]
# no atom game here takes it, and no connective parses it
ILLEGAL_MOVE = "~"

LONG_SESSIONS = [
    ("bridge-old-new", "cli", "bridge-old-new", 800),
    ("bridge-new-old", "cli", "bridge-new-old", 400),
    ("st-to-cst", "cli", "st-to-cst", 800),
    ("crec_duplication", "cli", "corpus/crec_duplication.clp", 800),
    ("crec_p_implies_crec_p", "cli", "corpus/crec_p_implies_crec_p.clp", 800),
    ("!c !c P TL", "equivalence", ("!c !c P", "TL"), 400),
    ("!c !c P LT", "equivalence", ("!c !c P", "LT"), 400),
    ("!c (P & !u P) TL", "equivalence", ("!c (P & !u P)", "TL"), 400),
    ("!c (P & !u P) LT", "equivalence", ("!c (P & !u P)", "LT"), 400),
]
EQUIVALENCE_FORMULAS = [
    "!c P", "?c P", "!u P", "?u P", "!c !c P", "!c (P & !u P)",
    "!c P & ?c Q", "!u !c P", "!c (P | ?c Q)", "?c !c P",
]


def atom_names(game) -> list[str]:
    if isinstance(game, kernel.CirquentGame):
        return sorted({n for f in game.cirquent.oformulas for n in syntax.atoms_of(f)})
    return sorted(syntax.atoms_of(game))


def illegal_copy(game, itp, run_, label: str) -> bytes:
    """adjudicate and first_illegal of the run with ILLEGAL_MOVE inserted."""
    rng = Random(f"digest:{label}")
    at = rng.randint(0, len(run_))
    who = kernel.TOP if rng.random() < 0.5 else kernel.BOT
    bad = run_[:at] + (kernel.Labmove(who, ILLEGAL_MOVE),) + run_[at:]
    legal, winner = kernel.adjudicate(game, itp, bad)
    first = kernel.first_illegal(game, itp, bad)
    return f"illegal {at} {who} {legal} {winner} {first}\n".encode()


def session(machine, game, itp, seed: int, horizon: int, label: str) -> bytes:
    env = machines.random_legal_environment(seed, game, itp)
    result = machines.simulate(machine, env, machines.SimConfig(horizon=horizon))
    legal, winner = kernel.adjudicate(game, itp, result.run)
    head = (f"session {label}\n{result.transcript()}\n--\n{result.trace_lines()}\n--\n"
            f"grants {result.grants}\nverdict {legal} {winner}\n").encode()
    return head + illegal_copy(game, itp, result.run, label)


def cli_session(spec: str, seed: int, horizon: int, interp: Path, game, itp,
                label: str) -> bytes:
    strategy = spec if spec in strategies.CATALOG else str(ROOT / spec)
    argv = ["simulate", "--strategy", strategy, "--env", f"random:{seed}",
            "--horizon", str(horizon), "--interp", str(interp)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = buf.getvalue()
    run_text = report.split("run:\n", 1)[1].split("trace:\n", 1)[0]
    run_ = kernel.parse_run(run_text)
    head = f"cli {label}\nexit {code}\n{report}--\n".encode()
    return head + illegal_copy(game, itp, run_, label)


def sweep():
    for name in CORPUS:
        proof = calculus.parse_proof((ROOT / "corpus" / f"{name}.clp").read_text())
        machine = strategies.synthesize(proof)
        game = kernel.CirquentGame(proof.conclusion)
        for kind, make in ATOM_GAMES:
            itp = {n: make() for n in atom_names(game)}
            for seed in range(200):
                yield session(machine, game, itp, seed, 200, f"{name}/{kind}/{seed}")


def long_horizon():
    with tempfile.TemporaryDirectory() as tmp:
        interp = Path(tmp) / "sum-parity.interp"
        interp.write_text("P sum-parity even\n")
        for seed in (1, 2, 3):
            for label, how, spec, horizon in LONG_SESSIONS:
                tag = f"{label}/{seed}"
                if how == "equivalence":
                    f = syntax.parse_formula(spec[0])
                    game = strategies.equivalence_game(f, spec[1])
                    itp = {n: kernel.sum_parity_game() for n in atom_names(game)}
                    yield session(strategies.equivalence_machine(f, spec[1]), game, itp,
                                  seed, horizon, tag)
                    continue
                if spec in strategies.CATALOG:
                    game = strategies.catalog_game(spec)
                else:
                    proof = calculus.parse_proof((ROOT / spec).read_text())
                    game = proof.conclusion.oformulas[0]
                itp = {n: kernel.sum_parity_game() for n in atom_names(game)}
                yield cli_session(spec, seed, horizon, interp, game, itp, tag)


def equivalence():
    for text in EQUIVALENCE_FORMULAS:
        f = syntax.parse_formula(text)
        for direction in ("TL", "LT"):
            machine = strategies.equivalence_machine(f, direction)
            game = strategies.equivalence_game(f, direction)
            for kind, make in ATOM_GAMES:
                itp = {n: make() for n in atom_names(game)}
                for seed in range(6):
                    yield session(machine, game, itp, seed, 120,
                                  f"{text}/{direction}/{kind}/{seed}")


def catalog():
    for name in sorted(strategies.CATALOG):
        game = strategies.catalog_game(name)
        for kind, make in ATOM_GAMES:
            itp = {n: make() for n in atom_names(game)}
            for seed in range(10):
                yield session(strategies.catalog_machine(name), game, itp, seed, 200,
                              f"{name}/{kind}/{seed}")


GROUPS = {"sweep": sweep, "long": long_horizon, "equivalence": equivalence,
          "catalog": catalog}


def main(argv: list[str]) -> int:
    names = argv or list(GROUPS)
    unknown = [n for n in names if n not in GROUPS]
    if unknown:
        print(f"error: unknown group {', '.join(unknown)}; have {', '.join(GROUPS)}",
              file=sys.stderr)
        return 2
    for name in names:
        h = hashlib.sha256()
        count = 0
        for record in GROUPS[name]():
            h.update(len(record).to_bytes(8, "big"))
            h.update(record)
            count += 1
        print(f"{name} {count} {h.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
