"""The benchmark's workloads.

Each workload does its set-up in ``__init__`` and then serves rounds: a round
is a fixed list of operations, each a callable whose whole call is timed.
``check`` verifies one operation's output outside the timed part and
returns the T and B labmoves of the runs the operation produced.  Inputs
come from the seed alone: round ``r`` of seed ``s`` plays input set
``r % slots``, whose environment seed is ``s * 100000 + r % slots``.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import random
from pathlib import Path

from colog import calculus, cli, kernel, machines, strategies, syntax

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDINGS = HERE / "inputs" / "recorded.jsonl.gz"
SUM_PARITY = HERE / "inputs" / "sum-parity.interp"

CORPUS = ["p_implies_p", "crec_p_implies_crec_p", "conj_commute",
          "crec_duplication", "double_undergroup"]
ATOM_GAMES = {
    "enumeration": kernel.enumeration_game,
    "sum-parity": kernel.sum_parity_game,
    "top-played": lambda: kernel.top_played_game("0"),
}
SWEEP_HORIZON = 200

# (label, how it runs, what it plays, horizon).  Sessions run at horizon 800
# unless one session there can take more than 2 s on a 2-core box: at 800
# the four equivalence machines took 3 s, 10 s, 2 s and 1.4-8.3 s, and
# bridge-new-old 2.5 s.
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
LONG_INTERPRETATION = "sum-parity"  # the game SUM_PARITY spells out


def atom_names(game) -> list[str]:
    if isinstance(game, kernel.CirquentGame):
        return sorted({n for f in game.cirquent.oformulas for n in syntax.atoms_of(f)})
    return sorted(syntax.atoms_of(game))


def interpretation(kind: str, game) -> dict:
    return {n: ATOM_GAMES[kind]() for n in atom_names(game)}


def load_proof(name: str) -> calculus.Proof:
    return calculus.parse_proof((ROOT / "corpus" / f"{name}.clp").read_text())


def long_session_machine(how: str, spec):
    """(machine, game) of a long session, as the CLI would build them."""
    if how == "equivalence":
        f = syntax.parse_formula(spec[0])
        return (strategies.equivalence_machine(f, spec[1]),
                strategies.equivalence_game(f, spec[1]))
    if spec in strategies.CATALOG:
        return strategies.catalog_machine(spec), strategies.catalog_game(spec)
    proof = calculus.parse_proof((ROOT / spec).read_text())
    return strategies.synthesize_formula(proof), proof.conclusion.oformulas[0]


def play(machine, game, itp, seed: int, horizon: int):
    """One simulated and adjudicated session."""
    env = machines.random_legal_environment(seed, game, itp)
    result = machines.simulate(machine, env, machines.SimConfig(horizon=horizon))
    return result, kernel.adjudicate(game, itp, result.run)


def split_players(run) -> tuple[int, int]:
    tops = sum(1 for lm in run if lm.player is kernel.TOP)
    return tops, len(run) - tops


class Workload:
    name = ""
    slots = 1  # distinct input sets; round r plays set r % slots

    def __init__(self, seed: int):
        self.seed = seed
        self.errors: list[str] = []
        self.quiet = contextlib.nullcontext  # replaced by the tracer's pause

    def fail(self, message: str):
        if len(self.errors) < 20:
            self.errors.append(message)

    def slot_seed(self, r: int) -> int:
        """Environment seed of round r; the warm-up (r = -1) gets its own."""
        return self.seed * 100000 + (r % self.slots if r >= 0 else 99999)

    def ops(self, r: int) -> list:
        raise NotImplementedError

    def finish(self):
        """Checks over the whole run, after its last round."""

    def check(self, label, out) -> tuple[int, int]:
        raise NotImplementedError


class SoundnessSweep(Workload):
    """The 5 corpus proofs, each synthesized and played as a cirquent game
    under 3 interpretations at horizon 200, one input set per round."""

    name = "soundness-sweep"
    slots = 10
    SAMPLE_EVERY = 4  # rounds between the stepwise-fold and replay checks

    def __init__(self, seed):
        super().__init__(seed)
        self.cases = []
        for name in CORPUS:
            proof = load_proof(name)
            bad = calculus.check_proof(proof)
            if bad is not None:
                raise SystemExit(f"corpus proof {name} rejected: {bad}")
            machine = strategies.synthesize(proof)
            game = kernel.CirquentGame(proof.conclusion)
            for kind in ATOM_GAMES:
                self.cases.append((f"{name}/{kind}", machine, game,
                                   interpretation(kind, game)))

    def warm_up(self):
        for _, machine, game, itp in self.cases:
            play(machine, game, itp, self.slot_seed(-1), 50)

    def ops(self, r):
        s = self.slot_seed(r)
        return [
            ((k, r, s), lambda c=case: play(c[1], c[2], c[3], s, SWEEP_HORIZON))
            for k, case in enumerate(self.cases)
        ]

    def check(self, label, out):
        k, r, s = label
        name, machine, game, itp = self.cases[k]
        result, verdict = out
        if verdict != (True, kernel.TOP):
            self.fail(f"{name} seed {s}: adjudicated {verdict}, expected a legal win for T")
        if r % self.SAMPLE_EVERY == 0 and k == (r // self.SAMPLE_EVERY) % len(self.cases):
            with self.quiet():
                self._sample_checks(name, machine, game, itp, s, result.run)
        return split_players(result.run)

    def _sample_checks(self, name, machine, game, itp, s, run_):
        fold = all(kernel.legal_extension(game, itp, run_[:i], lm)
                   for i, lm in enumerate(run_))
        if fold != kernel.legal_run(game, itp, run_):
            self.fail(f"{name} seed {s}: legal_run disagrees with the legal_extension fold")
        again, _ = play(machine, game, itp, s, SWEEP_HORIZON)
        if again.run != run_:
            self.fail(f"{name} seed {s}: replaying the seed gave another run")


class LongHorizon(Workload):
    """Few long sessions: catalog bridges and formula adapters through
    ``colog simulate``, equivalence machines through simulate + adjudicate."""

    name = "long-horizon"
    slots = 9

    def __init__(self, seed):
        super().__init__(seed)
        self.games = {}
        self.machines = {}
        self.replications = 0  # w: moves the tree-form check has seen
        for label, how, spec, _ in LONG_SESSIONS:
            if how == "equivalence":
                machine, game = long_session_machine(how, spec)
                self.machines[label] = machine
            elif spec in strategies.CATALOG:
                game = strategies.catalog_game(spec)
            else:  # the CLI parses and synthesizes the proof itself
                game = load_proof(Path(spec).stem).conclusion.oformulas[0]
            self.games[label] = game

    def warm_up(self):
        for label, how, spec, horizon in LONG_SESSIONS:
            self._op(label, how, spec, horizon // 2, self.slot_seed(-1))()

    def finish(self):
        if not self.replications:
            self.fail("no replication in any session: the tree-form check saw nothing")

    def _op(self, label, how, spec, horizon, s):
        if how == "cli":
            strategy = spec if spec in strategies.CATALOG else str(ROOT / spec)
            argv = ["simulate", "--strategy", strategy, "--env", f"random:{s}",
                    "--horizon", str(horizon), "--interp", str(SUM_PARITY)]

            def run_cli():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                return code, buf.getvalue()

            return run_cli
        game = self.games[label]
        itp = interpretation(LONG_INTERPRETATION, game)
        return lambda: play(self.machines[label], game, itp, s, horizon)

    def ops(self, r):
        s = self.slot_seed(r)
        return [((label, how, s), self._op(label, how, spec, horizon, s))
                for label, how, spec, horizon in LONG_SESSIONS]

    def check(self, label, out):
        name, how, s = label
        if how == "cli":
            code, text = out
            report = checks.parse_report(text)
            verdict = (report["legal"], report["winner"])
            run_ = report["run"]
            trace_moves = checks.trace_move_count(report["trace"])
            ok = code == 0 and verdict == ("yes", "T")
        else:
            result, verdict = out
            run_ = [(str(lm.player), lm.move) for lm in result.run]
            trace_moves = checks.trace_move_count(
                [line.split(" ", 2) for line in result.trace_lines().splitlines()])
            ok = verdict == (True, kernel.TOP)
        if not ok:
            self.fail(f"{name} seed {s}: verdict {verdict}, expected a legal win for T")
        if trace_moves != len(run_):
            self.fail(f"{name} seed {s}: {len(run_)} run lines but {trace_moves} trace moves")
        for error in checks.tree_form_errors(self.games[name], run_)[:3]:
            self.fail(f"{name} seed {s}: {error}")
        self.replications += checks.replications(run_)
        tops = sum(1 for player, _ in run_ if player == "T")
        return tops, len(run_) - tops


class AdjudicateRecorded(Workload):
    """Kernel only: recorded runs of the two workloads above, copies with
    one always-illegal move inserted, and the duals of the formula-game
    runs."""

    name = "adjudicate-recorded"
    slots = 4  # placements of the illegal moves

    def __init__(self, seed):
        super().__init__(seed)
        self.records = []
        proofs = {}
        with gzip.open(RECORDINGS, "rt") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["source"] == "soundness-sweep":
                    if rec["proof"] not in proofs:
                        proofs[rec["proof"]] = load_proof(rec["proof"])
                    game = kernel.CirquentGame(proofs[rec["proof"]].conclusion)
                    n = len(game.cirquent.oformulas)
                    bad_move = kernel.join_cell(
                        n + 1, ("",) * len(game.cirquent.overgroups), "0")
                else:
                    how, spec = rec["how"], rec["spec"]
                    if how == "equivalence":
                        f = syntax.parse_formula(spec[0])
                        game = strategies.equivalence_game(f, spec[1])
                    elif spec in strategies.CATALOG:
                        game = strategies.catalog_game(spec)
                    else:
                        game = load_proof(Path(spec).stem).conclusion.oformulas[0]
                    bad_move = "3.0"  # no component 3 and no thread address 3
                itp = interpretation(rec["interpretation"], game)
                run_ = kernel.parse_run(rec["run"])
                dual = None
                if not isinstance(game, kernel.CirquentGame):
                    dual = (syntax.negate(game), kernel.negate_run(run_))
                self.records.append(
                    (rec["label"], rec["source"], game, itp, run_, bad_move, dual))

    def warm_up(self):
        for _, _, game, itp, run_, _, _ in self.records:
            kernel.adjudicate(game, itp, run_[:50])

    def ops(self, r):
        rng = random.Random(self.slot_seed(r))
        out = []
        for k, (name, source, game, itp, run_, bad_move, dual) in enumerate(self.records):
            out.append(((k, "legal", None, None),
                        lambda g=game, i=itp, x=run_: kernel.adjudicate(g, i, x)))
            if source == "long-horizon":
                # near the midpoint, so the quadratic prefix scan of
                # first_illegal costs about the same for every seed
                at = rng.randint(len(run_) * 12 // 25, len(run_) * 13 // 25)
            else:
                at = rng.randint(0, len(run_))
            who = kernel.TOP if k % 2 == 0 else kernel.BOT
            bad = run_[:at] + (kernel.Labmove(who, bad_move),) + run_[at:]
            out.append(((k, "illegal", at, who),
                        lambda g=game, i=itp, x=bad: (kernel.adjudicate(g, i, x),
                                                      kernel.first_illegal(g, i, x))))
            if dual is not None:
                out.append(((k, "dual", None, None),
                            lambda g=dual[0], i=itp, x=dual[1]: kernel.adjudicate(g, i, x)))
        return out

    def check(self, label, out):
        k, kind, at, who = label
        name, _, _, _, run_, _, _ = self.records[k]
        if kind == "legal" and out != (True, kernel.TOP):
            self.fail(f"{name}: recorded run of a winning strategy adjudicated {out}")
        elif kind == "illegal":
            verdict, first = out
            if first != at:
                self.fail(f"{name}: first_illegal {first}, move inserted at {at}")
            if verdict != (False, who.flip()):
                self.fail(f"{name}: illegal move by {who} adjudicated {verdict}")
        elif kind == "dual" and out != (True, kernel.BOT):
            self.fail(f"{name}: dual of a legal T win adjudicated {out}")
        tops, bots = split_players(run_)
        if kind == "illegal":
            tops, bots = (tops + 1, bots) if who is kernel.TOP else (tops, bots + 1)
        return tops, bots


WORKLOADS = {w.name: w for w in (SoundnessSweep, LongHorizon, AdjudicateRecorded)}
