"""Interactive machines and the simulation scheduler.

A machine strategy plays the TOP side as a deterministic function of the run
tape: given the full history it either grants permission (empty answer) or
produces the block of moves it wants to make now.  EPM-disciplined machines
may emit at most one move per query; BMEPM machines may emit any finite
block.  Environments answer grants with zero or more BOT moves and are
likewise pure functions of (history, grant number), so every simulation is
replayable bit for bit.

The replay contract: a machine's answer is a pure function of the history it
is asked about.  ``ReplayMachine`` is the one base that keeps this contract
cheap.  It folds the tape one labmove at a time and caches the fold over the
last history it was asked about.  A history that extends that one costs only
its new labmoves; any other history restarts the fold from the empty tape,
with fresh inner machines, so the answer never depends on the order of
queries.  ``DueMachine`` (a fold of owed responses), ``Translator`` and
``Router`` ("imaginary play": inner machines re-run on tapes derived from
the real one, their moves translated back) and the thread promotion of
``strategies`` are all built on it.  The promotion keeps a play per live
thread class in a ``kernel.ThreadClasses``; a split forks it by ``fresh``.

The random legal environment keeps the same contract with its own fold: one
live ``kernel.LegalPosition``, whose replication trees its candidates also
read.  A grant folds only the labmoves gained since the last history it
folded; any other history restarts it from the empty position.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Sequence

from .kernel import (
    BOT,
    TOP,
    GameExpr,
    Interpretation,
    Labmove,
    LegalPosition,
    Run,
)
from . import kernel
from .syntax import And, Atom, CCoRec, CRec, NegAtom, OldCCoRec, OldCRec, Or, UCoRec, URec


class DisciplineError(RuntimeError):
    """An EPM-declared machine emitted a multi-move block."""


class MachineStrategy:
    """Deterministic transducer for the TOP player."""

    discipline = "BMEPM"  # or "EPM"
    name = "machine"

    def next_moves(self, history: Run) -> tuple[str, ...]:
        """Moves to make now; empty means grant permission."""
        raise NotImplementedError

    def fresh(self) -> "MachineStrategy":
        """An independent copy, caches included.  By the replay contract a
        cache only speeds up histories that extend the last one asked about,
        so a copy of a queried machine answers as the machine would."""
        return copy.deepcopy(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class ReplayMachine(MachineStrategy):
    """A machine whose answer is a fold over its run tape, cached per history.

    A query whose history extends the last one folds only the new labmoves;
    any other history restarts from the empty tape.  The fold's hooks are
    ``_start`` (play on the empty tape), ``respond(state, lm)`` (absorb one
    environment labmove and return the real moves it makes owed) and
    ``_settle`` (run once a query has started the fold or absorbed a
    labmove).  The owed moves accumulate in order; the machine's own moves
    on the tape must be a prefix of them, and the rest is the answer (its
    first move only under EPM discipline).
    """

    def __init__(self):
        self._seen = 0  # length of the history folded so far
        self._prefix: Run = ()  # that history
        self._out: list[str] = []  # real moves owed, in emission order
        self._emitted = 0  # how many of them are on the tape
        self._fold = self.initial_state()

    def initial_state(self):
        """The fold's state on the empty tape."""
        return None

    def respond(self, state, lm: Labmove) -> Iterable[str]:
        raise NotImplementedError

    def _start(self):
        """Play on the empty tape, before any labmove is absorbed."""

    def _settle(self):
        """Finish a query that started the fold or absorbed a labmove."""

    def _restart(self):
        """Forget the fold; machines with inner machines also refresh them."""
        ReplayMachine.__init__(self)

    def _answer(self, history: Run) -> tuple[str, ...]:
        seen = self._seen
        if seen > len(history) or history[:seen] != self._prefix:
            self._restart()
            seen = 0
        self._seen = len(history)
        self._prefix = history
        return self._replay(history, seen)

    # Each replay kind keeps its own ``next_moves`` entry, so that per-class
    # tracing (perfbench/spans.py) can wrap the layers separately.
    next_moves = _answer

    def _replay(self, history: Run, seen: int) -> tuple[str, ...]:
        """Fold ``history[seen:]`` onto the fold of ``history[:seen]``."""
        changed = seen == 0
        if changed:
            self._start()
        fold, out = self._fold, self._out
        mine = []
        for lm in history[seen:]:
            if lm.player is BOT:
                out.extend(self.respond(fold, lm))
                changed = True
            else:
                mine.append(lm.move)
        if changed:
            self._settle()
        k = self._emitted
        if mine:
            if out[k:k + len(mine)] != mine:
                raise RuntimeError(f"{self.name}: tape out of sync")
            k = self._emitted = k + len(mine)
        if self.discipline == "EPM":
            return tuple(out[k:k + 1])
        return tuple(out[k:])


class _Play:
    """An inner machine played on an imaginary tape: the machine, the tape it
    has seen, its moves there in order, and how many of those moves the
    outer machine has used.  It is a ``kernel.ThreadClasses`` position."""

    __slots__ = ("machine", "tape", "moves", "used")

    def __init__(self, machine: MachineStrategy):
        self.machine = machine
        self.tape: list[Labmove] = []
        self.moves: list[str] = []
        self.used = 0

    def step(self) -> tuple[str, ...]:
        """Ask the machine once and put its block on the tape."""
        block = self.machine.next_moves(tuple(self.tape))
        if block:
            self.tape.extend(Labmove(TOP, mv) for mv in block)
            self.moves.extend(block)
        return block

    def drain(self):
        """Ask until the machine grants permission."""
        # step's body inline: every layer of a stack drains once per absorbed
        # labmove, and a call per query cost about 4 % of simulate time
        machine, tape, moves = self.machine, self.tape, self.moves
        while True:
            block = machine.next_moves(tuple(tape))
            if not block:
                return
            tape.extend(Labmove(TOP, mv) for mv in block)
            moves.extend(block)

    def absorb(self, lm: Labmove):
        """An environment labmove joins the tape and the machine answers; an
        own labmove must be the machine's next unused move."""
        if lm.player is BOT:
            self.tape.append(lm)
            self.drain()
        elif self.used < len(self.moves) and self.moves[self.used] == lm.move:
            self.used += 1
        else:
            raise RuntimeError("promotion thread out of sync")

    def clone(self) -> "_Play":
        """The same play so far, continued by a copy of the machine."""
        new = _Play(self.machine.fresh())
        new.tape, new.moves, new.used = list(self.tape), list(self.moves), self.used
        return new


class DueMachine(ReplayMachine):
    """Base for strategies that owe a response sequence to the environment
    moves seen so far.

    Subclasses provide a fold: ``initial_state`` plus ``respond(state, lm)``
    returning the moves owed because of one environment labmove (mutating the
    state as needed).
    """

    next_moves = ReplayMachine._answer


class SilentMachine(DueMachine):
    """Grants permission forever."""

    name = "silent"
    discipline = "EPM"

    def respond(self, state, lm):
        return []


class Environment:
    """Deterministic BOT-side responder, invoked only on grants."""

    name = "environment"

    def on_grant(self, history: Run, grant_no: int) -> tuple[str, ...]:
        raise NotImplementedError

    def fresh(self) -> "Environment":
        return copy.deepcopy(self)


class SilentEnvironment(Environment):
    name = "silent-env"

    def on_grant(self, history, grant_no):
        return ()


def scripted_environment(script: Iterable[tuple[int, Sequence[str] | str]]) -> Environment:
    """Replay fixed moves at fixed grant numbers (1-based)."""
    table: dict[int, tuple[str, ...]] = {}
    for grant_no, moves in script:
        if isinstance(moves, str):
            moves = (moves,)
        table.setdefault(grant_no, ())
        table[grant_no] = table[grant_no] + tuple(moves)

    class Scripted(Environment):
        name = "scripted"

        def on_grant(self, history, grant_no):
            return table.get(grant_no, ())

    return Scripted()


# ---------------------------------------------------------------------------
# scheduler


@dataclass
class SimConfig:
    """Scheduling parameters.

    ``fairness`` forces a grant at least every k cycles, a finite surrogate
    for fair computation branches.  ``flush`` lets the machine play out its
    pending answers after the last cycle so that winners are judged at a
    quiescent point rather than mid-exchange.
    """

    horizon: int = 200
    fairness: int = 8
    flush: bool = True

    def __post_init__(self):
        if self.horizon < 1 or self.fairness < 1:
            raise ValueError("horizon and fairness must be >= 1")


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    actor: str  # "machine" | "env" | "scheduler"
    kind: str  # "move" | "grant" | "forced-grant"
    move: str | None = None


@dataclass
class SimResult:
    run: Run
    trace: list[TraceEvent]
    grants: int

    def transcript(self) -> str:
        return kernel.format_run(self.run)

    def trace_lines(self) -> str:
        out = []
        for ev in self.trace:
            if ev.kind == "move":
                label = "T" if ev.actor == "machine" else "B"
                out.append(f"{ev.cycle} {label} {ev.move}")
            else:
                out.append(f"{ev.cycle} {ev.kind}")
        return "\n".join(out)


def simulate(machine: MachineStrategy, env: Environment, cfg: SimConfig) -> SimResult:
    """Run the query loop: ask the machine each cycle; on a grant, ask the
    environment.  Machine moves of a cycle precede environment moves of the
    same (forced-grant) cycle."""
    machine = machine.fresh()
    env = env.fresh()
    history: list[Labmove] = []
    trace: list[TraceEvent] = []
    grants = 0
    since_grant = 0

    def do_grant(cycle: int, forced: bool):
        nonlocal grants, since_grant
        grants += 1
        since_grant = 0
        trace.append(TraceEvent(cycle, "scheduler" if forced else "machine",
                                "forced-grant" if forced else "grant"))
        for mv in env.on_grant(tuple(history), grants):
            history.append(Labmove(BOT, mv))
            trace.append(TraceEvent(cycle, "env", "move", mv))

    granted_at = -1  # history length at the machine's last grant
    for cycle in range(1, cfg.horizon + 1):
        if granted_at == len(history):
            # deterministic machine, unchanged tape: it grants again
            do_grant(cycle, forced=False)
            continue
        block = machine.next_moves(tuple(history))
        if block:
            if machine.discipline == "EPM" and len(block) > 1:
                raise DisciplineError(
                    f"{machine.name} declared EPM but emitted a block of {len(block)}"
                )
            for mv in block:
                history.append(Labmove(TOP, mv))
                trace.append(TraceEvent(cycle, "machine", "move", mv))
            since_grant += 1
            if since_grant >= cfg.fairness:
                do_grant(cycle, forced=True)
        else:
            granted_at = len(history)
            do_grant(cycle, forced=False)

    if cfg.flush:
        cycle = cfg.horizon
        for _ in range(cfg.horizon):
            block = machine.next_moves(tuple(history))
            if not block:
                break
            cycle += 1
            for mv in block:
                history.append(Labmove(TOP, mv))
                trace.append(TraceEvent(cycle, "machine", "move", mv))

    return SimResult(tuple(history), trace, grants)


# ---------------------------------------------------------------------------
# random environments


def _shortlex(w: str):
    return len(w), w


def _move_candidates(g: GameExpr, itp: Interpretation,
                     tree: Callable[[str], kernel.BTStructure], rng: Random,
                     at: str = "") -> list[str]:
    """Plausibly legal BOT moves: shape-directed templates over small address
    pools and the atoms' suggestion lists.  Candidates carry no legality
    promise; callers filter with a ``LegalPosition``.

    A tree-form recurrence reads ``tree(at)``, the replication tree of the
    history's moves under ``at``, the prefix of the ``&``/``|`` components
    above it.  Recurrence bodies and a cirquent's oformulas keep their
    parent's prefix."""
    match g:
        case Atom(name) | NegAtom(name):
            return list(itp[name].suggest(()))
        case And(l, r) | Or(l, r):
            out = [f"1.{c}" for c in _move_candidates(l, itp, tree, rng, at + "1.")]
            out += [f"2.{c}" for c in _move_candidates(r, itp, tree, rng, at + "2.")]
            return out
        case CRec(body) | CCoRec(body) | URec(body) | UCoRec(body):
            addrs = ["", "0", "1", format(rng.randrange(8), "03b")]
            inner = _move_candidates(body, itp, tree, rng, at)
            return [f"{w}.{c}" for w in addrs for c in inner]
        case OldCRec(body) | OldCCoRec(body):
            bt = tree(at)
            out = []
            if isinstance(g, OldCRec):  # BOT is the replicating player here
                out += [f"{leaf}:" for leaf in bt.leaves()]
            inner = _move_candidates(body, itp, tree, rng, at)
            for w in heapq.nsmallest(6, bt.nodes, key=_shortlex):
                out.extend(f"{w}.{c}" for c in inner)
            return out
        case kernel.CirquentGame(c):
            n = len(c.overgroups)
            out = []
            for a in range(1, len(c.oformulas) + 1):
                coords = tuple(
                    rng.choice(["", "0", "1", "00"]) if a in c.overgroups[j - 1] else ""
                    for j in range(1, n + 1)
                )
                for cnd in _move_candidates(c.oformulas[a - 1], itp, tree, rng, at):
                    out.append(kernel.join_cell(a, coords, cnd))
            return out
    raise TypeError(f"not a game expression: {g!r}")


def random_legal_environment(
    seed: int, g: GameExpr, itp: Interpretation, move_probability: float = 0.5
) -> Environment:
    """On each grant, with the given probability play one uniformly chosen
    legal move from the candidate pool, else pass.  Pure per (seed, grant).

    Candidates are filtered by one live ``LegalPosition`` per environment.
    It folds only the labmoves a history has gained since the last one it
    was asked about, and restarts from the empty position on any history
    that does not extend that one, so the answer never depends on the order
    of grants."""

    class RandomLegal(Environment):
        name = f"random:{seed}"

        def __init__(self):
            self._position = None
            self._history: Run = ()  # the history folded into the position

        def _follow(self, history: Run):
            seen = len(self._history)
            if (self._position is None or seen > len(history)
                    or history[:seen] != self._history):
                self._position = LegalPosition(g, itp)
                seen = 0
            self._position.absorb(history[seen:])
            self._history = history

        def _tree(self, at: str) -> kernel.BTStructure:
            # the position's own tree where it keeps one; elsewhere (a
            # tree-form recurrence below a recurrence or in a cirquent)
            # the tree of the history's moves under ``at``
            tree = self._position.tree(at)
            if tree is None:
                tree = kernel.bt_structure(kernel.strip_prefix(self._history, at))
            return tree

        def on_grant(self, history, grant_no):
            rng = Random(f"{seed}:{grant_no}")
            if rng.random() >= move_probability:
                return ()
            self._follow(history)
            pool = _move_candidates(g, itp, self._tree, rng)
            rng.shuffle(pool)
            position = self._position
            for mv in pool:
                if position.allows(Labmove(BOT, mv)):
                    return (mv,)
            return ()

    return RandomLegal()


# ---------------------------------------------------------------------------
# translators: one inner machine behind a move renaming


class Translator(ReplayMachine):
    """Plays game B by simulating an inner machine on game A.

    Environment moves translate one-to-many onto the inner tape; inner moves
    translate one-to-many onto the real tape.  Each inner move is translated
    exactly once, after the query that made it due has absorbed all its new
    labmoves, so a renaming that depends on the addresses already played
    (``inner_to_real`` may read the fold state) sees all of them.
    """

    def __init__(self, inner: MachineStrategy, name: str | None = None):
        if name:
            self.name = name
        self._play = _Play(inner)
        super().__init__()

    # -- renaming hooks ----------------------------------------------------

    def env_to_inner(self, move: str) -> list[str]:
        raise NotImplementedError

    def inner_to_real(self, move: str) -> list[str]:
        raise NotImplementedError

    # -- replay ------------------------------------------------------------

    def _restart(self):
        self._play = _Play(self._play.machine.fresh())
        super()._restart()

    def _start(self):
        self._play.drain()

    def respond(self, state, lm):
        play = self._play
        play.tape.extend(Labmove(BOT, mv) for mv in self.env_to_inner(lm.move))
        play.drain()
        return ()

    def _settle(self):
        play = self._play
        for mv in play.moves[play.used:]:
            self._out.extend(self.inner_to_real(mv))
        play.used = len(play.moves)

    next_moves = ReplayMachine._answer


class RenamingMachine(Translator):
    """Translator specialized to stateless bijective-ish renamings."""

    def __init__(self, inner, to_inner: Callable[[str], list[str]],
                 to_real: Callable[[str], list[str]], name=None):
        super().__init__(inner, name)
        self._to_inner = to_inner
        self._to_real = to_real

    def env_to_inner(self, move):
        return self._to_inner(move)

    def inner_to_real(self, move):
        return self._to_real(move)


# ---------------------------------------------------------------------------
# routers: several inner machines wired together


class Router(ReplayMachine):
    """Plays an outer game by routing moves among inner machines.

    ``outer_links`` are (outer_prefix, inner index, inner_prefix): a BOT move
    under outer_prefix feeds the inner tape under inner_prefix, and an inner
    TOP move under inner_prefix surfaces as a real move under outer_prefix.
    ``internal_links`` are (i, prefix_i, j, prefix_j): a TOP move of machine i
    under prefix_i lands on machine j's tape as a BOT move under prefix_j,
    and symmetrically.
    """

    def __init__(self, inners, outer_links, internal_links, name="router"):
        self._plays = [_Play(m) for m in inners]
        self.outer_links = list(outer_links)
        self.internal_links = list(internal_links)
        self.name = name
        super().__init__()

    def _restart(self):
        self._plays = [_Play(p.machine.fresh()) for p in self._plays]
        super()._restart()

    def _route(self, i: int, move: str):
        for a, pa, b, pb in self.internal_links:
            if a == i and move.startswith(pa):
                self._plays[b].tape.append(Labmove(BOT, pb + move[len(pa):]))
                return
            if b == i and move.startswith(pb):
                self._plays[a].tape.append(Labmove(BOT, pa + move[len(pb):]))
                return
        for outer_prefix, j, inner_prefix in self.outer_links:
            if j == i and move.startswith(inner_prefix):
                self._out.append(outer_prefix + move[len(inner_prefix):])
                return

    def _run_inners(self):
        """Ask each inner machine in turn until all of them grant."""
        progress = True
        while progress:
            progress = False
            for i, play in enumerate(self._plays):
                block = play.step()
                if block:
                    progress = True
                    for mv in block:
                        self._route(i, mv)

    _start = _run_inners

    def respond(self, state, lm):
        for outer_prefix, j, inner_prefix in self.outer_links:
            if lm.move.startswith(outer_prefix):
                self._plays[j].tape.append(
                    Labmove(BOT, inner_prefix + lm.move[len(outer_prefix):])
                )
                break
        self._run_inners()
        return ()

    next_moves = ReplayMachine._answer


def compose_modus_ponens(n: MachineStrategy, m: MachineStrategy,
                         name="modus-ponens") -> MachineStrategy:
    """From n winning A -> B and m winning A, a machine playing B.

    m's moves feed n's left component with roles flipped; n's left-component
    moves feed m; n's right-component moves are played for real.
    """
    return Router(
        inners=[n.fresh(), m.fresh()],
        outer_links=[("", 0, "2.")],
        internal_links=[(0, "1.", 1, "")],
        name=name,
    )


def compose_chain(m_ab: MachineStrategy, m_bc: MachineStrategy,
                  name="chain") -> MachineStrategy:
    """From machines winning A -> B and B -> C, a machine playing A -> C."""
    return Router(
        inners=[m_ab.fresh(), m_bc.fresh()],
        outer_links=[("1.", 0, "1."), ("2.", 1, "2.")],
        internal_links=[(0, "2.", 1, "1.")],
        name=name,
    )


def swap_components(m: MachineStrategy, name="swap") -> MachineStrategy:
    """Plays the component-swapped disjunction: wins B | A from A | B."""
    return Router(
        inners=[m.fresh()],
        outer_links=[("1.", 0, "2."), ("2.", 0, "1.")],
        internal_links=[],
        name=name,
    )


def pair_components(m1: MachineStrategy, m2: MachineStrategy,
                    name="pair") -> MachineStrategy:
    """Lift machines for A -> A' and B -> B' to one for the componentwise
    implication (A op B) -> (A' op B), both for op = conjunction and
    disjunction: the move renaming is the same, only winners differ."""
    return Router(
        inners=[m1.fresh(), m2.fresh()],
        outer_links=[
            ("1.1.", 0, "1."),
            ("2.1.", 0, "2."),
            ("1.2.", 1, "1."),
            ("2.2.", 1, "2."),
        ],
        internal_links=[],
        name=name,
    )
