"""The strategy catalog: concrete copycats, bridge machines between the two
countable recurrences, the per-rule strategy transformers, proof-to-strategy
synthesis, the recurrence equivalence machines, and the diagonalizing
counterstrategy.

Every machine here is reactive: it owes a deterministic sequence of responses
to the environment moves seen so far, so its behavior is a pure function of
the run tape and can be replayed inside other machines.
"""

from __future__ import annotations

from typing import Iterable

from .bits import fusions, defusion, shortlex
from . import calculus
from .calculus import (
    AndIntro,
    Axiom,
    CoRecIntro,
    Contraction,
    Duplication,
    Exchange,
    Merging,
    OrIntro,
    Proof,
    RecIntro,
    RuleError,
    Weakening,
    weakening_deleted_overgroups,
)
from .kernel import (
    BOT,
    TOP,
    GameExpr,
    Labmove,
    Run,
    ThreadClasses,
    join_cell,
    split_cell,
    split_indexed,
    split_thread,
)
from .machines import (
    DueMachine,
    Environment,
    MachineStrategy,
    RenamingMachine,
    ReplayMachine,
    Translator,
    _Play,
    compose_chain,
    compose_modus_ponens,
    pair_components,
    swap_components,
)
from .syntax import (
    And,
    Atom,
    CCoRec,
    CRec,
    Cirquent,
    Formula,
    NegAtom,
    OldCCoRec,
    OldCRec,
    Or,
    UCoRec,
    URec,
    negate,
    parse_formula,
)


def _numeral_pool(history: Run) -> set[str]:
    """Numerals already played in any thread of either disjunct."""
    used = set()
    for lm in history:
        parsed = split_indexed(lm.move)
        if parsed is None:
            continue
        t = split_thread(parsed[1])
        if t is not None and t[1] is not None and t[1].isdigit():
            used.add(t[1])
    return used


# ---------------------------------------------------------------------------
# elementary copycats


class LiteralCopycat(DueMachine):
    """Mirrors every move between the two disjuncts verbatim; wins A -> A."""

    name = "copycat"

    def respond(self, state, lm):
        parsed = split_indexed(lm.move)
        if parsed is None:
            return []
        i, rest = parsed
        return [f"{3 - i}.{rest}"]


class StToCst(DueMachine):
    """Wins the prefix-form implication from the uncountable to the countable
    recurrence by copying thread-addressed moves across unchanged."""

    name = "st-to-cst"

    def respond(self, state, lm):
        parsed = split_indexed(lm.move)
        if parsed is None:
            return []
        i, rest = parsed
        t = split_thread(rest)
        if t is None or t[1] is None:
            return []
        return [f"{3 - i}.{rest}"]


class CstDistribution(DueMachine):
    """Wins !c(A -> B) -> (!c A -> !c B): the thread address commutes with the
    inner component index, giving a four-way mirroring."""

    name = "cst-distribution"

    def respond(self, state, lm):
        parsed = split_indexed(lm.move)
        if parsed is None:
            return []
        comp, rest = parsed
        if comp == 1:
            t = split_thread(rest)
            if t is None or t[1] is None:
                return []
            w, inner = t
            sub = split_indexed(inner)
            if sub is None:
                return []
            i, alpha = sub
            return [f"2.{i}.{w}.{alpha}"]
        sub = split_indexed(rest)
        if sub is None:
            return []
        i, tail = sub
        t = split_thread(tail)
        if t is None or t[1] is None:
            return []
        w, alpha = t
        return [f"1.{w}.{i}.{alpha}"]


class CstElimination(DueMachine):
    """Wins the tree-form !o A -> A without ever replicating: the left
    component stays a single thread at the root address."""

    name = "cst-elimination"

    def respond(self, state, lm):
        parsed = split_indexed(lm.move)
        if parsed is None:
            return []
        comp, rest = parsed
        if comp == 2:
            return [f"1..{rest}"]
        t = split_thread(rest)
        if t is None or t[1] is None or t[0] != "":
            return []
        return [f"2.{t[1]}"]


class AxiomCopycat(DueMachine):
    """Plays an axiom cirquent by mirroring cell a onto its pair partner
    (a+1 for odd a, a-1 for even a), thread coordinates untouched."""

    def __init__(self, n_pairs: int):
        super().__init__()
        self.n_pairs = n_pairs
        self.name = f"axiom-copycat-{n_pairs}"

    def respond(self, state, lm):
        parsed = split_cell(lm.move, self.n_pairs)
        if parsed is None:
            return []
        a, coords, rest = parsed
        if not 1 <= a <= 2 * self.n_pairs:
            return []
        b = a + 1 if a % 2 == 1 else a - 1
        return [join_cell(b, coords, rest)]


# ---------------------------------------------------------------------------
# bridges between the tree-form and prefix-form countable recurrence


class BridgeOldToNew(DueMachine):
    """Wins (tree-form !o A) -> (prefix-form !c A).

    Left-to-right moves copy across verbatim.  A right-component move at
    thread address w is answered by first replicating in the left component
    until w is a node of its replication tree, then copying the move there.
    """

    name = "bridge-old-new"

    def initial_state(self):
        return {""}  # replication-tree nodes of the left component

    def respond(self, nodes, lm):
        parsed = split_indexed(lm.move)
        if parsed is None:
            return []
        comp, rest = parsed
        t = split_thread(rest)
        if t is None or t[1] is None:
            return []
        w, beta = t
        if comp == 1:
            return [f"2.{rest}"]
        due = []
        while w not in nodes:
            k = max(j for j in range(len(w)) if w[:j] in nodes)
            leaf = w[:k]
            due.append(f"1.{leaf}:")
            nodes.add(leaf + "0")
            nodes.add(leaf + "1")
        due.append(f"1.{rest}")
        return due


class BridgeNewToOld(DueMachine):
    """Wins (prefix-form !c A) -> (tree-form !o A).

    The machine maintains a map from the leaves of the right component's
    replication tree to thread addresses of the left component.  Images of
    distinct leaves are never prefixes of one another, and an image only ever
    grows (by the leaf's own bits on replication, or by inserted zeros when
    adopting an all-zero extension played on the left), so the number of 1s
    along any synchronized left address equals that of its right thread.
    """

    name = "bridge-new-old"

    def initial_state(self):
        return {"": ""}  # leaf of the right component -> left thread address

    def leaf_map(self, history) -> dict[str, str]:
        """The leaf-to-address map after the given history."""
        images = self.initial_state()
        for lm in history:
            if lm.player is BOT:
                self.respond(images, lm)
        return images

    @staticmethod
    def _check(images: dict[str, str], changed: Iterable[str]):
        """Raise unless the changed leaves' images are prefix-free against all
        others; the unchanged ones already were."""
        for a in changed:
            for b in images:
                if b != a and (images[a].startswith(images[b])
                               or images[b].startswith(images[a])):
                    raise RuntimeError(f"leaf images not prefix-free: {images}")

    def respond(self, images, lm):
        parsed = split_indexed(lm.move)
        if parsed is None:
            return []
        comp, rest = parsed
        t = split_thread(rest)
        if t is None:
            return []
        w, beta = t
        if comp == 2:
            if beta is None:
                # replication of leaf w: children inherit the image bitwise
                if w in images:
                    v = images.pop(w)
                    images[w + "0"] = v + "0"
                    images[w + "1"] = v + "1"
                    self._check(images, (w + "0", w + "1"))
                return []
            # move in every thread below node w: copy into each leaf image
            return [
                f"1.{images[leaf]}.{beta}"
                for leaf in sorted((u for u in images if u.startswith(w)),
                                   key=lambda u: (len(u), u))
            ]
        if beta is None:
            return []
        over = [u for u in images if len(images[u]) < len(w) and w.startswith(images[u])]
        if over:
            leaf = over[0]  # unique: images are prefix-free
            grown = w[len(images[leaf]):]
            if "1" in grown:
                return []  # address left the essentially finite zone: ignore
            images[leaf] = w
            self._check(images, (leaf,))
            return [f"2.{leaf}.{beta}"]
        return [
            f"2.{leaf}.{beta}"
            for leaf in sorted((u for u in images if images[u].startswith(w)),
                               key=lambda u: (len(u), u))
        ]


# ---------------------------------------------------------------------------
# adapters between formula games and cirquent games


class ClubsuitAdapter(Translator):
    """Plays the bare recurrence game on top of a machine for the one-formula
    cirquent: thread address w on the outside is cell address 1;w inside."""

    def __init__(self, inner):
        super().__init__(inner, name="clubsuit-adapter")

    def env_to_inner(self, move):
        t = split_thread(move)
        if t is None or t[1] is None:
            return []
        return [join_cell(1, (t[0],), t[1])]

    def inner_to_real(self, move):
        parsed = split_cell(move, 1)
        if parsed is None or parsed[0] != 1:
            raise RuntimeError(f"clubsuit adapter: unexpected inner move {move!r}")
        return [f"{parsed[1][0]}.{parsed[2]}"]


def formula_adapter(m: MachineStrategy) -> MachineStrategy:
    """From a machine winning the one-formula cirquent game of F, a machine
    winning F itself: adapt to the prefix-form recurrence over F, bridge to
    the tree form, and eliminate the recurrence by modus ponens."""
    recurrence_solver = ClubsuitAdapter(m.fresh())
    tree_solver = compose_modus_ponens(
        BridgeNewToOld(), recurrence_solver, name="to-tree-form"
    )
    return compose_modus_ponens(CstElimination(), tree_solver, name="formula-adapter")


# ---------------------------------------------------------------------------
# rule transformers


def _identity(inner: MachineStrategy) -> MachineStrategy:
    return inner


def _swap_oformula(n: int, i: int):
    def rename(move):
        parsed = split_cell(move, n)
        if parsed is None:
            return []
        a, coords, rest = parsed
        b = i + 1 if a == i else i if a == i + 1 else a
        return [join_cell(b, coords, rest)]

    return rename


def _swap_coord(n: int, i: int):
    def rename(move):
        parsed = split_cell(move, n)
        if parsed is None:
            return []
        a, coords, rest = parsed
        swapped = coords[: i - 1] + (coords[i], coords[i - 1]) + coords[i + 1:]
        return [join_cell(a, swapped, rest)]

    return rename


def transform_rule(
    r, premise: Cirquent | None, conclusion: Cirquent, inner: MachineStrategy | None
) -> MachineStrategy:
    """A machine for the conclusion's game, given one for the premise's.

    The (premise, conclusion, rule) triple must pass the proof checker; the
    construction then reinterprets moves between the real play (conclusion)
    and the imaginary play (premise) exactly as the rule's soundness argument
    prescribes.
    """
    reason = calculus.check_step(premise, conclusion, r)
    if reason is not None:
        raise RuleError(f"not a valid rule instance: {reason}")

    n_con = len(conclusion.overgroups)
    n_pre = len(premise.overgroups) if premise is not None else 0

    match r:
        case Axiom():
            return AxiomCopycat(len(conclusion.oformulas) // 2)

        case Exchange("undergroup", _):
            return _identity(inner)
        case Exchange("oformula", i):
            rename = _swap_oformula(n_con, i)
            return RenamingMachine(inner, rename, rename, name=f"exchange-o@{i}")
        case Exchange("overgroup", i):
            rename = _swap_coord(n_con, i)
            return RenamingMachine(inner, rename, rename, name=f"exchange-g@{i}")

        case Duplication("undergroup", _):
            return _identity(inner)
        case Duplication("overgroup", i):

            def dup_env(move):
                parsed = split_cell(move, n_con)
                if parsed is None:
                    return []
                a, coords, rest = parsed
                u1, u2 = coords[i - 1], coords[i]
                return [
                    join_cell(a, coords[: i - 1] + (v,) + coords[i + 1:], rest)
                    for v in fusions([u1, u2])
                ]

            def dup_out(move):
                parsed = split_cell(move, n_pre)
                if parsed is None:
                    raise RuntimeError(f"bad inner move {move!r}")
                a, coords, rest = parsed
                u1, u2 = defusion(coords[i - 1], 2)
                return [join_cell(a, coords[: i - 1] + (u1, u2) + coords[i:], rest)]

            return RenamingMachine(inner, dup_env, dup_out, name=f"duplicate-g@{i}")

        case Merging(i):
            in_left = [a in premise.overgroups[i - 1] for a in range(len(premise.oformulas) + 1)]
            in_right = [a in premise.overgroups[i] for a in range(len(premise.oformulas) + 1)]

            def merge_env(move):
                parsed = split_cell(move, n_con)
                if parsed is None:
                    return []
                a, coords, rest = parsed
                u = coords[i - 1]
                if in_left[a] and in_right[a]:
                    u1, u2 = defusion(u, 2)
                elif in_left[a]:
                    u1, u2 = u, ""
                elif in_right[a]:
                    u1, u2 = "", u
                else:
                    if u != "":
                        return []
                    u1, u2 = "", ""
                return [join_cell(a, coords[: i - 1] + (u1, u2) + coords[i:], rest)]

            def merge_out(move):
                parsed = split_cell(move, n_pre)
                if parsed is None:
                    raise RuntimeError(f"bad inner move {move!r}")
                a, coords, rest = parsed
                u1, u2 = coords[i - 1], coords[i]
                tail = coords[i + 1:]
                if in_left[a] and in_right[a]:
                    return [
                        join_cell(a, coords[: i - 1] + (v,) + tail, rest)
                        for v in fusions([u1, u2])
                    ]
                v = u1 if in_left[a] else u2 if in_right[a] else ""
                return [join_cell(a, coords[: i - 1] + (v,) + tail, rest)]

            return RenamingMachine(inner, merge_env, merge_out, name=f"merge@{i}")

        case Weakening(_, d):
            if len(premise.oformulas) == len(conclusion.oformulas):
                return _identity(inner)
            dropped = weakening_deleted_overgroups(conclusion, r)

            def weak_env(move):
                parsed = split_cell(move, n_con)
                if parsed is None:
                    return []
                a, coords, rest = parsed
                if a == d:
                    return []  # moves in the deleted oformula are ignored
                a2 = a - 1 if a > d else a
                coords2 = tuple(u for j, u in enumerate(coords, start=1) if j not in dropped)
                return [join_cell(a2, coords2, rest)]

            def weak_out(move):
                parsed = split_cell(move, n_pre)
                if parsed is None:
                    raise RuntimeError(f"bad inner move {move!r}")
                a, coords, rest = parsed
                a2 = a + 1 if a >= d else a
                coords2 = list(coords)
                for j in dropped:
                    coords2.insert(j - 1, "")
                return [join_cell(a2, tuple(coords2), rest)]

            return RenamingMachine(inner, weak_env, weak_out, name=f"weaken-{d}")

        case Contraction(j):

            def contract_env(move):
                parsed = split_cell(move, n_con)
                if parsed is None:
                    return []
                a, coords, rest = parsed
                if a != j:
                    return [join_cell(a + 1 if a > j else a, coords, rest)]
                t = split_thread(rest)
                if t is None or t[1] is None:
                    return []
                z, alpha = t
                if z == "":
                    # a root-addressed move touches all threads of both copies
                    return [join_cell(j, coords, rest), join_cell(j + 1, coords, rest)]
                copy_at = j if z[0] == "0" else j + 1
                return [join_cell(copy_at, coords, f"{z[1:]}.{alpha}")]

            def contract_out(move):
                parsed = split_cell(move, n_pre)
                if parsed is None:
                    raise RuntimeError(f"bad inner move {move!r}")
                a, coords, rest = parsed
                if a not in (j, j + 1):
                    return [join_cell(a - 1 if a > j + 1 else a, coords, rest)]
                t = split_thread(rest)
                if t is None or t[1] is None:
                    raise RuntimeError(f"bad inner move {move!r}")
                z, alpha = t
                bit = "0" if a == j else "1"
                return [join_cell(j, coords, f"{bit}{z}.{alpha}")]

            return RenamingMachine(inner, contract_env, contract_out, name=f"contract@{j}")

        case OrIntro(j) | AndIntro(j):

            def intro_env(move):
                parsed = split_cell(move, n_con)
                if parsed is None:
                    return []
                a, coords, rest = parsed
                if a != j:
                    return [join_cell(a + 1 if a > j else a, coords, rest)]
                sub = split_indexed(rest)
                if sub is None:
                    return []
                i, alpha = sub
                return [join_cell(j + i - 1, coords, alpha)]

            def intro_out(move):
                parsed = split_cell(move, n_pre)
                if parsed is None:
                    raise RuntimeError(f"bad inner move {move!r}")
                a, coords, rest = parsed
                if a == j or a == j + 1:
                    return [join_cell(j, coords, f"{a - j + 1}.{rest}")]
                return [join_cell(a - 1 if a > j + 1 else a, coords, rest)]

            kind = "or" if isinstance(r, OrIntro) else "and"
            return RenamingMachine(inner, intro_env, intro_out, name=f"{kind}-intro@{j}")

        case RecIntro(j, k):

            def rec_env(move):
                parsed = split_cell(move, n_con)
                if parsed is None:
                    return []
                a, coords, rest = parsed
                if a != j:
                    coords2 = coords[: k - 1] + ("",) + coords[k - 1:]
                    return [join_cell(a, coords2, rest)]
                t = split_thread(rest)
                if t is None or t[1] is None:
                    return []
                u, alpha = t
                coords2 = coords[: k - 1] + (u,) + coords[k - 1:]
                return [join_cell(j, coords2, alpha)]

            def rec_out(move):
                parsed = split_cell(move, n_pre)
                if parsed is None:
                    raise RuntimeError(f"bad inner move {move!r}")
                a, coords, rest = parsed
                u = coords[k - 1]
                coords2 = coords[: k - 1] + coords[k:]
                if a != j:
                    return [join_cell(a, coords2, rest)]
                return [join_cell(j, coords2, f"{u}.{rest}")]

            return RenamingMachine(inner, rec_env, rec_out, name=f"rec-intro@{j}")

        case CoRecIntro(j, over):
            if not over:
                return _PinnedThreadMachine(inner, j, n_con)
            slots = sorted(over)

            def corec_env(move):
                parsed = split_cell(move, n_con)
                if parsed is None:
                    return []
                a, coords, rest = parsed
                if a != j:
                    return [join_cell(a, coords, rest)]
                if any(coords[s - 1] != "" for s in slots):
                    return []
                t = split_thread(rest)
                if t is None or t[1] is None:
                    return []
                u, alpha = t
                parts = defusion(u, len(slots))
                coords2 = list(coords)
                for s, part in zip(slots, parts):
                    coords2[s - 1] = part
                return [join_cell(j, tuple(coords2), alpha)]

            def corec_out(move):
                parsed = split_cell(move, n_pre)
                if parsed is None:
                    raise RuntimeError(f"bad inner move {move!r}")
                a, coords, rest = parsed
                if a != j:
                    return [join_cell(a, coords, rest)]
                us = [coords[s - 1] for s in slots]
                coords2 = list(coords)
                for s in slots:
                    coords2[s - 1] = ""
                return [
                    join_cell(j, tuple(coords2), f"{v}.{rest}") for v in fusions(us)
                ]

            return RenamingMachine(inner, corec_env, corec_out, name=f"corec-intro@{j}")

    raise RuleError(f"no transformer for {r!r}")


class _PinnedThreadMachine(Translator):
    """Corecurrence introduction with no new overgroups: synchronize one
    all-zero thread of the corecurrence with the premise's bare formula.

    The pinned address grows only as far as needed to avoid being a proper
    prefix of any address already used in the cell, which keeps the
    synchronized thread's run isolated from later splits.  The fold state is
    the set of thread addresses the environment used in the cell.  The
    machine's own pinned addresses need no record: none lies deeper than the
    next one, so none is a proper extension of it.
    """

    def __init__(self, inner, oformula: int, n_coords: int):
        super().__init__(inner, name=f"corec-intro@{oformula}-pin")
        self.oformula = oformula
        self.n_coords = n_coords

    def initial_state(self):
        return set()

    def env_to_inner(self, move):
        parsed = split_cell(move, self.n_coords)
        if parsed is None:
            return []
        a, coords, rest = parsed
        if a != self.oformula:
            return [move]
        t = split_thread(rest)
        if t is None or t[1] is None:
            return []
        v, alpha = t
        self._fold.add(v)
        if v.strip("0"):
            return []  # off the pinned all-zero thread: ignore
        return [join_cell(a, coords, alpha)]

    def inner_to_real(self, move):
        parsed = split_cell(move, self.n_coords)
        if parsed is None:
            raise RuntimeError(f"bad inner move {move!r}")
        a, coords, rest = parsed
        if a != self.oformula:
            return [move]
        k = 0
        while any(v != "0" * k and v.startswith("0" * k) for v in self._fold):
            k += 1
        return [join_cell(a, coords, f"{'0' * k}.{rest}")]


# ---------------------------------------------------------------------------
# synthesis


def synthesize(p: Proof) -> MachineStrategy:
    """Fold the rule transformers along a checked proof; the result plays the
    conclusion cirquent's game.  Deterministic in the proof."""
    bad = calculus.check_proof(p)
    if bad is not None:
        raise RuleError(f"step {bad[0]}: {bad[1]}")
    machine: MachineStrategy | None = None
    previous: Cirquent | None = None
    for step in p.steps:
        machine = transform_rule(step.rule, previous, step.cirquent, machine)
        previous = step.cirquent
    assert machine is not None
    return machine


def synthesize_formula(p: Proof) -> MachineStrategy:
    """Synthesis for a proof ending at a one-formula cirquent F-club: returns
    a machine playing F itself."""
    machine = synthesize(p)
    c = p.conclusion
    if len(c.oformulas) != 1 or c.undergroups != ({1},) or c.overgroups != ({1},):
        raise RuleError("proof does not conclude a one-formula cirquent")
    return formula_adapter(machine)


# ---------------------------------------------------------------------------
# recurrence equivalence machines


class ThreadPromotion(ReplayMachine):
    """Wins a branching recurrence of G given a machine winning G, by running
    one play of the inner machine per thread class and addressing its
    answers at the class's defining prefix.

    The plays are the positions of a ``kernel.ThreadClasses`` over the tape.
    Classes split on the adversary's addresses only: our own moves must land
    exactly at class addresses, so within each class every thread keeps
    seeing the same projection.  Answers go out class by class: a class the
    adversary played at takes its own place in shortlex order, any other
    its parent's.
    """

    name = "thread-promotion"

    def __init__(self, inner: MachineStrategy):
        self.inner = inner
        super().__init__()

    def _start(self):
        play = _Play(self.inner.fresh())
        play.drain()
        self._classes = ThreadClasses.empty(play, 1)
        self._played: set[str] = set()  # the adversary's thread addresses

    def _replay(self, history: Run, seen: int) -> tuple[str, ...]:
        if seen == 0:
            self._start()
        for lm in history[seen:]:
            t = split_thread(lm.move)
            if t is None or t[1] is None:
                continue
            if lm.player is BOT:
                self._played.add(t[0])
            elif t[0] not in self._classes.coords[0]:  # we answer at class addresses
                raise RuntimeError("promotion thread out of sync")
            self._classes.absorb((t[0],), Labmove(lm.player, t[1]))
        return tuple(f"{addr}.{mv}" for (addr,), play in self._ordered()
                     for mv in play.moves[play.used:])

    def _ordered(self) -> list[tuple[tuple[str], _Play]]:
        """The live classes and their plays, in emission order."""
        def place(item):
            (addr,), _ = item
            at = addr if addr in self._played else addr[:-1]
            return len(at), at, addr
        return sorted(self._classes.positions.items(), key=place)

    next_moves = ReplayMachine._answer


def equivalence_machine(f: Formula, direction: str) -> MachineStrategy:
    """A single machine winning the implication between the two readings of f.

    ``direction`` is "TL" (tree-form recurrences imply prefix-form ones) or
    "LT" for the converse.  The machine is assembled by structural recursion:
    copycat at literals, componentwise lifting at the binary connectives, and
    the bridge/distribution chain at the countable recurrence.
    """
    if direction not in ("TL", "LT"):
        raise ValueError("direction must be 'TL' or 'LT'")
    opposite = "LT" if direction == "TL" else "TL"
    match f:
        case Atom(_) | NegAtom(_):
            return LiteralCopycat()
        case And(l, r) | Or(l, r):
            return pair_components(
                equivalence_machine(l, direction), equivalence_machine(r, direction)
            )
        case CRec(body):
            # promote the inductive machine through the recurrence, move it
            # into prefix form, distribute over the implication, then bridge
            # the remaining reading gap at the outer recurrence
            promoted = ThreadPromotion(equivalence_machine(body, direction))
            inside = compose_modus_ponens(StToCst(), promoted)
            lifted = compose_modus_ponens(CstDistribution(), inside)
            if direction == "TL":
                return compose_chain(BridgeOldToNew(), lifted)
            return compose_chain(lifted, BridgeNewToOld())
        case CCoRec(body):
            return swap_components(equivalence_machine(CRec(negate(body)), opposite))
        case URec(body):
            # the uncountable recurrence reads the same on both sides; only
            # the body needs translating
            promoted = ThreadPromotion(equivalence_machine(body, direction))
            return compose_modus_ponens(CstDistribution(), promoted)
        case UCoRec(body):
            return swap_components(equivalence_machine(URec(negate(body)), opposite))
    raise ValueError(f"equivalence machines cover the recurrence fragment, got {f!r}")


def reading(f: Formula, style: str) -> Formula:
    """Map the countable recurrences of f to one concrete reading: ``tree``
    replaces them by the replication-tree form, ``prefix`` keeps them."""
    match f:
        case Atom(_) | NegAtom(_):
            return f
        case And(l, r):
            return And(reading(l, style), reading(r, style))
        case Or(l, r):
            return Or(reading(l, style), reading(r, style))
        case CRec(body):
            inner = reading(body, style)
            return OldCRec(inner) if style == "tree" else CRec(inner)
        case CCoRec(body):
            inner = reading(body, style)
            return OldCCoRec(inner) if style == "tree" else CCoRec(inner)
        case URec(body):
            return URec(reading(body, style))
        case UCoRec(body):
            return UCoRec(reading(body, style))
    raise ValueError(f"no reading for {f!r}")


def equivalence_game(f: Formula, direction: str) -> GameExpr:
    """The implication game the equivalence machine for (f, direction) plays."""
    tree, prefix = reading(f, "tree"), reading(f, "prefix")
    if direction == "TL":
        return Or(negate(tree), prefix)
    return Or(negate(prefix), tree)


# ---------------------------------------------------------------------------
# the diagonalizing counterstrategy


class CounterstrategyLoop(Environment):
    """The environment that separates the two recurrences: on iteration i it
    plays a fresh numeral into the right disjunct at the i'th shortlex thread
    address, making every pair of distinct threads differ."""

    name = "counterstrategy-loop"

    def on_grant(self, history, grant_no):
        w = shortlex(grant_no)
        used = _numeral_pool(history)
        u = 0
        while str(u) in used:
            u += 1
        return (f"2.{w}.{u}",)


# ---------------------------------------------------------------------------
# catalog


CATALOG: dict[str, type[MachineStrategy]] = {
    "copycat": LiteralCopycat,
    "st-to-cst": StToCst,
    "cst-distribution": CstDistribution,
    "cst-elimination": CstElimination,
    "bridge-old-new": BridgeOldToNew,
    "bridge-new-old": BridgeNewToOld,
}

CATALOG_GAMES: dict[str, str] = {
    "copycat": "P -> P",
    "st-to-cst": "!u P -> !c P",
    "cst-distribution": "!c (P -> Q) -> (!c P -> !c Q)",
    "cst-elimination": "!o P -> P",
    "bridge-old-new": "!o P -> !c P",
    "bridge-new-old": "!c P -> !o P",
}


def catalog_machine(name: str) -> MachineStrategy:
    try:
        return CATALOG[name]()
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; have {', '.join(sorted(CATALOG))}") from None


def catalog_game(name: str) -> GameExpr:
    return parse_formula(CATALOG_GAMES[name])
