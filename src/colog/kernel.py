"""Runs, projections, and desk-scale game evaluation.

A run is a finite sequence of labeled moves.  A game expression is a formula
tree (optionally rooted at a cirquent) evaluated against an interpretation
that maps atoms to concrete finite games.  Legality is checked move by move,
by one live position (``LegalPosition``); the winner of a finite run is
computed by treating the run as completed.

The "for all infinite bitstrings" quantifiers in the recurrence and cirquent
winner clauses are decided over thread classes: two infinite addresses that
select the same used move prefixes have identical projections, so one
projection per class suffices on a finite run.  The classes are one live
fold, ``ThreadClasses``, shared by legality, thread promotion and the winner.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .bits import InfBits
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
)


class Player(enum.Enum):
    TOP = "T"
    BOT = "B"

    # singletons compared by identity; Enum's own hash is a Python-level call
    __hash__ = object.__hash__

    def flip(self) -> "Player":
        return Player.BOT if self is Player.TOP else Player.TOP

    def __str__(self) -> str:
        return self.value


TOP = Player.TOP
BOT = Player.BOT


class Labmove(NamedTuple):
    player: Player
    move: str

    def __deepcopy__(self, memo):  # immutable, so a forked machine shares it
        return self


Run = tuple[Labmove, ...]


def run(*pairs) -> Run:
    """Convenience constructor: run((TOP, "1.m"), (BOT, "2.m"))."""
    return tuple(Labmove(p, m) for p, m in pairs)


def negate_run(g: Iterable[Labmove]) -> Run:
    """Same moves, every label flipped."""
    return tuple(Labmove(lm.player.flip(), lm.move) for lm in g)


def format_run(g: Iterable[Labmove]) -> str:
    return "\n".join(f"{lm.player} {lm.move}" for lm in g)


def parse_run(text: str) -> Run:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, sep, move = line.partition(" ")
        if label not in ("T", "B") or not move:
            raise ValueError(f"line {lineno}: bad transcript line {line!r}")
        out.append(Labmove(Player(label), move))
    return tuple(out)


# ---------------------------------------------------------------------------
# move parsing
#
# Move strings are parsed game-directedly: the ambient connective decides how
# much prefix to consume.  A move that does not parse for its connective is
# illegal there, never an exception.

_BITS_RE = re.compile(r"([01]*)([.:])(.*)", re.DOTALL)
_CELL_RE = re.compile(r"(\d+);([01,]*)\.(.*)", re.DOTALL)


def split_indexed(move: str):
    """``"i.rest"`` with i in {1,2} -> (i, rest), else None."""
    if len(move) >= 2 and move[0] in "12" and move[1] == ".":
        return int(move[0]), move[2:]
    return None


@lru_cache(maxsize=1 << 16)
def split_thread(move: str):
    """``"w.rest"`` -> (w, rest); replicative ``"w:"`` -> (w, None); else None."""
    m = _BITS_RE.match(move)
    if m is None:
        return None
    w, sep, rest = m.groups()
    if sep == ":":
        return (w, None) if rest == "" else None
    return w, rest


@lru_cache(maxsize=1 << 16)
def split_cell(move: str, n_coords: int):
    """``"a;u1,...,un.rest"`` -> (a, coords, rest) with exactly n coordinates."""
    m = _CELL_RE.match(move)
    if m is None:
        return None
    a, coord_text, rest = int(m.group(1)), m.group(2), m.group(3)
    coords = tuple(coord_text.split(",")) if n_coords else ()
    if len(coords) != n_coords or any(c not in "01" for u in coords for c in u):
        return None
    return a, coords, rest


def join_cell(a: int, coords: Iterable[str], rest: str) -> str:
    return f"{a};{','.join(coords)}.{rest}"


# ---------------------------------------------------------------------------
# projections


def strip_prefix(g: Iterable[Labmove], a: str) -> Run:
    """Keep moves of the form a+beta, dropping the prefix a (labels kept)."""
    return tuple(
        Labmove(lm.player, lm.move[len(a):]) for lm in g if lm.move.startswith(a)
    )


def project_thread(g: Iterable[Labmove], x: InfBits) -> Run:
    """Keep moves ``u.beta`` whose address u is a prefix of x, dropping ``u.``."""
    out = []
    for lm in g:
        parsed = split_thread(lm.move)
        if parsed is None or parsed[1] is None:
            continue
        w, rest = parsed
        if x.startswith(w):
            out.append(Labmove(lm.player, rest))
    return tuple(out)


def project_cell(g: Iterable[Labmove], a: int, xs) -> Run:
    """Keep moves ``a;u1,...,un.beta`` with every uj a prefix of xs[j-1]."""
    xs = tuple(xs)
    out = []
    for lm in g:
        parsed = split_cell(lm.move, len(xs))
        if parsed is None:
            continue
        b, coords, rest = parsed
        if b == a and all(x.startswith(u) for u, x in zip(coords, xs)):
            out.append(Labmove(lm.player, rest))
    return tuple(out)


# ---------------------------------------------------------------------------
# thread classes
#
# For a finite set U of used finite addresses, the projection of a run onto an
# infinite x depends only on which members of U are prefixes of x.  So the
# "for all infinite x" quantifiers are decided over classes of addresses that
# project alike.  ``ThreadClasses`` keeps them live as a fold over the run,
# with one position per class, and has three consumers: legality keeps a body
# position per class (``LegalPosition``), thread promotion a play of its
# inner machine (``strategies.ThreadPromotion``), and the winner the
# projected run itself (``thread_projections``, ``cells_projections``).


class ThreadClasses:
    """The thread classes of a recurrence's run (one coordinate), or the
    joint coordinate classes of a cirquent's cell moves (n coordinates),
    with one live position per joint class.  Legality keeps a body position
    per class, ``strategies.ThreadPromotion`` a play of its inner machine,
    and the winner's projections a ``_Recording`` of the class's moves.

    Each coordinate keeps an antichain of class addresses covering every
    infinite address, starting from the empty one; the joint classes are
    the tuples of one class per coordinate.  A move at u that properly
    extends a class a splits a into the path siblings from a to u and u
    itself: a's position goes to u and each sibling gets a clone.  The move
    then lands in every class it meets: the class that holds u, or every
    class under u.  A class splits only where its threads' projections
    differ, so one position answers for all of its threads.
    """

    __slots__ = ("coords", "positions")

    def __init__(self, coords, positions):
        self.coords, self.positions = coords, positions

    @classmethod
    def empty(cls, body, n):
        """One class per coordinate, the empty address, holding ``body``."""
        return cls([{""} for _ in range(n)], {("",) * n: body})

    def absorb(self, coords, lm):
        for key in self._met(coords, split=True):
            self.positions[key].absorb(lm)

    def allows(self, coords, lm):
        return all(self.positions[key].allows(lm) for key in self._met(coords))

    def clone(self):
        return ThreadClasses([set(antichain) for antichain in self.coords],
                             {key: pos.clone() for key, pos in self.positions.items()})

    def _met(self, coords, split=False):
        """The joint classes whose threads pass through ``coords``; with
        ``split``, a class that holds a coordinate properly is split there
        first."""
        picks = []
        for j, u in enumerate(coords):
            antichain = self.coords[j]
            holder = next((u[:k] for k in range(len(u) + 1) if u[:k] in antichain), None)
            if holder is None:
                under, stack = [], [u]
                while stack:  # the classes are the leaves of a full binary tree
                    v = stack.pop()
                    if v in antichain:
                        under.append(v)
                    else:
                        stack += (v + "0", v + "1")
                picks.append(under)
            else:
                if split and holder != u:
                    self._split(j, holder, u)
                    holder = u
                picks.append((holder,))
        return itertools.product(*picks)

    def _split(self, j, a, u):
        new = [u[:k] + "10"[int(u[k])] for k in range(len(a), len(u))] + [u]
        antichain = self.coords[j]
        antichain.remove(a)
        antichain.update(new)
        rows = [(a,) if i == j else tuple(others) for i, others in enumerate(self.coords)]
        for key in itertools.product(*rows):
            pos = self.positions.pop(key)
            for b in new[:-1]:
                self.positions[key[:j] + (b,) + key[j + 1:]] = pos.clone()
            self.positions[key[:j] + (u,) + key[j + 1:]] = pos


class _Recording(list):
    """A class position that records the labmoves landing in its class."""

    absorb = list.append

    def clone(self):
        return _Recording(self)


def thread_projections(g: Iterable[Labmove]) -> list[Run]:
    """One projection per thread class of the run: together exactly the
    projections {g^x : x infinite}.  The ``ThreadClasses`` fold over the
    run, recording each class's moves."""
    classes = ThreadClasses.empty(_Recording(), 1)
    for lm in g:
        t = split_thread(lm.move)
        if t is not None and t[1] is not None:
            classes.absorb((t[0],), Labmove(lm.player, t[1]))
    return [tuple(rec) for rec in classes.positions.values()]


def cells_projections(
    g: Iterable[Labmove], cells: Iterable[int], n_coords: int
) -> dict[int, list[Run]]:
    """One projection of each listed cell per joint coordinate class of the
    run.  One ``ThreadClasses`` fold over the moves of every cell records
    (cell, labmove), so index i of every cell's list refers to the same
    joint coordinate class."""
    classes = ThreadClasses.empty(_Recording(), n_coords)
    for lm in g:
        p = split_cell(lm.move, n_coords)
        if p is not None:
            a, coords, rest = p
            classes.absorb(coords, (a, Labmove(lm.player, rest)))
    recs = list(classes.positions.values())
    return {a: [tuple(lm for b, lm in rec if b == a) for rec in recs] for a in cells}


# ---------------------------------------------------------------------------
# replication trees (the BT-structure of the tree-form recurrence)


class BTStructure:
    """A replication tree: the empty address plus both children of every
    replicated address.  It grows by ``replicate``.  A node is a leaf iff no
    node properly extends it, that is iff no replicated address has it as a
    prefix, so the tree also keeps the prefixes of the replicated addresses.
    This holds for any replications, on the tree or off it."""

    __slots__ = ("nodes", "_inner")

    def __init__(self):
        self.nodes = {""}
        self._inner: set[str] = set()  # the replicated addresses' prefixes

    def replicate(self, w: str) -> None:
        self.nodes.update((w + "0", w + "1"))
        inner = self._inner
        while w not in inner:  # inner is prefix-closed: stop at the first known
            inner.add(w)
            if not w:
                break
            w = w[:-1]

    def copy(self) -> "BTStructure":
        new = BTStructure()
        new.nodes, new._inner = set(self.nodes), set(self._inner)
        return new

    def is_node(self, w: str) -> bool:
        return w in self.nodes

    def is_leaf(self, w: str) -> bool:
        return w in self.nodes and w not in self._inner

    def leaves(self) -> tuple[str, ...]:
        """The leaves in shortlex order."""
        return tuple(sorted(self.nodes - self._inner, key=lambda w: (len(w), w)))

    def __eq__(self, other):
        return isinstance(other, BTStructure) and self.nodes == other.nodes

    __hash__ = None


def bt_structure(pos: Iterable[Labmove]) -> BTStructure:
    """The replication tree of the position's replicative moves ``w:``."""
    tree = BTStructure()
    for lm in pos:
        parsed = split_thread(lm.move)
        if parsed is not None and parsed[1] is None:
            tree.replicate(parsed[0])
    return tree


# ---------------------------------------------------------------------------
# atom games


@dataclass(frozen=True)
class FiniteAtomGame:
    """A concrete game on finite runs.

    ``legal(position, labmove)`` decides single-move legality (legality of a
    run is the conjunction over its prefixes).  The position may be the
    live list of labmoves, so ``legal`` must neither keep nor change it.
    ``winner(run)`` is total on finite legal runs and treats the run as
    final.  ``suggest(position)`` feeds candidate moves to random
    environments; it carries no promise of legality.
    """

    name: str
    legal: Callable[[Run, Labmove], bool]
    winner: Callable[[Run], Player]
    suggest: Callable[[Run], tuple[str, ...]] = lambda pos: ("0", "1", "2")
    position_free: bool = False  # True iff legal(pos, lm) never looks at pos

    def __repr__(self):
        return f"FiniteAtomGame({self.name!r})"


Interpretation = dict[str, FiniteAtomGame]

_NUMERAL = re.compile(r"[0-9]+")


def enumeration_game(loser_runs=None, name="enumeration") -> FiniteAtomGame:
    """Every decimal numeral is a legal move for both players at all times.

    The winner is BOT exactly on runs satisfying ``loser_runs`` (a predicate
    over runs); with no predicate, TOP wins every legal run.
    """
    pred = loser_runs or (lambda g: False)
    return FiniteAtomGame(
        name=name,
        legal=lambda pos, lm: _NUMERAL.fullmatch(lm.move) is not None,
        winner=lambda g: BOT if pred(g) else TOP,
        suggest=lambda pos: ("0", "1", "2", "3"),
        position_free=True,
    )


def sum_parity_game(odd_wins: bool = False) -> FiniteAtomGame:
    """Numerals only; TOP wins iff the sum of BOT's numerals has the given
    parity.  Depends only on the per-player subsequences, hence static."""

    def win(g: Run) -> Player:
        total = sum(int(lm.move) for lm in g if lm.player is BOT)
        return TOP if (total % 2 == 1) == odd_wins else BOT

    return FiniteAtomGame(
        name=f"sum-parity-{'odd' if odd_wins else 'even'}",
        legal=lambda pos, lm: _NUMERAL.fullmatch(lm.move) is not None,
        winner=win,
        suggest=lambda pos: ("0", "1", "2", "3"),
        position_free=True,
    )


def top_played_game(key: str = "0") -> FiniteAtomGame:
    """Numerals only; TOP wins iff it played ``key`` at least once.  Static."""
    return FiniteAtomGame(
        name=f"top-played-{key}",
        legal=lambda pos, lm: _NUMERAL.fullmatch(lm.move) is not None,
        winner=lambda g: TOP if any(lm == Labmove(TOP, key) for lm in g) else BOT,
        suggest=lambda pos: (key, "1", "2"),
        position_free=True,
    )


def last_mover_wins_game() -> FiniteAtomGame:
    """Any move is legal; the last mover wins, BOT by default.  Not static
    (timing sensitive); useful as an adversarial finite-horizon atom."""
    return FiniteAtomGame(
        name="last-mover-wins",
        legal=lambda pos, lm: True,
        winner=lambda g: g[-1].player if g else BOT,
        suggest=lambda pos: ("m", "n"),
        position_free=True,
    )


def first_numeral_parity_game() -> FiniteAtomGame:
    """Numerals only; TOP wins iff the first move is even (BOT wins empty)."""
    return FiniteAtomGame(
        name="first-numeral-parity",
        legal=lambda pos, lm: _NUMERAL.fullmatch(lm.move) is not None,
        winner=lambda g: TOP if g and int(g[0].move) % 2 == 0 else BOT,
        suggest=lambda pos: ("0", "1", "2", "3"),
        position_free=True,
    )


# ---------------------------------------------------------------------------
# game expressions


@dataclass(frozen=True)
class CirquentGame:
    """A cirquent read as a game (root-only node)."""

    cirquent: Cirquent


GameExpr = Formula | CirquentGame


def _atom_game(itp: Interpretation, name: str) -> FiniteAtomGame:
    try:
        return itp[name]
    except KeyError:
        raise KeyError(f"interpretation does not cover atom {name}") from None


# -- legality ---------------------------------------------------------------


def position_free(g: GameExpr, itp: Interpretation) -> bool:
    """True iff single-move legality in g never depends on the position.

    Holds for the prefix-addressed connectives over atoms whose games declare
    themselves position-free; the replication-tree recurrences are always
    positional (their moves must track the current tree).
    """
    return not _position(g, itp).stateful


class LegalPosition:
    """A live legality position of one game: a fold over a run that answers
    whether a labmove may extend it.

    ``absorb`` folds labmoves onto the position, legal or not; ``allows``
    asks about one more.  Every subgame has one node, and the nodes are the
    one legality matcher: ``&``/``|`` keep one sub-position per component,
    and a tree-form recurrence keeps its replication tree.  A recurrence or
    cirquent over a stateful body keeps one body position per thread or
    joint coordinate class (``ThreadClasses``), and allows a labmove iff
    every class its address meets does.  A position-free subgame keeps no
    state, and its node (``_Free``) answers each distinct labmove once.
    ``legal_extension`` and ``first_illegal`` are this fold.
    """

    def __init__(self, g: GameExpr, itp: Interpretation):
        self._node = _position(g, itp)

    def absorb(self, labmoves: Iterable[Labmove]) -> None:
        node = self._node
        if node.stateful:
            for lm in labmoves:
                node.absorb(lm)

    def allows(self, lm: Labmove) -> bool:
        return self._node.allows(lm)

    def tree(self, at: str = "") -> BTStructure | None:
        """The live replication tree of the tree-form recurrence at component
        prefix ``at`` (``"1.2."`` is the right part of the left part),
        reached from the root through ``&``/``|`` only; None if there is
        none."""
        node = self._node
        for i in at.split(".")[:-1]:
            if not isinstance(node, _ParPosition):
                return None
            node = node.subs[int(i) - 1]
        return getattr(node, "tree", None)


def legal_extension(g: GameExpr, itp: Interpretation, pos: Run, lm: Labmove) -> bool:
    """Is ``pos + lm`` still legal, given that ``pos`` is?

    The one-shot form of ``LegalPosition``: fold ``pos``, then ask about
    ``lm``.  Malformed move shapes answer False; that is the illegality
    signal.  Whole runs are judged by ``first_illegal``, the same fold.
    """
    position = LegalPosition(g, itp)
    position.absorb(pos)
    return position.allows(lm)


def _position(g: GameExpr, itp: Interpretation):
    """The empty position of g.  Every subgame gets the node of its
    connective, and each node decides from its children whether it is
    stateful; a position-free one is wrapped in ``_Free``."""
    match g:
        case Atom(name) | NegAtom(name):
            node = _AtomPosition(_atom_game(itp, name), isinstance(g, NegAtom), [])
        case And(l, r) | Or(l, r):
            node = _ParPosition((_position(l, itp), _position(r, itp)))
        case CRec(body) | CCoRec(body) | URec(body) | UCoRec(body):
            node = _RecPosition(None, None, _per_class(_position(body, itp), 1))
        case OldCRec(body) | OldCCoRec(body):
            node = _RecPosition(BOT if isinstance(g, OldCRec) else TOP, BTStructure(),
                                _per_class(_position(body, itp), 1))
        case CirquentGame(c):
            n = len(c.overgroups)
            node = _CirquentPosition(c, [_per_class(_position(f, itp), n)
                                         for f in c.oformulas])
        case _:
            raise TypeError(f"not a game expression: {g!r}")
    return node if node.stateful else _Free(node)


def _per_class(sub, n):
    """A stateful body's position per class; a free body needs only one."""
    return ThreadClasses.empty(sub, n) if sub.stateful else sub


class _Free:
    """A position-free node: its answers depend on the labmove alone, so
    ``node.allows`` is asked once per distinct labmove.  It keeps no state,
    and its clones are itself."""

    __slots__ = ("node", "seen")
    stateful = False

    def __init__(self, node):
        self.node, self.seen = node, {}

    def allows(self, lm):
        ok = self.seen.get(lm)
        if ok is None:
            ok = self.seen[lm] = self.node.allows(lm)
        return ok

    def clone(self):
        return self


class _AtomPosition:
    """An atom, or its negation: the run as the atom's game sees it.  It is
    stateful unless the game declares itself position-free."""

    __slots__ = ("game", "negated", "run", "stateful")

    def __init__(self, game, negated, run_):
        self.game, self.negated, self.run = game, negated, run_
        self.stateful = not game.position_free

    def absorb(self, lm):
        self.run.append(Labmove(lm.player.flip(), lm.move) if self.negated else lm)

    def allows(self, lm):
        if self.negated:
            lm = Labmove(lm.player.flip(), lm.move)
        return self.game.legal(self.run, lm)

    def clone(self):
        return _AtomPosition(self.game, self.negated, list(self.run))


class _ParPosition:
    """``&``/``|``: one sub-position per component, stateful if either is."""

    __slots__ = ("subs", "stateful")

    def __init__(self, subs):
        self.subs = subs
        self.stateful = subs[0].stateful or subs[1].stateful

    def absorb(self, lm):
        parsed = split_indexed(lm.move)
        if parsed is not None:
            sub = self.subs[parsed[0] - 1]
            if sub.stateful:
                sub.absorb(Labmove(lm.player, parsed[1]))

    def allows(self, lm):
        parsed = split_indexed(lm.move)
        if parsed is None:
            return False
        return self.subs[parsed[0] - 1].allows(Labmove(lm.player, parsed[1]))

    def clone(self):
        return _ParPosition(tuple(sub.clone() for sub in self.subs))


class _RecPosition:
    """A recurrence.  The tree-form ones keep their replication tree and
    allow a replication by ``replicator`` only, at a leaf.  ``body`` is the
    ``ThreadClasses`` of a stateful body, or a free body's one position.  It
    is stateful if it has a tree or its body is."""

    __slots__ = ("replicator", "tree", "body", "stateful")

    def __init__(self, replicator, tree, body):
        self.replicator, self.tree, self.body = replicator, tree, body
        self.stateful = tree is not None or isinstance(body, ThreadClasses)

    def absorb(self, lm):
        parsed = split_thread(lm.move)
        if parsed is None:
            return
        w, rest = parsed
        if rest is None:
            if self.tree is not None:
                self.tree.replicate(w)
        elif isinstance(self.body, ThreadClasses):
            self.body.absorb((w,), Labmove(lm.player, rest))

    def allows(self, lm):
        parsed = split_thread(lm.move)
        if parsed is None:
            return False
        w, rest = parsed
        tree = self.tree
        if rest is None:
            return tree is not None and lm.player is self.replicator and tree.is_leaf(w)
        if tree is not None and not tree.is_node(w):
            return False
        inner = Labmove(lm.player, rest)
        if isinstance(self.body, ThreadClasses):
            return self.body.allows((w,), inner)
        return self.body.allows(inner)

    def clone(self):
        tree = None if self.tree is None else self.tree.copy()
        return _RecPosition(self.replicator, tree, self.body.clone())


class _CirquentPosition:
    """A cirquent: per cell, the ``ThreadClasses`` of its moves for a
    stateful oformula, or a free oformula's one position.  It is stateful if
    any cell keeps classes."""

    __slots__ = ("c", "cells", "stateful")

    def __init__(self, c: Cirquent, cells):
        self.c, self.cells = c, cells
        self.stateful = any(isinstance(cell, ThreadClasses) for cell in cells)

    def absorb(self, lm):
        parsed = split_cell(lm.move, len(self.c.overgroups))
        if parsed is not None:
            a, coords, rest = parsed
            if 1 <= a <= len(self.cells) and isinstance(self.cells[a - 1], ThreadClasses):
                self.cells[a - 1].absorb(coords, Labmove(lm.player, rest))

    def allows(self, lm):
        c = self.c
        parsed = split_cell(lm.move, len(c.overgroups))
        if parsed is None:
            return False
        a, coords, rest = parsed
        if not 1 <= a <= len(c.oformulas):
            return False
        if any(u != "" and a not in og for u, og in zip(coords, c.overgroups)):
            return False
        cell, inner = self.cells[a - 1], Labmove(lm.player, rest)
        if isinstance(cell, ThreadClasses):
            return cell.allows(coords, inner)
        return cell.allows(inner)

    def clone(self):
        return _CirquentPosition(self.c, [cell.clone() for cell in self.cells])


def first_illegal(g: GameExpr, itp: Interpretation, run_: Run) -> int | None:
    """Index of the run's first illegal labmove, or None for a legal run.

    A run whose first offending move is labeled p is lost by p.  This is the
    ``LegalPosition`` fold over the run: it names the first labmove a fresh
    position does not allow, the first one ``legal_extension`` rejects after
    its prefix.  In a position-free game each distinct labmove is checked
    once.  The cost is linear in the run times the classes each move meets.
    """
    node = _position(g, itp)
    for i, lm in enumerate(run_):
        if not node.allows(lm):
            return i
        if node.stateful:
            node.absorb(lm)
    return None


def legal_run(g: GameExpr, itp: Interpretation, run_: Run) -> bool:
    """Whole-run legality: the ``first_illegal`` fold finds no offender."""
    return first_illegal(g, itp, run_) is None


# -- winner -----------------------------------------------------------------


def winner(g: GameExpr, itp: Interpretation, run_: Run) -> Player:
    """Winner of a finite run, treated as final.

    A run whose first offending move is labeled p is lost by p regardless of
    anything else; on legal runs the connectives are evaluated recursively,
    with thread quantifiers ranging over thread classes.
    """
    return adjudicate(g, itp, run_)[1]


def adjudicate(g: GameExpr, itp: Interpretation, run_: Run) -> tuple[bool, Player]:
    """(legality, winner) of a finite run.

    The ``first_illegal`` fold names the offender of an illegal run, which
    its opponent wins; a legal run is then evaluated by the winner clauses,
    which alone project the run onto thread and coordinate classes.
    """
    bad = first_illegal(g, itp, run_)
    if bad is not None:
        return False, run_[bad].player.flip()
    return True, _winner_legal(g, itp, run_, {})


def _winner_legal(g: GameExpr, itp: Interpretation, run_: Run, memo: dict) -> Player:
    """Winner of a legal run.  Distinct thread and coordinate classes often
    project to the same run, so results are memoised in ``memo`` per
    (sub-expression, projected run); the winner is a pure function of both."""
    key = (g, run_)
    who = memo.get(key)
    if who is None:
        who = memo[key] = _winner_node(g, itp, run_, memo)
    return who


def _winner_node(g: GameExpr, itp: Interpretation, run_: Run, memo: dict) -> Player:
    match g:
        case Atom(name):
            return _atom_game(itp, name).winner(run_)
        case NegAtom(name):
            return _atom_game(itp, name).winner(negate_run(run_)).flip()
        case And(l, r):
            if (
                _winner_legal(l, itp, strip_prefix(run_, "1."), memo) is TOP
                and _winner_legal(r, itp, strip_prefix(run_, "2."), memo) is TOP
            ):
                return TOP
            return BOT
        case Or(l, r):
            if (
                _winner_legal(l, itp, strip_prefix(run_, "1."), memo) is TOP
                or _winner_legal(r, itp, strip_prefix(run_, "2."), memo) is TOP
            ):
                return TOP
            return BOT
        case CRec(body) | URec(body) | OldCRec(body):
            ok = all(
                _winner_legal(body, itp, sub, memo) is TOP
                for sub in thread_projections(run_)
            )
            return TOP if ok else BOT
        case CCoRec(body) | UCoRec(body) | OldCCoRec(body):
            ok = any(
                _winner_legal(body, itp, sub, memo) is TOP
                for sub in thread_projections(run_)
            )
            return TOP if ok else BOT
        case CirquentGame(c):
            cells = cells_projections(run_, range(1, len(c.oformulas) + 1),
                                      len(c.overgroups))
            # cell winners per joint coordinate class; class i of every cell
            # refers to the same coordinate tuple
            cell_won = {
                a: [_winner_legal(c.oformulas[a - 1], itp, sub, memo) is TOP
                    for sub in subs]
                for a, subs in cells.items()
            }
            n_classes = len(next(iter(cell_won.values())))
            for under in c.undergroups:
                for i in range(n_classes):
                    if not any(cell_won[a][i] for a in under):
                        return BOT
            return TOP
    raise TypeError(f"not a game expression: {g!r}")


# ---------------------------------------------------------------------------
# delays


def is_delay(omega: Run, gamma: Run, p: Player) -> bool:
    """Is ``omega`` a p-delay of ``gamma``?

    Both runs must agree on each player's subsequence of moves, and every
    "p moved after the opponent" ordering fact of gamma must persist in omega.
    """
    q = p.flip()

    def positions(g: Run, who: Player):
        return [i for i, lm in enumerate(g) if lm.player is who]

    def moves(g: Run, who: Player):
        return [g[i].move for i in positions(g, who)]

    if moves(omega, p) != moves(gamma, p) or moves(omega, q) != moves(gamma, q):
        return False
    gp, gq = positions(gamma, p), positions(gamma, q)
    op, oq = positions(omega, p), positions(omega, q)
    for n, gpos in enumerate(gp):
        for k, qpos in enumerate(gq):
            if gpos > qpos and not op[n] > oq[k]:
                return False
    return True
