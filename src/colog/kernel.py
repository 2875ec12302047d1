"""Runs, projections, and desk-scale game evaluation.

A run is a finite sequence of labeled moves.  A game expression is a formula
tree (optionally rooted at a cirquent) evaluated against an interpretation
that maps atoms to concrete finite games.  Legality is checked move by move;
the winner of a finite run is computed by treating the run as completed.

The "for all infinite bitstrings" quantifiers in the recurrence and cirquent
winner clauses are decided over a finite set of thread-class representatives:
two infinite addresses that select the same used move prefixes have identical
projections, so one eventually-zero representative per class suffices on a
finite run.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .bits import InfBits, ZEROS
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

    def flip(self) -> "Player":
        return Player.BOT if self is Player.TOP else Player.TOP

    def __str__(self) -> str:
        return self.value


TOP = Player.TOP
BOT = Player.BOT


class Labmove(NamedTuple):
    player: Player
    move: str


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
# infinite x depends only on which members of U are prefixes of x.  Walking
# the prefix closure of U along x ends at some u with the next step u+b
# outside the closure; u+b+000... is the canonical representative of x's
# class, and the class is exactly {x : u+b prefix of x}.


def class_addresses(used: Iterable[str], below: str = "") -> tuple[str, ...]:
    """Defining prefixes of the projection classes of addresses extending
    ``below``: an antichain of finite addresses, one per class, such that the
    class of an infinite x is exactly {x : address is a prefix of x}."""
    closure = {below}
    for u in used:
        if u.startswith(below):
            for k in range(len(below), len(u) + 1):
                closure.add(u[:k])
    if closure == {below}:
        return (below,)
    out = []
    for u in sorted(closure, key=lambda w: (len(w), w)):
        for b in "01":
            if u + b not in closure:
                out.append(u + b)
    return tuple(out)


def class_reps(used: Iterable[str], below: str = "") -> tuple[InfBits, ...]:
    """Eventually-zero representatives, one per class of ``class_addresses``."""
    return tuple(InfBits(a, ZEROS) for a in class_addresses(used, below))


def used_thread_prefixes(g: Iterable[Labmove]) -> tuple[str, ...]:
    out = []
    for lm in g:
        parsed = split_thread(lm.move)
        if parsed is not None and parsed[1] is not None:
            out.append(parsed[0])
    return tuple(out)


def thread_projections(g: Iterable[Labmove]) -> list[Run]:
    """One projection per thread class of the run, parsing each move once.

    Covers exactly the projections {g^x : x infinite}, like projecting onto
    every member of class_reps(used addresses).
    """
    parsed = []
    used = []
    for lm in g:
        t = split_thread(lm.move)
        if t is None or t[1] is None:
            continue
        parsed.append((t[0], Labmove(lm.player, t[1])))
        used.append(t[0])
    # every used address lies in the prefix closure that class_addresses
    # builds, so none extends a class address: the class of addr selects a
    # move exactly when the move's address is a prefix of addr
    return [
        tuple(stripped for w, stripped in parsed if addr.startswith(w))
        for addr in class_addresses(used)
    ]


def cells_projections(
    g: Iterable[Labmove], cells: Iterable[int], n_coords: int
) -> dict[int, list[Run]]:
    """``cell_projections`` of every listed cell, parsing the run and building
    the coordinate classes once.  Index i of every cell's list refers to the
    same joint coordinate class."""
    per_coord: list[set[str]] = [set() for _ in range(n_coords)]
    parsed: dict[int, list] = {a: [] for a in cells}
    for lm in g:
        p = split_cell(lm.move, n_coords)
        if p is None:
            continue
        b, coords, rest = p
        for j, u in enumerate(coords):
            per_coord[j].add(u)
        if b in parsed:
            parsed[b].append((coords, Labmove(lm.player, rest)))
    # a class selects a move by its coordinate tuple alone, and distinct
    # tuples are far fewer than moves; classes selecting the same tuples
    # share their projections
    used = {coords for moves in parsed.values() for coords, _ in moves}
    shared: dict[frozenset, list[Run]] = {}
    out: dict[int, list[Run]] = {a: [] for a in parsed}
    for xs in itertools.product(*(class_addresses(us) for us in per_coord)):
        picked = frozenset(
            coords for coords in used
            if all(addr.startswith(u) for u, addr in zip(coords, xs))
        )
        projs = shared.get(picked)
        if projs is None:
            projs = shared[picked] = [
                tuple(lm for coords, lm in moves if coords in picked)
                for moves in parsed.values()
            ]
        for subs, proj in zip(out.values(), projs):
            subs.append(proj)
    return out


def cell_projections(g: Iterable[Labmove], a: int, n_coords: int) -> list[Run]:
    """One projection of cell ``a`` per joint coordinate class of the run."""
    return cells_projections(g, (a,), n_coords)[a]


def thread_class_reps(g: Iterable[Labmove], n_coords: int | None = None):
    """Thread-class representatives of a run.

    With ``n_coords=None`` the run is read at a recurrence node (moves
    ``w.beta``) and a tuple of InfBits is returned.  With an integer the run
    is read at a cirquent root (moves ``a;u1,...,un.beta``) and a tuple of
    n-tuples (the per-coordinate cross product) is returned.
    """
    g = tuple(g)
    if n_coords is None:
        return class_reps(used_thread_prefixes(g))
    per_coord: list[list[str]] = [[] for _ in range(n_coords)]
    for lm in g:
        parsed = split_cell(lm.move, n_coords)
        if parsed is None:
            continue
        for j, u in enumerate(parsed[1]):
            per_coord[j].append(u)
    pools = [class_reps(us) for us in per_coord]
    out = [()]
    for pool in pools:
        out = [t + (x,) for t in out for x in pool]
    return tuple(out)


# ---------------------------------------------------------------------------
# replication trees (the BT-structure of the tree-form recurrence)


@dataclass(frozen=True)
class BTStructure:
    nodes: frozenset[str]

    def is_node(self, w: str) -> bool:
        return w in self.nodes

    def leaves(self) -> tuple[str, ...]:
        out = [
            u
            for u in self.nodes
            if not any(v != u and v.startswith(u) for v in self.nodes)
        ]
        return tuple(sorted(out, key=lambda w: (len(w), w)))

    def leaf_prefix_of(self, w: str) -> str | None:
        """The unique leaf that is a prefix of w, if any."""
        for u in self.leaves():
            if w.startswith(u):
                return u
        return None


def bt_structure(pos: Iterable[Labmove]) -> BTStructure:
    """Nodes: the empty address plus both children of every replicated address."""
    nodes = {""}
    for lm in pos:
        parsed = split_thread(lm.move)
        if parsed is not None and parsed[1] is None:
            w = parsed[0]
            nodes.add(w + "0")
            nodes.add(w + "1")
    return BTStructure(frozenset(nodes))


# ---------------------------------------------------------------------------
# atom games


@dataclass(frozen=True)
class FiniteAtomGame:
    """A concrete game on finite runs.

    ``legal(position, labmove)`` decides single-move legality (legality of a
    run is the conjunction over its prefixes).  ``winner(run)`` is total on
    finite legal runs and treats the run as final.  ``suggest(position)``
    feeds candidate moves to random environments; it carries no promise of
    legality.
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
    match g:
        case Atom(name) | NegAtom(name):
            return _atom_game(itp, name).position_free
        case And(l, r) | Or(l, r):
            return position_free(l, itp) and position_free(r, itp)
        case CRec(body) | CCoRec(body) | URec(body) | UCoRec(body):
            return position_free(body, itp)
        case OldCRec(_) | OldCCoRec(_):
            return False
        case CirquentGame(c):
            return all(position_free(f, itp) for f in c.oformulas)
    raise TypeError(f"not a game expression: {g!r}")


def _legal_single(g: GameExpr, itp: Interpretation, lm: Labmove) -> bool:
    """Single-move legality for position-free games (position irrelevant)."""
    match g:
        case Atom(name):
            return _atom_game(itp, name).legal((), lm)
        case NegAtom(name):
            return _atom_game(itp, name).legal((), Labmove(lm.player.flip(), lm.move))
        case And(l, r) | Or(l, r):
            parsed = split_indexed(lm.move)
            if parsed is None:
                return False
            i, rest = parsed
            return _legal_single(l if i == 1 else r, itp, Labmove(lm.player, rest))
        case CRec(body) | CCoRec(body) | URec(body) | UCoRec(body):
            parsed = split_thread(lm.move)
            if parsed is None or parsed[1] is None:
                return False
            return _legal_single(body, itp, Labmove(lm.player, parsed[1]))
        case CirquentGame(c):
            parsed = split_cell(lm.move, len(c.overgroups))
            if parsed is None:
                return False
            a, coords, rest = parsed
            if not 1 <= a <= len(c.oformulas):
                return False
            for j, u in enumerate(coords, start=1):
                if a not in c.overgroups[j - 1] and u != "":
                    return False
            return _legal_single(c.oformulas[a - 1], itp, Labmove(lm.player, rest))
    raise TypeError(f"not a game expression: {g!r}")


def legal_extension(g: GameExpr, itp: Interpretation, pos: Run, lm: Labmove) -> bool:
    """Is ``pos + lm`` still legal, given that ``pos`` is?

    Malformed move shapes answer False; that is the illegality signal.  The
    random environment filters its candidate moves with it; whole runs are
    judged by ``first_illegal``.
    """
    if position_free(g, itp):
        return _legal_single(g, itp, lm)
    match g:
        case Atom(name):
            return _atom_game(itp, name).legal(pos, lm)
        case NegAtom(name):
            return _atom_game(itp, name).legal(
                negate_run(pos), Labmove(lm.player.flip(), lm.move)
            )
        case And(l, r) | Or(l, r):
            parsed = split_indexed(lm.move)
            if parsed is None:
                return False
            i, rest = parsed
            sub = l if i == 1 else r
            return legal_extension(sub, itp, strip_prefix(pos, f"{i}."), Labmove(lm.player, rest))
        case CRec(body) | CCoRec(body) | URec(body) | UCoRec(body):
            parsed = split_thread(lm.move)
            if parsed is None or parsed[1] is None:
                return False
            w, rest = parsed
            inner = Labmove(lm.player, rest)
            for x in class_reps(used_thread_prefixes(pos), below=w):
                if not legal_extension(body, itp, project_thread(pos, x), inner):
                    return False
            return True
        case OldCRec(body) | OldCCoRec(body):
            parsed = split_thread(lm.move)
            if parsed is None:
                return False
            w, rest = parsed
            tree = bt_structure(pos)
            if rest is None:
                replicator = BOT if isinstance(g, OldCRec) else TOP
                return lm.player is replicator and w in tree.leaves()
            if not tree.is_node(w):
                return False
            inner = Labmove(lm.player, rest)
            for x in class_reps(used_thread_prefixes(pos), below=w):
                if not legal_extension(body, itp, project_thread(pos, x), inner):
                    return False
            return True
        case CirquentGame(c):
            n = len(c.overgroups)
            parsed = split_cell(lm.move, n)
            if parsed is None:
                return False
            a, coords, rest = parsed
            if not 1 <= a <= len(c.oformulas):
                return False
            for j, u in enumerate(coords, start=1):
                if a not in c.overgroups[j - 1] and u != "":
                    return False
            inner = Labmove(lm.player, rest)
            pools = []
            for j, u in enumerate(coords, start=1):
                used = [
                    p[1][j - 1]
                    for p in (split_cell(prev.move, n) for prev in pos)
                    if p is not None
                ]
                pools.append(class_reps(used, below=u))
            tuples = [()]
            for pool in pools:
                tuples = [t + (x,) for t in tuples for x in pool]
            for xs in tuples:
                if not legal_extension(
                    c.oformulas[a - 1], itp, project_cell(pos, a, xs), inner
                ):
                    return False
            return True
    raise TypeError(f"not a game expression: {g!r}")


def first_illegal(g: GameExpr, itp: Interpretation, run_: Run) -> int | None:
    """Index of the run's first illegal labmove, or None for a legal run.

    A run whose first offending move is labeled p is lost by p, and this
    names that move in one pass over the run.  A node's answer is the
    earliest of its own first structural fault (a malformed move, a component
    or oformula out of range, a coordinate outside an overgroup, a
    replication by the wrong player or off a leaf, an address off the
    replication tree) and the first fault of each projection onto a
    component, thread class or cell, mapped back to its index in the run.
    This equals the first prefix that ``legal_extension`` rejects, because
    the projections of a prefix are prefixes of the projections.  The cost is
    linear in the run times its classes.
    """
    if position_free(g, itp):
        # single-move legality depends on the labmove alone: check each once
        bad = {lm for lm in dict.fromkeys(run_) if not _legal_single(g, itp, lm)}
        return next((i for i, lm in enumerate(run_) if lm in bad), None) if bad else None
    match g:
        case Atom(name):
            game = _atom_game(itp, name)
            return next(
                (i for i in range(len(run_)) if not game.legal(run_[:i], run_[i])), None
            )
        case NegAtom(name):
            return first_illegal(Atom(name), itp, negate_run(run_))
        case And(l, r) | Or(l, r):
            end = _first(run_, lambda lm: split_indexed(lm.move) is None)
            return _first_in_parts(itp, run_, end, lambda h: [
                (l, strip_prefix(h, "1.")), (r, strip_prefix(h, "2."))])
        case CRec(body) | CCoRec(body) | URec(body) | UCoRec(body):
            end = _first(run_, lambda lm: (t := split_thread(lm.move)) is None or t[1] is None)
            return _first_in_parts(itp, run_, end, lambda h: [
                (body, sub) for sub in thread_projections(h)])
        case OldCRec(body) | OldCCoRec(body):
            replicator = BOT if isinstance(g, OldCRec) else TOP
            nodes = {""}

            def off_tree(lm):
                t = split_thread(lm.move)
                if t is None:
                    return True
                w, rest = t
                if rest is not None:
                    return w not in nodes
                # replicative: only the replicator, only at a current leaf
                if lm.player is not replicator or w not in nodes or (w + "0") in nodes:
                    return True
                nodes.update((w + "0", w + "1"))
                return False

            end = _first(run_, off_tree)
            return _first_in_parts(itp, run_, end, lambda h: [
                (body, sub) for sub in thread_projections(h)])
        case CirquentGame(c):
            n = len(c.overgroups)

            def malformed(lm):
                parsed = split_cell(lm.move, n)
                if parsed is None:
                    return True
                a, coords, _ = parsed
                return not 1 <= a <= len(c.oformulas) or any(
                    u != "" and a not in og for u, og in zip(coords, c.overgroups))

            end = _first(run_, malformed)
            return _first_in_parts(itp, run_, end, lambda h: [
                (c.oformulas[a - 1], sub)
                for a, subs in cells_projections(h, range(1, len(c.oformulas) + 1), n).items()
                for sub in subs])
    raise TypeError(f"not a game expression: {g!r}")


def _first(run_: Run, fault: Callable[[Labmove], bool]) -> int:
    """Index of the first labmove with the fault, or the run's length."""
    return next((i for i, lm in enumerate(run_) if fault(lm)), len(run_))


def _first_in_parts(
    itp: Interpretation, run_: Run, end: int, parts: Callable[[Run], list]
) -> int | None:
    """The earliest of ``end`` (a node's first structural fault, or the run's
    length) and the first fault of each part of ``run_[:end]``, as
    (sub-game, projected run) pairs from ``parts``; None if there is none.

    Projections copy labels unchanged, so projecting the run with each label
    replaced by its index names the run index of every projected move.
    """
    head = run_[:end]
    faults = [
        (c, k)
        for c, (sub_g, sub) in enumerate(parts(head))
        if (k := first_illegal(sub_g, itp, sub)) is not None
    ]
    if faults:
        where = parts(tuple(Labmove(i, lm.move) for i, lm in enumerate(head)))
        return min(where[c][1][k].player for c, k in faults)
    return end if end < len(run_) else None


def legal_run(g: GameExpr, itp: Interpretation, run_: Run) -> bool:
    """Whole-run legality: the one ``first_illegal`` pass, linear in the run
    times its classes, finds no offender."""
    return first_illegal(g, itp, run_) is None


# -- winner -----------------------------------------------------------------


def winner(g: GameExpr, itp: Interpretation, run_: Run) -> Player:
    """Winner of a finite run, treated as final.

    A run whose first offending move is labeled p is lost by p regardless of
    anything else; on legal runs the connectives are evaluated recursively,
    with thread quantifiers ranging over class representatives.
    """
    return adjudicate(g, itp, run_)[1]


def adjudicate(g: GameExpr, itp: Interpretation, run_: Run) -> tuple[bool, Player]:
    """(legality, winner) of a finite run.

    One ``first_illegal`` pass, linear in the run times its classes, names
    the offender of an illegal run, which its opponent wins; a legal run is
    then evaluated by the winner clauses.
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
