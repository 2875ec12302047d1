"""Reference definitions the tests compare the kernel against.

They are the direct readings of the definitions: thread classes by their
eventually-zero representatives, projections per representative, legality
of one more move by projecting the whole position onto every class below
its address, replication-tree leaves by comparing every pair of nodes,
thread promotion by rescanning the history and replaying a fresh inner
machine per class.  They are slow, and nothing in colog calls them.
"""

from __future__ import annotations

from colog.bits import ZEROS, InfBits, zeros
from colog.kernel import (
    BOT,
    TOP,
    CirquentGame,
    Labmove,
    _atom_game,
    _legal_single,
    bt_structure,
    cells_projections,
    class_addresses,
    negate_run,
    project_cell,
    project_thread,
    split_cell,
    split_indexed,
    split_thread,
    strip_prefix,
)
from colog.machines import _Play
from colog.syntax import (
    And,
    Atom,
    CCoRec,
    CRec,
    NegAtom,
    OldCCoRec,
    OldCRec,
    Or,
    UCoRec,
    URec,
)


def class_reps(used, below=""):
    """Eventually-zero representatives, one per class of ``class_addresses``."""
    return tuple(InfBits(a, ZEROS) for a in class_addresses(used, below))


def used_thread_prefixes(g):
    out = []
    for lm in g:
        parsed = split_thread(lm.move)
        if parsed is not None and parsed[1] is not None:
            out.append(parsed[0])
    return tuple(out)


def thread_class_reps(g, n_coords=None):
    """Thread-class representatives of a run.

    With ``n_coords=None`` the run is read at a recurrence node (moves
    ``w.beta``) and a tuple of InfBits is returned.  With an integer the run
    is read at a cirquent root (moves ``a;u1,...,un.beta``) and a tuple of
    n-tuples (the per-coordinate cross product) is returned.
    """
    g = tuple(g)
    if n_coords is None:
        return class_reps(used_thread_prefixes(g))
    per_coord = [[] for _ in range(n_coords)]
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


def cell_projections(g, a, n_coords):
    """One projection of cell ``a`` per joint coordinate class of the run."""
    return cells_projections(g, (a,), n_coords)[a]


def leaves_all_pairs(tree):
    """Nodes with no proper extension among the nodes, in shortlex order."""
    out = [u for u in tree.nodes
           if not any(v != u and v.startswith(u) for v in tree.nodes)]
    return tuple(sorted(out, key=lambda w: (len(w), w)))


def leaf_prefix_of(tree, w):
    """The unique leaf of the tree that is a prefix of w, if any."""
    for u in tree.leaves():
        if w.startswith(u):
            return u
    return None


def position_free_by_structure(g, itp):
    """Single-move legality never reads the position: every atom below
    declares itself position-free, and there is no tree-form recurrence."""
    match g:
        case Atom(name) | NegAtom(name):
            return _atom_game(itp, name).position_free
        case And(l, r) | Or(l, r):
            return position_free_by_structure(l, itp) and position_free_by_structure(r, itp)
        case CRec(body) | CCoRec(body) | URec(body) | UCoRec(body):
            return position_free_by_structure(body, itp)
        case OldCRec(_) | OldCCoRec(_):
            return False
        case CirquentGame(c):
            return all(position_free_by_structure(f, itp) for f in c.oformulas)
    raise TypeError(f"not a game expression: {g!r}")


def legal_extension_by_projection(g, itp, pos, lm):
    """Is ``pos + lm`` still legal?  Each node below a positional one is
    asked about the projection of the whole position onto every class below
    the move's address."""
    if position_free_by_structure(g, itp):
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
            return legal_extension_by_projection(
                sub, itp, strip_prefix(pos, f"{i}."), Labmove(lm.player, rest))
        case CRec(body) | CCoRec(body) | URec(body) | UCoRec(body):
            parsed = split_thread(lm.move)
            if parsed is None or parsed[1] is None:
                return False
            w, rest = parsed
            inner = Labmove(lm.player, rest)
            return all(
                legal_extension_by_projection(body, itp, project_thread(pos, x), inner)
                for x in class_reps(used_thread_prefixes(pos), below=w))
        case OldCRec(body) | OldCCoRec(body):
            parsed = split_thread(lm.move)
            if parsed is None:
                return False
            w, rest = parsed
            tree = bt_structure(pos)
            if rest is None:
                replicator = BOT if isinstance(g, OldCRec) else TOP
                return lm.player is replicator and w in leaves_all_pairs(tree)
            if not tree.is_node(w):
                return False
            inner = Labmove(lm.player, rest)
            return all(
                legal_extension_by_projection(body, itp, project_thread(pos, x), inner)
                for x in class_reps(used_thread_prefixes(pos), below=w))
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
                used = [p[1][j - 1] for p in (split_cell(prev.move, n) for prev in pos)
                        if p is not None]
                pools.append(class_reps(used, below=u))
            tuples = [()]
            for pool in pools:
                tuples = [t + (x,) for t in tuples for x in pool]
            return all(
                legal_extension_by_projection(
                    c.oformulas[a - 1], itp, project_cell(pos, a, xs), inner)
                for xs in tuples)
    raise TypeError(f"not a game expression: {g!r}")


def promotion_partition(history):
    """The classes of a thread promotion's history, in emission order: the
    coarsest antichain of addresses with constant projections, split by the
    adversary's addresses only.  Each node of the prefix closure of those
    addresses, in shortlex order, gives itself if it is a deepest one, else
    its children outside the closure."""
    closure = {""}
    for lm in history:
        if lm.player is BOT:
            t = split_thread(lm.move)
            if t is not None and t[1] is not None:
                w = t[0]
                for k in range(len(w) + 1):
                    closure.add(w[:k])
    out = []
    for u in sorted(closure, key=lambda w: (len(w), w)):
        missing = [u + b for b in "01" if u + b not in closure]
        out.extend([u] if len(missing) == 2 else missing)
    return out


def promotion_by_rescan(inner, history):
    """A thread promotion's answer to a history: per class of
    ``promotion_partition``, a fresh copy of ``inner`` replayed over the
    projection onto the class's address + 000..., its unused moves
    addressed at the class."""
    out = []
    for addr in promotion_partition(history):
        play = _Play(inner.fresh())
        play.drain()
        for lm in project_thread(history, zeros(addr)):
            if lm.player is BOT:
                play.tape.append(lm)
                play.drain()
            elif play.used < len(play.moves) and play.moves[play.used] == lm.move:
                play.used += 1
            else:
                raise RuntimeError("promotion thread out of sync")
        out.extend(f"{addr}.{mv}" for mv in play.moves[play.used:])
    return tuple(out)
