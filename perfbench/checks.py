"""Output checks written apart from colog: they read runs as plain
(player, move) pairs and never call colog's legality or projection code."""

from __future__ import annotations

from colog.syntax import And, CCoRec, CRec, OldCCoRec, OldCRec, Or, UCoRec, URec


def parse_report(text: str) -> dict:
    """Split a ``colog simulate`` report into its run, trace and verdict."""
    section = None
    out = {"run": [], "trace": [], "legal": None, "winner": None}
    for line in text.splitlines():
        if line in ("run:", "trace:"):
            section = line[:-1]
        elif line.startswith("legal: "):
            out["legal"], section = line[len("legal: "):], None
        elif line.startswith("winner: "):
            out["winner"], section = line[len("winner: "):], None
        elif section == "run":
            player, _, move = line.partition(" ")
            out["run"].append((player, move))
        elif section == "trace":
            out["trace"].append(line.split(" ", 2))
    return out


def trace_move_count(trace_rows) -> int:
    """Move events in trace lines ``<cycle> T|B <move>``; grants are
    ``<cycle> grant`` or ``<cycle> forced-grant``."""
    return sum(1 for row in trace_rows if len(row) == 3 and row[1] in ("T", "B"))


def _thread_of(move: str):
    """``w.rest`` -> (w, rest), ``w:`` -> (w, None), else None; w is a
    (possibly empty) bitstring."""
    i = 0
    while i < len(move) and move[i] in "01":
        i += 1
    if i == len(move):
        return None
    if move[i] == ":":
        return (move[:i], None) if i == len(move) - 1 else None
    if move[i] == ".":
        return move[:i], move[i + 1:]
    return None


def _thread_runs(run):
    """The run seen from one thread per used address u (the thread u000...):
    moves ``v.rest`` with v a prefix of that thread, relabelled ``rest``."""
    used = {""}
    parsed = []
    for player, move in run:
        t = _thread_of(move)
        if t is not None and t[1] is not None:
            used.add(t[0])
            parsed.append((t[0], player, t[1]))
    for u in sorted(used):
        yield [
            (player, rest) for v, player, rest in parsed
            if (u.startswith(v) if len(v) <= len(u)
                else v.startswith(u) and set(v[len(u):]) <= {"0"})
        ]


def tree_form_errors(f, run) -> list[str]:
    """Replications ``w:`` of every tree-form recurrence in ``f``: each must
    be played by the replicating player (the environment B under ``!o``, the
    machine T under ``?o``) at a leaf of the current replication tree, and
    every ``w.rest`` must address a node of that tree."""
    errors: list[str] = []
    if isinstance(f, (And, Or)):
        for i, sub in ((1, f.left), (2, f.right)):
            prefix = f"{i}."
            errors += tree_form_errors(
                sub, [(p, m[len(prefix):]) for p, m in run if m.startswith(prefix)])
    elif isinstance(f, (CRec, CCoRec, URec, UCoRec)):
        for thread in _thread_runs(run):
            errors += tree_form_errors(f.body, thread)
    elif isinstance(f, (OldCRec, OldCCoRec)):
        replicator = "B" if isinstance(f, OldCRec) else "T"
        leaves, nodes = {""}, {""}
        for k, (player, move) in enumerate(run):
            t = _thread_of(move)
            if t is None:
                errors.append(f"move {k} {move!r}: not a thread move")
            elif t[1] is None:
                if player != replicator:
                    errors.append(f"move {k} {move!r}: replicated by {player}")
                elif t[0] not in leaves:
                    errors.append(f"move {k} {move!r}: not at a current leaf")
                else:
                    leaves.remove(t[0])
                    for b in "01":
                        leaves.add(t[0] + b)
                        nodes.add(t[0] + b)
            elif t[0] not in nodes:
                errors.append(f"move {k} {move!r}: not a node of the tree")
        for thread in _thread_runs(run):
            errors += tree_form_errors(f.body, thread)
    return errors


def replications(run) -> int:
    """``w:`` moves anywhere in a run (a prefix chain ending in ``:``)."""
    return sum(1 for _, move in run if move.endswith(":"))
