"""Command-line interface.

Exit codes: 0 for accept/win, 1 for reject/loss, 2 for usage or input errors.
All reports are deterministic given the inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bits, calculus, kernel, machines, strategies, syntax


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# interpretation spec files
#
# One atom per line: "<ATOM> <template> [arg ...]".  Blank lines and #
# comments are skipped.

_TEMPLATES = {
    "enumeration": lambda args: kernel.enumeration_game(),
    "sum-parity": lambda args: kernel.sum_parity_game(odd_wins=(args == ["odd"])),
    "top-played": lambda args: kernel.top_played_game(args[0] if args else "0"),
    "last-mover-wins": lambda args: kernel.last_mover_wins_game(),
    "first-numeral-parity": lambda args: kernel.first_numeral_parity_game(),
}


def parse_interpretation(text: str) -> kernel.Interpretation:
    itp: kernel.Interpretation = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise CliError(f"line {lineno}: expected '<ATOM> <template> [args]'")
        atom, template, args = parts[0], parts[1], parts[2:]
        if template not in _TEMPLATES:
            raise CliError(
                f"line {lineno}: unknown template {template!r}; "
                f"have {', '.join(sorted(_TEMPLATES))}"
            )
        itp[atom] = _TEMPLATES[template](args)
    if not itp:
        raise CliError("empty interpretation spec")
    return itp


def _atom_names(game: kernel.GameExpr) -> list[str]:
    names = syntax.atoms_of(game) if not isinstance(game, kernel.CirquentGame) else frozenset(
        n for f in game.cirquent.oformulas for n in syntax.atoms_of(f)
    )
    return sorted(names)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e


def _load_interp(path: str | None, game) -> kernel.Interpretation:
    if path is None:
        return {name: kernel.enumeration_game() for name in _atom_names(game)}
    itp = parse_interpretation(_read(path))
    missing = [name for name in _atom_names(game) if name not in itp]
    if missing:
        raise CliError(f"{path}: interpretation does not cover atom {', '.join(missing)}")
    return itp


def _load_game(spec: str) -> kernel.GameExpr:
    try:
        return syntax.parse_formula(spec)
    except syntax.SyntaxError_ as e:
        raise CliError(f"bad formula {spec!r}: {e}") from e


# ---------------------------------------------------------------------------
# commands


def cmd_check_cirquent(args) -> int:
    try:
        c = syntax.parse_cirquent(_read(args.file))
    except syntax.FileFormatError as e:
        print(f"error: {e}")
        return 2
    bad = syntax.validate_cirquent(c)
    if bad:
        print(f"reject: {bad}")
        return 1
    print(f"ok: {len(c.oformulas)} oformulas, "
          f"{len(c.undergroups)} undergroups, {len(c.overgroups)} overgroups")
    return 0


def _load_proof(path: str) -> calculus.Proof:
    try:
        return calculus.parse_proof(_read(path))
    except (syntax.FileFormatError, calculus.RuleError, syntax.SyntaxError_) as e:
        raise CliError(str(e)) from e


def cmd_check_proof(args) -> int:
    proof = _load_proof(args.file)
    bad = calculus.check_proof(proof)
    if bad:
        print(f"reject: step {bad[0]}: {bad[1]}")
        return 1
    print(f"ok: {len(proof.steps)} steps, conclusion "
          f"{syntax.serialize_formula(proof.conclusion.oformulas[0]) if len(proof.conclusion.oformulas) == 1 else f'{len(proof.conclusion.oformulas)} oformulas'}")
    return 0


def cmd_synthesize(args) -> int:
    proof = _load_proof(args.file)
    bad = calculus.check_proof(proof)
    if bad:
        print(f"reject: step {bad[0]}: {bad[1]}")
        return 1
    strategies.synthesize(proof)  # raises on any defect
    out = Path(args.out)
    out.write_text(calculus.serialize_proof(proof))
    print(f"ok: strategy for {len(proof.steps)}-step proof written to {out}")
    return 0


def _load_strategy(spec: str):
    """A catalog name, or a path to a proof file (synthesized on the fly)."""
    if spec in strategies.CATALOG:
        return strategies.catalog_machine(spec), strategies.catalog_game(spec)
    proof = _load_proof(spec)
    bad = calculus.check_proof(proof)
    if bad:
        raise CliError(f"{spec}: step {bad[0]}: {bad[1]}")
    c = proof.conclusion
    if len(c.oformulas) == 1 and c.undergroups == ({1},) and c.overgroups == ({1},):
        return strategies.synthesize_formula(proof), c.oformulas[0]
    return strategies.synthesize(proof), kernel.CirquentGame(c)


def _load_environment(spec: str, game, itp):
    if spec.startswith("random:"):
        seed = spec.split(":", 1)[1]
        if not seed.lstrip("-").isdigit():
            raise CliError(f"bad seed in {spec!r}")
        return machines.random_legal_environment(int(seed), game, itp)
    script = []
    for lineno, raw in enumerate(_read(spec).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        grant, sep, move = line.partition(" ")
        if not grant.isdigit() or not move:
            raise CliError(f"{spec}:{lineno}: expected '<grant-number> <move>'")
        script.append((int(grant), move))
    return machines.scripted_environment(script)


def cmd_simulate(args) -> int:
    machine, default_game = _load_strategy(args.strategy)
    game = _load_game(args.game) if args.game else default_game
    itp = _load_interp(args.interp, game)
    env = _load_environment(args.env, game, itp)
    cfg = machines.SimConfig(horizon=args.horizon)
    result = machines.simulate(machine, env, cfg)
    print("run:")
    if result.run:
        print(result.transcript())
    print("trace:")
    if result.trace:
        print(result.trace_lines())
    legal, who = kernel.adjudicate(game, itp, result.run)
    print(f"legal: {'yes' if legal else 'no'}")
    print(f"winner: {who}")
    return 0 if who is kernel.TOP else 1


def _parse_thread_spec(spec: str) -> bits.InfBits:
    try:
        return bits.InfBits.parse(spec)
    except bits.BitsError as e:
        raise CliError(str(e)) from e


def cmd_project(args) -> int:
    run_ = kernel.parse_run(_read(args.file))
    if (args.thread is None) == (args.cell is None):
        raise CliError("exactly one of --thread/--cell is required")
    if args.thread is not None:
        out = kernel.project_thread(run_, _parse_thread_spec(args.thread))
    else:
        head, sep, tail = args.cell.partition(";")
        if sep != ";" or not head.isdigit():
            raise CliError("--cell wants '<a>;<x1>,<x2>,...'")
        xs = [_parse_thread_spec(x) for x in tail.split(",")] if tail else []
        out = kernel.project_cell(run_, int(head), xs)
    print(kernel.format_run(out))
    return 0


def cmd_fuse(args) -> int:
    ws = [bits.parse_bits(w) for w in args.bits]
    out = bits.fusions(ws)
    print(" ".join(bits.format_bits(z) for z in out))
    return 0


def cmd_defuse(args) -> int:
    parts = bits.defusion(bits.parse_bits(args.bits), args.n)
    print(" ".join(bits.format_bits(p) for p in parts))
    return 0


def cmd_winner(args) -> int:
    run_ = kernel.parse_run(_read(args.file))
    game = _load_game(args.game)
    itp = _load_interp(args.interp, game)
    who = kernel.winner(game, itp, run_)
    print(f"winner: {who}")
    return 0 if who is kernel.TOP else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="colog", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check-cirquent", help="validate a cirquent file")
    q.add_argument("file")
    q.set_defaults(fn=cmd_check_cirquent)

    q = sub.add_parser("check-proof", help="check a proof file")
    q.add_argument("file")
    q.set_defaults(fn=cmd_check_proof)

    q = sub.add_parser("synthesize", help="check a proof and write its strategy descriptor")
    q.add_argument("file")
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_synthesize)

    q = sub.add_parser("simulate", help="play a strategy against an environment")
    q.add_argument("--strategy", required=True, help="catalog name or proof file")
    q.add_argument("--env", required=True, help="script file or random:<seed>")
    q.add_argument("--game", help="formula (defaults to the strategy's own game)")
    q.add_argument("--interp", help="interpretation spec file (default: enumeration atoms)")
    q.add_argument("--horizon", type=int, default=200)
    q.set_defaults(fn=cmd_simulate)

    q = sub.add_parser("project", help="project a run transcript")
    q.add_argument("file")
    q.add_argument("--thread", help="infinite bitstring, e.g. 111:1*")
    q.add_argument("--cell", help="cell spec '<a>;<x1>,<x2>,...'")
    q.set_defaults(fn=cmd_project)

    q = sub.add_parser("fuse", help="all fusions of finite bitstrings")
    q.add_argument("bits", nargs="+")
    q.set_defaults(fn=cmd_fuse)

    q = sub.add_parser("defuse", help="n-defusion of a finite bitstring")
    q.add_argument("bits")
    q.add_argument("n", type=int)
    q.set_defaults(fn=cmd_defuse)

    q = sub.add_parser("winner", help="winner of a recorded run")
    q.add_argument("file")
    q.add_argument("--game", required=True)
    q.add_argument("--interp")
    q.set_defaults(fn=cmd_winner)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
    except (CliError, bits.BitsError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
