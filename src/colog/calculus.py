"""The ten-rule cirquent calculus: rule instances, step checking, proofs.

Every rule other than Axiom relates a single premise to a conclusion.  The
checker is exact: for the rules most naturally read bottom-up (Weakening,
Contraction, the two introduction rules for each connective) it reconstructs
the unique premise determined by the conclusion and the rule parameters and
compares it structurally against the given premise; for the top-down rules
(Exchange, Duplication, Merging) it reconstructs the conclusion from the
premise.  All oformula and group positions are 1-based, matching the proof
file format and the move syntax.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    And,
    CCoRec,
    CRec,
    Cirquent,
    Formula,
    Or,
    RawProof,
    RawStep,
    clubsuit,
    negate,
    parse_proof_text,
    serialize_cirquent,
    serialize_formula,
    validate_cirquent,
)


class RuleError(ValueError):
    """A rule instance that cannot apply as annotated."""


@dataclass(frozen=True)
class Axiom:
    pass


@dataclass(frozen=True)
class Exchange:
    kind: str  # "oformula" | "undergroup" | "overgroup"
    at: int  # swaps positions at, at+1


@dataclass(frozen=True)
class Duplication:
    kind: str  # "undergroup" | "overgroup"
    at: int  # premise group duplicated into conclusion positions at, at+1


@dataclass(frozen=True)
class Merging:
    at: int  # premise overgroups at, at+1 merged into conclusion position at


@dataclass(frozen=True)
class Weakening:
    under: int  # conclusion undergroup losing an arc
    oformula: int  # the oformula at the deleted arc's other end


@dataclass(frozen=True)
class Contraction:
    oformula: int  # conclusion position of the contracted ?c oformula


@dataclass(frozen=True)
class OrIntro:
    oformula: int


@dataclass(frozen=True)
class AndIntro:
    oformula: int


@dataclass(frozen=True)
class RecIntro:
    oformula: int
    insert_at: int  # position of the fresh overgroup in the premise


@dataclass(frozen=True)
class CoRecIntro:
    oformula: int
    overgroups: frozenset[int]  # premise overgroups newly containing the body


RuleInstance = (
    Axiom
    | Exchange
    | Duplication
    | Merging
    | Weakening
    | Contraction
    | OrIntro
    | AndIntro
    | RecIntro
    | CoRecIntro
)


@dataclass(frozen=True)
class ProofStep:
    cirquent: Cirquent
    rule: RuleInstance


@dataclass(frozen=True)
class Proof:
    steps: tuple[ProofStep, ...]

    @property
    def conclusion(self) -> Cirquent:
        return self.steps[-1].cirquent


# ---------------------------------------------------------------------------
# index plumbing


def _shift_after_insert(group: frozenset[int], at: int) -> frozenset[int]:
    """Group indices after inserting a new oformula at position ``at``."""
    return frozenset(a + 1 if a >= at else a for a in group)


def _shift_after_delete(group: frozenset[int], at: int) -> frozenset[int]:
    return frozenset(a - 1 if a > at else a for a in group)


def _swap(group: frozenset[int], i: int) -> frozenset[int]:
    """Membership after interchanging positions i and i+1."""
    out = set()
    for a in group:
        if a == i:
            out.add(i + 1)
        elif a == i + 1:
            out.add(i)
        else:
            out.add(a)
    return frozenset(out)


def _replace(seq: tuple, at: int, items: tuple) -> tuple:
    return seq[: at - 1] + items + seq[at:]


def _check_range(value: int, hi: int, what: str):
    if not 1 <= value <= hi:
        raise RuleError(f"{what} {value} out of range 1..{hi}")


# ---------------------------------------------------------------------------
# axiom


def axiom_cirquent(formulas: list[Formula]) -> Cirquent:
    """The axiom on F1..Fn: oformulas ~F1,F1,...,~Fn,Fn with one undergroup
    and one overgroup per pair."""
    if not formulas:
        raise RuleError("axiom needs at least one formula")
    oformulas: list[Formula] = []
    groups = []
    for k, f in enumerate(formulas):
        oformulas.extend((negate(f), f))
        groups.append(frozenset({2 * k + 1, 2 * k + 2}))
    return Cirquent(tuple(oformulas), tuple(groups), tuple(groups))


def _check_axiom(conclusion: Cirquent) -> None:
    n2 = len(conclusion.oformulas)
    if n2 % 2 != 0:
        raise RuleError("axiom needs an even number of oformulas")
    pairs = [conclusion.oformulas[k + 1] for k in range(0, n2, 2)]
    if axiom_cirquent(list(pairs)) != conclusion:
        raise RuleError("not of the form ~F1,F1,...,~Fn,Fn with pair groups")


# ---------------------------------------------------------------------------
# top-down rules: conclusion from premise


def _apply_exchange(premise: Cirquent, r: Exchange) -> Cirquent:
    if r.kind == "oformula":
        _check_range(r.at, len(premise.oformulas) - 1, "oformula position")
        fs = list(premise.oformulas)
        fs[r.at - 1], fs[r.at] = fs[r.at], fs[r.at - 1]
        return Cirquent(
            tuple(fs),
            tuple(_swap(g, r.at) for g in premise.undergroups),
            tuple(_swap(g, r.at) for g in premise.overgroups),
        )
    if r.kind == "undergroup":
        _check_range(r.at, len(premise.undergroups) - 1, "undergroup position")
        gs = list(premise.undergroups)
        gs[r.at - 1], gs[r.at] = gs[r.at], gs[r.at - 1]
        return Cirquent(premise.oformulas, tuple(gs), premise.overgroups)
    if r.kind == "overgroup":
        _check_range(r.at, len(premise.overgroups) - 1, "overgroup position")
        gs = list(premise.overgroups)
        gs[r.at - 1], gs[r.at] = gs[r.at], gs[r.at - 1]
        return Cirquent(premise.oformulas, premise.undergroups, tuple(gs))
    raise RuleError(f"unknown exchange kind {r.kind!r}")


def _apply_duplication(premise: Cirquent, r: Duplication) -> Cirquent:
    if r.kind == "undergroup":
        _check_range(r.at, len(premise.undergroups), "undergroup position")
        g = premise.undergroups[r.at - 1]
        return Cirquent(
            premise.oformulas, _replace(premise.undergroups, r.at, (g, g)), premise.overgroups
        )
    if r.kind == "overgroup":
        _check_range(r.at, len(premise.overgroups), "overgroup position")
        g = premise.overgroups[r.at - 1]
        return Cirquent(
            premise.oformulas, premise.undergroups, _replace(premise.overgroups, r.at, (g, g))
        )
    raise RuleError(f"unknown duplication kind {r.kind!r}")


def _apply_merging(premise: Cirquent, r: Merging) -> Cirquent:
    _check_range(r.at, len(premise.overgroups) - 1, "overgroup position")
    merged = premise.overgroups[r.at - 1] | premise.overgroups[r.at]
    overs = premise.overgroups[: r.at - 1] + (merged,) + premise.overgroups[r.at + 1:]
    return Cirquent(premise.oformulas, premise.undergroups, overs)


# ---------------------------------------------------------------------------
# bottom-up rules: premise from conclusion


def _premise_weakening(c: Cirquent, r: Weakening) -> Cirquent:
    _check_range(r.under, len(c.undergroups), "undergroup")
    _check_range(r.oformula, len(c.oformulas), "oformula")
    u = c.undergroups[r.under - 1]
    if r.oformula not in u:
        raise RuleError(f"undergroup {r.under} has no arc to oformula {r.oformula}")
    if len(u) < 2:
        raise RuleError("weakening needs an undergroup with at least 2 elements")
    unders = _replace(c.undergroups, r.under, (u - {r.oformula},))
    if any(r.oformula in g for g in unders):
        return Cirquent(c.oformulas, unders, c.overgroups)
    # the arc was the oformula's last undergroup membership: drop the
    # oformula, its overgroup arcs, and any overgroup emptied by that
    a = r.oformula
    oformulas = c.oformulas[: a - 1] + c.oformulas[a:]
    unders = tuple(_shift_after_delete(g, a) for g in unders)
    overs = tuple(_shift_after_delete(g - {a}, a) for g in c.overgroups)
    overs = tuple(g for g in overs if g)
    return Cirquent(oformulas, unders, overs)


def weakening_deleted_overgroups(c: Cirquent, r: Weakening) -> tuple[int, ...]:
    """Conclusion positions of overgroups that disappear in the premise."""
    unders = _replace(c.undergroups, r.under, (c.undergroups[r.under - 1] - {r.oformula},))
    if any(r.oformula in g for g in unders):
        return ()
    return tuple(
        j for j, g in enumerate(c.overgroups, start=1) if not (g - {r.oformula})
    )


def _widen(group: frozenset[int], a: int) -> frozenset[int]:
    """A group after oformula a is split in two at a, a + 1: it keeps both
    halves if it held a."""
    g = _shift_after_insert(group, a + 1)
    if a in g:
        g |= {a + 1}
    return g


def _split_oformula(c: Cirquent, a: int, halves: tuple[Formula, Formula]) -> Cirquent:
    """Oformula a replaced by two halves that every group holding it holds."""
    return Cirquent(
        _replace(c.oformulas, a, halves),
        tuple(_widen(g, a) for g in c.undergroups),
        tuple(_widen(g, a) for g in c.overgroups),
    )


def _premise_contraction(c: Cirquent, r: Contraction) -> Cirquent:
    a = r.oformula
    _check_range(a, len(c.oformulas), "oformula")
    f = c.oformulas[a - 1]
    if not isinstance(f, CCoRec):
        raise RuleError(f"contraction target must be a ?c formula, got {serialize_formula(f)}")
    return _split_oformula(c, a, (f, f))


def _premise_or_intro(c: Cirquent, r: OrIntro) -> Cirquent:
    a = r.oformula
    _check_range(a, len(c.oformulas), "oformula")
    f = c.oformulas[a - 1]
    if not isinstance(f, Or):
        raise RuleError(f"or-intro target must be a disjunction, got {serialize_formula(f)}")
    return _split_oformula(c, a, (f.left, f.right))


def _premise_and_intro(c: Cirquent, r: AndIntro) -> Cirquent:
    a = r.oformula
    _check_range(a, len(c.oformulas), "oformula")
    f = c.oformulas[a - 1]
    if not isinstance(f, And):
        raise RuleError(f"and-intro target must be a conjunction, got {serialize_formula(f)}")
    oformulas = _replace(c.oformulas, a, (f.left, f.right))
    unders: list[frozenset[int]] = []
    for g in c.undergroups:
        shifted = _shift_after_insert(g, a + 1)
        if a in g:
            unders.append(shifted)  # keeps the left conjunct
            unders.append((shifted - {a}) | {a + 1})  # keeps the right conjunct
        else:
            unders.append(shifted)
    return Cirquent(oformulas, tuple(unders), tuple(_widen(g, a) for g in c.overgroups))


def _premise_rec_intro(c: Cirquent, r: RecIntro) -> Cirquent:
    a = r.oformula
    _check_range(a, len(c.oformulas), "oformula")
    _check_range(r.insert_at, len(c.overgroups) + 1, "overgroup insertion point")
    f = c.oformulas[a - 1]
    if not isinstance(f, CRec):
        raise RuleError(f"rec-intro target must be a !c formula, got {serialize_formula(f)}")
    oformulas = _replace(c.oformulas, a, (f.body,))
    overs = c.overgroups[: r.insert_at - 1] + (frozenset({a}),) + c.overgroups[r.insert_at - 1:]
    return Cirquent(oformulas, c.undergroups, overs)


def _premise_corec_intro(c: Cirquent, r: CoRecIntro) -> Cirquent:
    a = r.oformula
    _check_range(a, len(c.oformulas), "oformula")
    f = c.oformulas[a - 1]
    if not isinstance(f, CCoRec):
        raise RuleError(f"corec-intro target must be a ?c formula, got {serialize_formula(f)}")
    overs = list(c.overgroups)
    for j in sorted(r.overgroups):
        _check_range(j, len(overs), "overgroup")
        if a in overs[j - 1]:
            raise RuleError(f"overgroup {j} already contains oformula {a}")
        overs[j - 1] = overs[j - 1] | {a}
    oformulas = _replace(c.oformulas, a, (f.body,))
    return Cirquent(oformulas, c.undergroups, tuple(overs))


_BOTTOM_UP = {
    Weakening: _premise_weakening,
    Contraction: _premise_contraction,
    OrIntro: _premise_or_intro,
    AndIntro: _premise_and_intro,
    RecIntro: _premise_rec_intro,
    CoRecIntro: _premise_corec_intro,
}

_TOP_DOWN = {
    Exchange: _apply_exchange,
    Duplication: _apply_duplication,
    Merging: _apply_merging,
}


def reconstruct_premise(conclusion: Cirquent, r: RuleInstance) -> Cirquent:
    """The unique premise determined by a bottom-up rule and its parameters."""
    try:
        builder = _BOTTOM_UP[type(r)]
    except KeyError:
        raise RuleError(f"{type(r).__name__} is not a bottom-up rule") from None
    return builder(conclusion, r)


def apply_rule(premise: Cirquent, r: RuleInstance) -> Cirquent:
    """The unique conclusion of a top-down rule applied to a premise."""
    try:
        builder = _TOP_DOWN[type(r)]
    except KeyError:
        raise RuleError(f"{type(r).__name__} is not a top-down rule") from None
    return builder(premise, r)


# ---------------------------------------------------------------------------
# checking


def check_step(premise: Cirquent | None, conclusion: Cirquent, r: RuleInstance) -> str | None:
    """None if (premise, conclusion) is exactly an instance of r, else why not."""
    bad = validate_cirquent(conclusion)
    if bad:
        return f"ill-formed conclusion: {bad}"
    if isinstance(r, Axiom):
        if premise is not None:
            return "axiom takes no premise"
        try:
            _check_axiom(conclusion)
        except RuleError as e:
            return str(e)
        return None
    if premise is None:
        return f"{type(r).__name__} needs a premise"
    bad = validate_cirquent(premise)
    if bad:
        return f"ill-formed premise: {bad}"
    try:
        if type(r) in _TOP_DOWN:
            expected = apply_rule(premise, r)
            if expected != conclusion:
                return f"conclusion is not {r} of the premise"
        else:
            expected = reconstruct_premise(conclusion, r)
            if expected != premise:
                return f"premise is not the {r} premise of the conclusion"
    except RuleError as e:
        return str(e)
    return None


def check_proof(p: Proof) -> tuple[int, str] | None:
    """None if every step checks, else (1-based step index, reason)."""
    if not p.steps:
        return (0, "no steps")
    if not isinstance(p.steps[0].rule, Axiom):
        return (1, "first step must be an axiom")
    previous: Cirquent | None = None
    for i, step in enumerate(p.steps, start=1):
        reason = check_step(previous, step.cirquent, step.rule)
        if reason is not None:
            return (i, reason)
        previous = step.cirquent
    return None


def check_formula_proof(f: Formula, p: Proof) -> tuple[int, str] | None:
    bad = check_proof(p)
    if bad is not None:
        return bad
    if p.conclusion != clubsuit(f):
        return (len(p.steps), "conclusion mismatch: proof does not end at the formula's cirquent")
    return None


# ---------------------------------------------------------------------------
# proof files


_RULE_NAMES = {
    "axiom": (Axiom, ()),
    "exchange": (Exchange, ("kind", "at")),
    "duplicate": (Duplication, ("kind", "at")),
    "merge": (Merging, ("at",)),
    "weaken": (Weakening, ("under", "of")),
    "contract": (Contraction, ("of",)),
    "or-intro": (OrIntro, ("of",)),
    "and-intro": (AndIntro, ("of",)),
    "rec-intro": (RecIntro, ("of", "insert")),
    "corec-intro": (CoRecIntro, ("of", "over")),
}

_KIND_CODES = {"o": "oformula", "u": "undergroup", "g": "overgroup"}


def _rule_from_raw(step: RawStep) -> RuleInstance:
    try:
        cls, keys = _RULE_NAMES[step.rule_name]
    except KeyError:
        raise RuleError(f"step {step.index}: unknown rule {step.rule_name!r}") from None
    params = dict(step.params)
    given = set(params)
    wanted = set(keys)
    optional = {"over"} if cls is CoRecIntro else set()
    if given - wanted or wanted - optional - given:
        raise RuleError(
            f"step {step.index}: rule {step.rule_name} takes "
            f"{', '.join(keys) or 'no parameters'}"
        )

    def num(key):
        v = params[key]
        if not v.isdigit() or int(v) < 1:
            raise RuleError(f"step {step.index}: {key} must be a positive integer")
        return int(v)

    if cls is Axiom:
        return Axiom()
    if cls in (Exchange, Duplication):
        kind = _KIND_CODES.get(params["kind"])
        if kind is None or (cls is Duplication and kind == "oformula"):
            raise RuleError(f"step {step.index}: bad kind {params['kind']!r}")
        return cls(kind, num("at"))
    if cls is Merging:
        return Merging(num("at"))
    if cls is Weakening:
        return Weakening(num("under"), num("of"))
    if cls is Contraction:
        return Contraction(num("of"))
    if cls is OrIntro:
        return OrIntro(num("of"))
    if cls is AndIntro:
        return AndIntro(num("of"))
    if cls is RecIntro:
        return RecIntro(num("of"), num("insert"))
    # corec-intro: over is a comma list, possibly absent or empty
    raw = params.get("over", "")
    items = [w for w in raw.split(",") if w != ""]
    if not all(w.isdigit() for w in items):
        raise RuleError(f"step {step.index}: over must be a comma list of positions")
    return CoRecIntro(num("of"), frozenset(int(w) for w in items))


def proof_from_raw(raw: RawProof) -> Proof:
    return Proof(tuple(ProofStep(s.cirquent, _rule_from_raw(s)) for s in raw.steps))


def parse_proof(text: str) -> Proof:
    """Parse a proof file into a Proof; structural validity only."""
    return proof_from_raw(parse_proof_text(text))


_KIND_LETTER = {"oformula": "o", "undergroup": "u", "overgroup": "g"}


def serialize_rule(r: RuleInstance) -> str:
    match r:
        case Axiom():
            return "axiom"
        case Exchange(kind, at):
            return f"exchange kind={_KIND_LETTER[kind]} at={at}"
        case Duplication(kind, at):
            return f"duplicate kind={_KIND_LETTER[kind]} at={at}"
        case Merging(at):
            return f"merge at={at}"
        case Weakening(under, oformula):
            return f"weaken under={under} of={oformula}"
        case Contraction(oformula):
            return f"contract of={oformula}"
        case OrIntro(oformula):
            return f"or-intro of={oformula}"
        case AndIntro(oformula):
            return f"and-intro of={oformula}"
        case RecIntro(oformula, insert_at):
            return f"rec-intro of={oformula} insert={insert_at}"
        case CoRecIntro(oformula, overgroups):
            over = ",".join(str(j) for j in sorted(overgroups))
            return f"corec-intro of={oformula}" + (f" over={over}" if over else "")
    raise TypeError(f"not a rule instance: {r!r}")


def serialize_proof(p: Proof) -> str:
    blocks = []
    for i, step in enumerate(p.steps, start=1):
        blocks.append(f"step {i}\nrule {serialize_rule(step.rule)}\n{serialize_cirquent(step.cirquent)}")
    return "\n".join(blocks) + "\n"
