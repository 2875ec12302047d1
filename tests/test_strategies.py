import pytest

from colog.bits import ones, zeros
from colog.calculus import (
    AndIntro,
    Contraction,
    Duplication,
    Exchange,
    OrIntro,
    Proof,
    ProofStep,
    parse_proof,
)
from colog.kernel import (
    BOT,
    TOP,
    CirquentGame,
    Labmove,
    adjudicate,
    enumeration_game,
    first_illegal,
    last_mover_wins_game,
    legal_extension,
    negate_run,
    project_cell,
    project_thread,
    run,
    split_indexed,
    split_thread,
    strip_prefix,
    sum_parity_game,
    top_played_game,
)
from colog.machines import (
    MachineStrategy,
    SilentEnvironment,
    SilentMachine,
    SimConfig,
    random_legal_environment,
    scripted_environment,
    simulate,
)
from colog.strategies import (
    AxiomCopycat,
    BridgeNewToOld,
    BridgeOldToNew,
    ClubsuitAdapter,
    CounterstrategyLoop,
    CstDistribution,
    CstElimination,
    LiteralCopycat,
    StToCst,
    ThreadPromotion,
    catalog_game,
    catalog_machine,
    equivalence_game,
    equivalence_machine,
    formula_adapter,
    synthesize,
    synthesize_formula,
    transform_rule,
)
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
    make_cirquent,
    parse_formula,
)

from oracles import class_reps, promotion_by_rescan, promotion_partition, thread_class_reps

pf = parse_formula
ENUM = {"P": enumeration_game(), "Q": enumeration_game()}

INTERPRETATIONS = {
    "enumeration": lambda: enumeration_game(),
    "sum-parity-even": lambda: sum_parity_game(),
    "sum-parity-odd": lambda: sum_parity_game(odd_wins=True),
    "top-played": lambda: top_played_game("0"),
    "last-mover": lambda: last_mover_wins_game(),
}


def interp_for(names, variant):
    return {name: INTERPRETATIONS[variant]() for name in names}


def machine_answers(machine, script, horizon=20):
    res = simulate(machine, scripted_environment(script), SimConfig(horizon=horizon))
    return [lm.move for lm in res.run if lm.player is TOP]


class StubEmitter(MachineStrategy):
    """Plays a fixed sequence of moves, one per query, then grants."""

    name = "stub"

    def __init__(self, moves):
        self.moves = tuple(moves)

    def next_moves(self, history):
        done = sum(1 for lm in history if lm.player is TOP)
        return (self.moves[done],) if done < len(self.moves) else ()


class TestElementaryCopycats:
    def test_copycat_mirrors_both_ways(self):
        assert machine_answers(LiteralCopycat(), [(1, "2.m")]) == ["1.m"]
        assert machine_answers(LiteralCopycat(), [(1, "1.m")]) == ["2.m"]

    def test_st_to_cst(self):
        assert machine_answers(StToCst(), [(1, "1.0.m")]) == ["2.0.m"]
        assert machine_answers(StToCst(), [(1, "2.0.m")]) == ["1.0.m"]
        assert machine_answers(StToCst(), []) == []

    def test_cst_distribution(self):
        assert machine_answers(CstDistribution(), [(1, "1.0.1.m")]) == ["2.1.0.m"]
        assert machine_answers(CstDistribution(), [(1, "2.2..m")]) == ["1..2.m"]
        assert machine_answers(CstDistribution(), [(1, "2.1.01.k")]) == ["1.01.1.k"]
        assert machine_answers(CstDistribution(), []) == []

    def test_cst_elimination(self):
        assert machine_answers(CstElimination(), [(1, "2.m")]) == ["1..m"]
        assert machine_answers(CstElimination(), [(1, "1..m")]) == ["2.m"]
        assert machine_answers(CstElimination(), []) == []

    def test_cst_elimination_never_replicates(self):
        game = catalog_game("cst-elimination")
        for seed in range(20):
            m = CstElimination()
            env = random_legal_environment(seed, game, ENUM)
            res = simulate(m, env, SimConfig(horizon=40))
            assert not any(
                lm.player is TOP and lm.move.endswith(":") for lm in res.run
            )
            sigma = strip_prefix(res.run, "1.")
            pi = strip_prefix(res.run, "2.")
            for v in _address_reps(res.run):
                assert project_thread(sigma, v) == negate_run(pi)


class TestAxiomCopycat:
    def test_mirrors_to_pair_partner(self):
        assert machine_answers(AxiomCopycat(1), [(1, "1;0.m")]) == ["2;0.m"]
        assert machine_answers(AxiomCopycat(2), [(1, "3;0,1.m")]) == ["4;0,1.m"]
        assert machine_answers(AxiomCopycat(2), [(1, "4;,.m")]) == ["3;,.m"]

    def test_silent(self):
        assert machine_answers(AxiomCopycat(1), []) == []

    def test_wins_every_undergroup(self):
        c = make_cirquent(
            [pf("~P"), pf("P"), pf("~Q"), pf("Q")], [{1, 2}, {3, 4}], [{1, 2}, {3, 4}]
        )
        g = CirquentGame(c)
        for variant in ["sum-parity-even", "top-played", "last-mover"]:
            itp = interp_for(["P", "Q"], variant)
            for seed in range(34):
                env = random_legal_environment(seed, g, itp)
                res = simulate(AxiomCopycat(2), env, SimConfig(horizon=60))
                ok, w = adjudicate(g, itp, res.run)
                assert ok and w is TOP, (variant, seed)

    def test_cell_mirror_equation(self):
        c = make_cirquent([pf("~P"), pf("P")], [{1, 2}], [{1, 2}])
        g = CirquentGame(c)
        for seed in range(20):
            env = random_legal_environment(seed, g, ENUM)
            res = simulate(AxiomCopycat(1), env, SimConfig(horizon=40))
            for xs in _cell_reps(res.run, 1):
                left = project_cell(res.run, 1, xs)
                right = project_cell(res.run, 2, xs)
                assert left == negate_run(right)


def _address_reps(g_run):
    """Class representatives drawn from every thread address in both
    components of a two-component run."""
    used = []
    for lm in g_run:
        p = split_indexed(lm.move)
        if p is None:
            continue
        t = split_thread(p[1])
        if t is not None and t[1] is not None:
            used.append(t[0])
    return class_reps(used)


def _cell_reps(g_run, n_coords):
    return thread_class_reps(g_run, n_coords)


class TestBridgeOldToNew:
    def test_replicates_down_to_the_address(self):
        answers = machine_answers(BridgeOldToNew(), [(1, "2.01.m")])
        assert answers == ["1.:", "1.0:", "1.01.m"]

    def test_left_moves_copy_straight_over(self):
        assert machine_answers(BridgeOldToNew(), [(1, "1..m")]) == ["2..m"]

    def test_silent(self):
        assert machine_answers(BridgeOldToNew(), []) == []

    def test_no_redundant_replication(self):
        answers = machine_answers(
            BridgeOldToNew(), [(1, "2.01.m"), (2, "2.0.k")]
        )
        assert answers == ["1.:", "1.0:", "1.01.m", "1.0.k"]

    def test_sync_equation_over_sessions(self):
        game = catalog_game("bridge-old-new")
        for seed in range(30):
            m = BridgeOldToNew()
            env = random_legal_environment(seed, game, ENUM)
            res = simulate(m, env, SimConfig(horizon=50))
            assert first_illegal(game, ENUM, res.run) is None
            sigma = strip_prefix(res.run, "1.")
            pi = strip_prefix(res.run, "2.")
            for v in _address_reps(res.run):
                assert project_thread(sigma, v) == negate_run(project_thread(pi, v))


class TestBridgeNewToOld:
    def test_replication_updates_the_map_silently(self):
        m = BridgeNewToOld()
        history = run((BOT, "2.:"))
        assert m.next_moves(history) == ()
        assert m.leaf_map(history) == {"0": "0", "1": "1"}

    def test_addressed_move_before_any_replication(self):
        assert machine_answers(BridgeNewToOld(), [(1, "2..m")]) == ["1..m"]

    def test_essentially_infinite_addresses_are_dropped(self):
        m = BridgeNewToOld()
        history = run((BOT, "1.01.m"))
        assert m.next_moves(history) == ()
        assert m.leaf_map(history) == {"": ""}

    def test_zero_extension_is_adopted(self):
        m = BridgeNewToOld()
        history = run((BOT, "1.00.m"))
        assert m.next_moves(history) == ("2..m",)
        assert m.leaf_map(history) == {"": "00"}

    def test_images_that_are_not_prefix_free_raise(self):
        BridgeNewToOld._check({"0": "0", "1": "10"}, ["1"])
        with pytest.raises(RuntimeError, match="prefix-free"):
            BridgeNewToOld._check({"0": "0", "1": "01"}, ["1"])
        with pytest.raises(RuntimeError, match="prefix-free"):
            BridgeNewToOld._check({"0": "01", "1": "0", "": "1"}, ["1"])

    def test_exact_image_fans_into_the_leaf(self):
        answers = machine_answers(BridgeNewToOld(), [(1, "2.:"), (2, "1.0.m")])
        assert answers == ["2.0.m"]

    def test_fanout_to_all_leaves_below(self):
        answers = machine_answers(BridgeNewToOld(), [(1, "2.:"), (2, "2..m")])
        assert answers == ["1.0.m", "1.1.m"]

    def test_image_grows_by_zeros_only(self):
        game = catalog_game("bridge-new-old")
        for seed in range(40):
            m = BridgeNewToOld()
            env = random_legal_environment(seed, game, ENUM)
            res = simulate(m, env, SimConfig(horizon=50))
            images = m.leaf_map(res.run)
            for leaf, image in images.items():
                assert image.count("1") == leaf.count("1")
                it = iter(image)
                assert all(any(c == d for d in it) for c in leaf)

    def test_wins_its_game(self):
        game = catalog_game("bridge-new-old")
        for variant in ["enumeration", "sum-parity-even"]:
            itp = interp_for(["P"], variant)
            for seed in range(25):
                env = random_legal_environment(seed, game, itp)
                res = simulate(BridgeNewToOld(), env, SimConfig(horizon=50))
                ok, w = adjudicate(game, itp, res.run)
                assert ok and w is TOP, (variant, seed)


class TestAdapters:
    def test_clubsuit_adapter_renames_outward(self):
        inner = StubEmitter(["1;0.m"])
        outer = ClubsuitAdapter(inner)
        res = simulate(outer, SilentEnvironment(), SimConfig(horizon=5))
        assert [lm.move for lm in res.run] == ["0.m"]

    def test_clubsuit_adapter_renames_inward(self):
        outer = ClubsuitAdapter(synthesize(_load("p_implies_p")))
        # the inner cirquent machine answers in the other disjunct of the
        # same cell and thread; the adapter maps both directions
        assert machine_answers(outer, [(1, "0.1.m")]) == ["0.2.m"]
        probe = ClubsuitAdapter(synthesize(_load("p_implies_p")))
        probe.next_moves(run((BOT, "0.1.m")))
        assert probe._play.tape[0] == Labmove(BOT, "1;0.1.m")

    def test_silent_inner_stays_silent(self):
        outer = ClubsuitAdapter(SilentMachine())
        res = simulate(outer, SilentEnvironment(), SimConfig(horizon=5))
        assert res.run == ()

    def test_formula_adapter_wins_the_formula(self):
        proof = _load("p_implies_p")
        cirquent_machine = synthesize(proof)
        machine = formula_adapter(cirquent_machine)
        game = pf("P -> P")
        for variant in ["enumeration", "sum-parity-even", "top-played", "last-mover"]:
            itp = interp_for(["P"], variant)
            for seed in range(25):
                env = random_legal_environment(seed, game, itp)
                res = simulate(machine, env, SimConfig(horizon=60))
                ok, w = adjudicate(game, itp, res.run)
                assert ok and w is TOP, (variant, seed)


def _reference_winner(g, itp, g_run):
    """The winner clauses evaluated directly on a legal run: no memo, one
    projection per class representative."""
    def won(sub, sub_run):
        return _reference_winner(sub, itp, sub_run) is TOP

    match g:
        case Atom(name):
            return itp[name].winner(g_run)
        case NegAtom(name):
            return itp[name].winner(negate_run(g_run)).flip()
        case And(l, r):
            ok = won(l, strip_prefix(g_run, "1.")) and won(r, strip_prefix(g_run, "2."))
        case Or(l, r):
            ok = won(l, strip_prefix(g_run, "1.")) or won(r, strip_prefix(g_run, "2."))
        case CRec(body) | URec(body) | OldCRec(body):
            ok = all(won(body, project_thread(g_run, x)) for x in thread_class_reps(g_run))
        case CCoRec(body) | UCoRec(body) | OldCCoRec(body):
            ok = any(won(body, project_thread(g_run, x)) for x in thread_class_reps(g_run))
        case CirquentGame(c):
            ok = all(
                any(won(c.oformulas[a - 1], project_cell(g_run, a, xs)) for a in under)
                for xs in thread_class_reps(g_run, len(c.overgroups))
                for under in c.undergroups
            )
    return TOP if ok else BOT


def _load(name):
    with open(f"corpus/{name}.clp") as fh:
        return parse_proof(fh.read())


class TestTransformerTraces:
    def test_overgroup_exchange_swaps_coordinates(self):
        premise = make_cirquent([pf("~P"), pf("P")], [{1, 2}], [{1, 2}, {1, 2}])
        conclusion = make_cirquent([pf("~P"), pf("P")], [{1, 2}], [{1, 2}, {1, 2}])
        m = transform_rule(Exchange("overgroup", 1), premise, conclusion, AxiomCopycat(1))
        # a move with distinct coordinates reaches the inner machine swapped
        m.next_moves(run((BOT, "1;0,1.m")))
        assert m._play.tape[0] == Labmove(BOT, "1;1,0.m")

    def test_or_intro_renames_the_split_halves(self):
        premise = make_cirquent([pf("~P"), pf("P")], [{1, 2}], [{1, 2}])
        conclusion = make_cirquent([pf("~P | P")], [{1}], [{1}])
        m = transform_rule(OrIntro(1), premise, conclusion, StubEmitter(["2;0.m"]))
        res = simulate(m, SilentEnvironment(), SimConfig(horizon=5))
        assert [lm.move for lm in res.run] == ["1;0.2.m"]

    def test_contraction_root_address_fans_out(self):
        premise = make_cirquent(
            [pf("?c P"), pf("?c P")], [{1, 2}], [{1, 2}]
        )
        conclusion = make_cirquent([pf("?c P")], [{1}], [{1}])
        m = transform_rule(Contraction(1), premise, conclusion, SilentMachine())
        m.next_moves(run((BOT, "1;..m")))
        assert [lm.move for lm in m._play.tape] == ["1;..m", "2;..m"]

    def test_contraction_splits_thread_addresses(self):
        premise = make_cirquent([pf("?c P"), pf("?c P")], [{1, 2}], [{1, 2}])
        conclusion = make_cirquent([pf("?c P")], [{1}], [{1}])
        m = transform_rule(Contraction(1), premise, conclusion, SilentMachine())
        m.next_moves(run((BOT, "1;.01.m"), (BOT, "1;.11.k")))
        assert [lm.move for lm in m._play.tape] == ["1;.1.m", "2;.1.k"]

    def test_identity_rules_pass_the_machine_through(self):
        premise = make_cirquent([pf("~P"), pf("P")], [{1, 2}], [{1, 2}])
        conclusion = make_cirquent([pf("~P"), pf("P")], [{1, 2}, {1, 2}], [{1, 2}])
        inner = AxiomCopycat(1)
        assert transform_rule(Duplication("undergroup", 1), premise, conclusion, inner) is inner

    def test_rejects_invalid_instances(self):
        premise = make_cirquent([pf("~P"), pf("P")], [{1, 2}], [{1, 2}])
        conclusion = make_cirquent([pf("~P | P")], [{1}], [{1}])
        from colog.calculus import RuleError

        with pytest.raises(RuleError):
            transform_rule(AndIntro(1), premise, conclusion, AxiomCopycat(1))


class TestSynthesis:
    def test_formula_machine_answers_like_copycat(self):
        machine = synthesize_formula(_load("p_implies_p"))
        assert machine_answers(machine, [(1, "2.m")]) == ["1.m"]

    def test_deterministic_builds(self):
        p = _load("crec_p_implies_crec_p")
        env = random_legal_environment(9, CirquentGame(p.conclusion), ENUM)
        a = simulate(synthesize(p), env, SimConfig(horizon=80))
        b = simulate(synthesize(p), env, SimConfig(horizon=80))
        assert a.run == b.run

    def test_rejects_unchecked_proofs(self):
        from colog.calculus import RuleError

        p = _load("p_implies_p")
        broken = Proof((p.steps[0], ProofStep(p.steps[1].cirquent, AndIntro(1))))
        with pytest.raises(RuleError):
            synthesize(broken)

    def test_synthesized_machines_win(self):
        for name in ["p_implies_p", "crec_p_implies_crec_p", "double_undergroup"]:
            p = _load(name)
            g = CirquentGame(p.conclusion)
            machine = synthesize(p)
            for variant in ["enumeration", "sum-parity-even", "last-mover"]:
                itp = interp_for(["P", "Q"], variant)
                for seed in range(15):
                    env = random_legal_environment(seed, g, itp)
                    res = simulate(machine, env, SimConfig(horizon=120))
                    ok, w = adjudicate(g, itp, res.run)
                    assert ok and w is TOP, (name, variant, seed)

    def test_adjudicate_matches_unmemoised_reference(self):
        # recorded corpus sessions, judged under several interpretations and
        # also cut right after environment moves that are still unanswered,
        # so that both players win some of them
        verdicts = set()
        for name in ["p_implies_p", "crec_p_implies_crec_p", "conj_commute",
                     "crec_duplication", "double_undergroup"]:
            p = _load(name)
            g = CirquentGame(p.conclusion)
            machine = synthesize(p)
            for seed in range(3):
                env = random_legal_environment(seed, g, interp_for(["P", "Q"], "enumeration"))
                g_run = simulate(machine, env, SimConfig(horizon=60)).run
                cuts = [i + 1 for i, lm in enumerate(g_run) if lm.player is BOT]
                for variant in ["enumeration", "sum-parity-even", "sum-parity-odd",
                                "top-played", "last-mover"]:
                    itp = interp_for(["P", "Q"], variant)
                    assert all(
                        legal_extension(g, itp, g_run[:i], g_run[i])
                        for i in range(len(g_run))
                    )
                    for k in [len(g_run)] + cuts:
                        who = _reference_winner(g, itp, g_run[:k])
                        assert adjudicate(g, itp, g_run[:k]) == (True, who), (
                            name, seed, variant, k)
                        verdicts.add(who)
        assert verdicts == {TOP, BOT}

    def test_catalog_lookup(self):
        assert catalog_machine("copycat").name == "copycat"
        with pytest.raises(KeyError):
            catalog_machine("no-such-strategy")


# corecurrence introduction with no new overgroup: the pinned-thread transformer
PINNED_PROOF = """step 1
rule axiom
cirquent
  f 1: ~P
  f 2: P
  u 1: 1 2
  o 1: 1 2
end
step 2
rule corec-intro of=1
cirquent
  f 1: ?c ~P
  f 2: P
  u 1: 1 2
  o 1: 1 2
end
step 3
rule or-intro of=1
cirquent
  f 1: ?c ~P | P
  u 1: 1
  o 1: 1
end
"""


class TestPinnedThread:
    def test_cirquent_and_formula_games_are_won(self):
        proof = parse_proof(PINNED_PROOF)
        forms = [
            (synthesize(proof), CirquentGame(proof.conclusion)),
            (synthesize_formula(proof), proof.conclusion.oformulas[0]),
        ]
        depths = set()
        for machine, g in forms:
            for variant in ["enumeration", "sum-parity-even", "top-played"]:
                itp = interp_for(["P"], variant)
                for seed in range(15):
                    env = random_legal_environment(seed, g, itp)
                    res = simulate(machine, env, SimConfig(horizon=100))
                    ok, w = adjudicate(g, itp, res.run)
                    assert ok and w is TOP, (g, variant, seed)
                    if isinstance(g, CirquentGame):
                        depths |= _pinned_depths(res.run)
        # the pinned address grew past addresses the environment used
        assert {0, 1, 2} <= depths

    def test_pinned_address_avoids_used_prefixes(self):
        machine = synthesize(parse_proof(PINNED_PROOF))
        # moves at threads 01 and 1 of the ?c stay unanswered; the answer
        # to a move in P lands on the shortest all-zero thread that is not a
        # proper prefix of either
        answers = machine_answers(machine, [(1, "1;.1.01.m"), (2, "1;.1.1.k"), (3, "1;.2.j")])
        assert answers == ["1;.1.00.j"]


def _pinned_depths(g_run):
    """Lengths of the ?c thread addresses of TOP's moves in the left disjunct."""
    out = set()
    for lm in g_run:
        rest = lm.move.split(".", 1)[1]
        if lm.player is TOP and rest.startswith("1."):
            out.add(len(split_thread(rest[2:])[0]))
    return out


class TestThreadPromotion:
    def test_promotes_through_every_class(self):
        m = ThreadPromotion(LiteralCopycat())
        answers = machine_answers(m, [(1, "0.2.m"), (2, "1.2.k")])
        assert answers == ["0.1.m", "1.1.k"]

    def test_wins_the_promoted_game(self):
        g = pf("!u (P -> P)")
        for seed in range(20):
            m = ThreadPromotion(LiteralCopycat())
            env = random_legal_environment(seed, g, ENUM)
            res = simulate(m, env, SimConfig(horizon=50))
            ok, w = adjudicate(g, ENUM, res.run)
            assert ok and w is TOP, seed


    def test_an_own_move_inside_a_class_is_out_of_sync(self):
        # the one class is "" and owes "1.m" there; the same move deeper in
        # that class is not one the promotion made, whether its address
        # extends the class with zeros or not
        m = ThreadPromotion(LiteralCopycat())
        h = run((BOT, ".2.m"))
        assert m.next_moves(h) == (".1.m",)
        assert m.next_moves(h + run((TOP, ".1.m"))) == ()
        for deeper in ("00.1.m", "01.1.m"):
            with pytest.raises(RuntimeError, match="out of sync"):
                m.next_moves(h + run((TOP, deeper)))

    @pytest.mark.parametrize("formula,direction,horizon", [
        ("!c !c P", "LT", 120),
        ("!c !c P", "TL", 60),
        ("!c (P & !u P)", "LT", 100),
    ])
    def test_live_classes_match_the_rescan(self, formula, direction, horizon):
        # query growing prefixes of a recorded session; after each query
        # every promotion in the stack, nested ones included, keeps one play
        # per class of the rescan, in its order, and answers as the rescan
        f = pf(formula)
        game = equivalence_game(f, direction)
        g_run = simulate(equivalence_machine(f, direction),
                         random_legal_environment(1, game, ENUM), SimConfig(horizon)).run
        machine = equivalence_machine(f, direction)
        widest = nested = 0
        for k in range(len(g_run) + 1):
            machine.next_moves(g_run[:k])
            promotions = list(_promotions(machine))
            for promotion in promotions:
                history = promotion._prefix
                order = [addr for (addr,), _ in promotion._ordered()]
                assert order == promotion_partition(history), (k, history)
                plays = promotion._classes.positions.values()
                assert len({id(play) for play in plays}) == len(order)
                assert promotion.next_moves(history) == \
                    promotion_by_rescan(promotion.inner, history)
                widest = max(widest, len(order))
            nested = max(nested, len(promotions))
        assert widest >= 3
        assert nested >= (3 if formula == "!c !c P" else 1)


def _promotions(machine):
    """The thread promotions of a machine stack that have been asked about a
    history, the ones inside their class plays included."""
    if isinstance(machine, ThreadPromotion):
        classes = getattr(machine, "_classes", None)
        if classes is None:
            return
        yield machine
        plays = list(classes.positions.values())
    else:
        plays = getattr(machine, "_plays", None) or [getattr(machine, "_play", None)]
    for play in plays:
        if play is not None:
            yield from _promotions(play.machine)


class TestEquivalenceMachines:
    def test_base_case_is_copycat(self):
        m = equivalence_machine(pf("P"), "TL")
        assert machine_answers(m, [(1, "2.m")]) == ["1.m"]

    @pytest.mark.parametrize("formula,direction", [
        ("!c P", "TL"),
        ("!c P", "LT"),
        ("?c P", "TL"),
        ("?c P", "LT"),
        ("!u P", "TL"),
        ("P & Q", "TL"),
        ("P | Q", "LT"),
        ("!c (P | Q)", "TL"),
    ])
    def test_wins_the_translation_game(self, formula, direction):
        f = pf(formula)
        g = equivalence_game(f, direction)
        for variant in ["enumeration", "sum-parity-even"]:
            itp = interp_for(["P", "Q"], variant)
            for seed in range(12):
                m = equivalence_machine(f, direction)
                env = random_legal_environment(seed, g, itp)
                res = simulate(m, env, SimConfig(horizon=40))
                ok, w = adjudicate(g, itp, res.run)
                assert ok and w is TOP, (formula, direction, variant, seed)

    def test_contraposition_by_component_swap(self):
        # the swapped machine mirrors transcripts of the unswapped one
        from colog.machines import swap_components

        base = equivalence_machine(pf("P"), "TL")
        swapped = swap_components(equivalence_machine(pf("P"), "LT"))
        for seed in range(20):
            env = random_legal_environment(seed, pf("P -> P"), ENUM)
            res_a = simulate(base, env, SimConfig(horizon=30))
            res_b = simulate(swapped, env, SimConfig(horizon=30))
            assert res_a.run == res_b.run


class TestLegalityDiscipline:
    def test_no_catalog_strategy_moves_illegally(self):
        total_moves = 0
        for name in ["copycat", "st-to-cst", "cst-distribution",
                     "cst-elimination", "bridge-old-new", "bridge-new-old"]:
            game = catalog_game(name)
            itp = interp_for(["P", "Q"], "enumeration")
            for seed in range(25):
                m = catalog_machine(name)
                env = random_legal_environment(seed, game, itp)
                res = simulate(m, env, SimConfig(horizon=70))
                assert first_illegal(game, itp, res.run) is None, (name, seed)
                total_moves += 70
        assert total_moves > 10_000  # cycles driven across the catalog


class TestCounterstrategy:
    def test_first_iterations(self):
        env = CounterstrategyLoop()
        res = simulate(SilentMachine(), env, SimConfig(horizon=3, fairness=1, flush=False))
        moves = [lm.move for lm in res.run]
        assert [mv.rsplit(".", 1)[0] for mv in moves] == ["2.", "2.0", "2.1"]
        numerals = [mv.rsplit(".", 1)[1] for mv in moves]
        assert len(set(numerals)) == 3

    def test_zero_grants_no_moves(self):
        env = CounterstrategyLoop()

        class NeverGrant(MachineStrategy):
            name = "busy"

            def next_moves(self, history):
                return ("2..9999",)

        res = simulate(NeverGrant(), env, SimConfig(horizon=3, fairness=10, flush=False))
        assert all(lm.player is TOP for lm in res.run)

    def test_numerals_avoid_the_machine_and_earlier_threads(self):
        env = CounterstrategyLoop()

        class EchoZero(MachineStrategy):
            # opens by playing the numeral 0 into the left component
            name = "echo-zero"

            def next_moves(self, history):
                if not any(lm.player is TOP for lm in history):
                    return ("1..0",)
                return ()

        res = simulate(EchoZero(), env, SimConfig(horizon=6, fairness=1, flush=False))
        numerals = [
            lm.move.rsplit(".", 1)[1] for lm in res.run
        ]
        assert len(set(numerals)) == len(numerals)

    def test_depth_two_projections_separate(self):
        env = CounterstrategyLoop()
        res = simulate(SilentMachine(), env, SimConfig(horizon=7, fairness=1, flush=False))
        comp = strip_prefix(res.run, "2.")
        projections = [project_thread(comp, zeros(b)) for b in ("00", "01", "10", "11")]
        assert len(set(projections)) == 4
