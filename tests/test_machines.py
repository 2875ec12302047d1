import pytest

from colog.kernel import (
    BOT,
    TOP,
    CirquentGame,
    Labmove,
    adjudicate,
    enumeration_game,
    legal_extension,
    run,
)
from colog.machines import (
    DisciplineError,
    DueMachine,
    MachineStrategy,
    SilentEnvironment,
    SilentMachine,
    SimConfig,
    compose_chain,
    compose_modus_ponens,
    random_legal_environment,
    scripted_environment,
    simulate,
    swap_components,
)
from colog.strategies import (
    BridgeNewToOld,
    BridgeOldToNew,
    LiteralCopycat,
    ThreadPromotion,
    equivalence_game,
    equivalence_machine,
    synthesize,
)
from colog.syntax import parse_formula

from test_calculus import load_corpus

ENUM = {"P": enumeration_game(), "Q": enumeration_game()}


class TestScheduler:
    def test_silent_pair(self):
        res = simulate(SilentMachine(), SilentEnvironment(), SimConfig(horizon=10))
        assert res.run == ()
        assert res.grants == 10

    def test_copycat_answers(self):
        env = scripted_environment([(1, "2.m")])
        res = simulate(LiteralCopycat(), env, SimConfig(horizon=10))
        assert res.run == run((BOT, "2.m"), (TOP, "1.m"))

    def test_fairness_forces_grants(self):
        res = simulate(SilentMachine(), SilentEnvironment(), SimConfig(horizon=100, fairness=1))
        assert res.grants == 100

    def test_determinism(self):
        env = random_legal_environment(5, parse_formula("P -> P"), ENUM)
        a = simulate(LiteralCopycat(), env, SimConfig(horizon=40))
        b = simulate(LiteralCopycat(), env, SimConfig(horizon=40))
        assert a.run == b.run
        assert a.trace == b.trace

    def test_epm_discipline_enforced(self):
        class Block(MachineStrategy):
            discipline = "EPM"
            name = "block"

            def next_moves(self, history):
                return ("a", "b")

        with pytest.raises(DisciplineError):
            simulate(Block(), SilentEnvironment(), SimConfig(horizon=3))

    def test_flush_lets_pending_answers_out(self):
        # the environment moves on the very last grant; flushing gives the
        # machine its responses past the horizon
        env = scripted_environment([(2, "2.m")])
        cfg = SimConfig(horizon=2, flush=True)
        res = simulate(LiteralCopycat(), env, cfg)
        assert res.run[-1] == Labmove(TOP, "1.m")
        cfg2 = SimConfig(horizon=2, flush=False)
        res2 = simulate(LiteralCopycat(), env, cfg2)
        assert res2.run[-1] == Labmove(BOT, "2.m")

    def test_trace_formats(self):
        env = scripted_environment([(1, "2.m")])
        res = simulate(LiteralCopycat(), env, SimConfig(horizon=3))
        assert "grant" in res.trace_lines()
        assert "B 2.m" in res.trace_lines()
        assert res.transcript().splitlines()[0] == "B 2.m"


class TestScriptedEnvironment:
    def test_empty_script_is_silent(self):
        env = scripted_environment([])
        assert env.on_grant((), 1) == ()

    def test_single_move_at_first_grant(self):
        env = scripted_environment([(1, "2.m")])
        res = simulate(SilentMachine(), env, SimConfig(horizon=5))
        assert [lm for lm in res.run if lm.player is BOT] == [Labmove(BOT, "2.m")]

    def test_record_replay_identity(self):
        game = parse_formula("P -> P")
        env = random_legal_environment(17, game, ENUM)
        first = simulate(LiteralCopycat(), env, SimConfig(horizon=30))
        script = []
        grant = 0
        for ev in first.trace:
            if ev.kind in ("grant", "forced-grant"):
                grant += 1
            elif ev.actor == "env":
                script.append((grant, ev.move))
        replayed = simulate(LiteralCopycat(), scripted_environment(script),
                            SimConfig(horizon=30))
        assert replayed.run == first.run


class TestRandomEnvironment:
    def test_deterministic_per_seed(self):
        game = parse_formula("!c P | ?c Q")
        env = random_legal_environment(3, game, ENUM)
        a = simulate(SilentMachine(), env, SimConfig(horizon=50))
        b = simulate(SilentMachine(), env, SimConfig(horizon=50))
        assert a.run == b.run

    def test_moves_are_legal(self):
        game = parse_formula("!o P -> !c P")
        count = 0
        for seed in range(40):
            env = random_legal_environment(seed, game, ENUM)
            history = []
            for grant in range(1, 40):
                for mv in env.on_grant(tuple(history), grant):
                    assert legal_extension(game, ENUM, tuple(history), Labmove(BOT, mv))
                    history.append(Labmove(BOT, mv))
                    count += 1
        assert count > 100

    def test_both_components_get_traffic(self):
        game = parse_formula("P | P")
        seen = set()
        for seed in range(60):
            env = random_legal_environment(seed, game, ENUM)
            for mv in env.on_grant((), 1):
                seen.add(mv[:2])
        assert {"1.", "2."} <= seen


class TestComposition:
    def test_silent_operands_compose_silently(self):
        n = LiteralCopycat()
        res = simulate(
            compose_modus_ponens(n, SilentMachine()), SilentEnvironment(), SimConfig(horizon=10)
        )
        assert res.run == ()

    def test_copycat_is_identity(self):
        # composing with a copycat for A -> A is observationally equivalent
        # to the bare machine
        class FixedResponder(DueMachine):
            name = "responder"

            def respond(self, state, lm):
                return [f"r{lm.move}"]

        game = parse_formula("P -> P")
        for seed in range(100):
            env = random_legal_environment(seed, game, ENUM)

            # scripts drive the composite and the bare machine identically
            composite = compose_modus_ponens(LiteralCopycat(), FixedResponder())
            bare = FixedResponder()
            res_a = simulate(composite, env, SimConfig(horizon=20))
            res_b = simulate(bare, env, SimConfig(horizon=20))
            assert res_a.run == res_b.run

    def test_modus_ponens_wins_the_consequent(self):
        # n wins P -> P trivially; m wins the enumeration game by moving 0
        # first; the composite inherits m's behavior on the consequent
        class MoveZeroFirst(MachineStrategy):
            name = "zero-first"

            def next_moves(self, history):
                if not any(lm.player is TOP for lm in history):
                    return ("0",)
                return ()

        itp = {"P": enumeration_game(loser_runs=lambda g: not any(
            lm == Labmove(TOP, "0") for lm in g))}
        game = parse_formula("P")
        wins = 0
        for seed in range(100):
            env = random_legal_environment(seed, game, itp)
            m = compose_modus_ponens(LiteralCopycat(), MoveZeroFirst())
            res = simulate(m, env, SimConfig(horizon=30))
            ok, w = adjudicate(game, itp, res.run)
            wins += (ok and w is TOP)
        assert wins == 100

    def test_swap_components(self):
        env = scripted_environment([(1, "1.m"), (2, "2.k")])
        res = simulate(swap_components(LiteralCopycat()), env, SimConfig(horizon=10))
        answers = [lm.move for lm in res.run if lm.player is TOP]
        assert answers == ["2.m", "1.k"]


def _chain():
    return compose_chain(BridgeOldToNew(), BridgeNewToOld()), parse_formula("!o P -> !o P")


def _renaming():
    proof = load_corpus("crec_p_implies_crec_p")
    return synthesize(proof), CirquentGame(proof.conclusion)


def _equivalence():
    f = parse_formula("!c P")
    return equivalence_machine(f, "TL"), equivalence_game(f, "TL")


def _promotion():
    return ThreadPromotion(BridgeOldToNew()), parse_formula("!u (!o P -> !c P)")


# one machine of each replay kind: a plain fold, a translator chain, a
# router, a router over a thread promotion, and a bare thread promotion over
# a machine whose fold state shows when a class replays stale moves
REPLAY_KINDS = {
    "due": lambda: (LiteralCopycat(), parse_formula("P -> P")),
    "translator": _renaming,
    "router": _chain,
    "equivalence": _equivalence,
    "promotion": _promotion,
}


class TestReplayability:
    @pytest.mark.parametrize("kind", sorted(REPLAY_KINDS))
    def test_answers_match_a_fresh_machine(self, kind):
        make = REPLAY_KINDS[kind]
        machine, game = make()
        runs = [
            simulate(machine, random_legal_environment(seed, game, ENUM),
                     SimConfig(horizon=40)).run
            for seed in range(3)
        ]
        assert all(len(r) > 4 for r in runs)
        # diverging histories of equal and growing length, shorter ones, and
        # cuts just after an environment move, where an answer is pending
        queries = []
        for quarter in (1, 2, 3, 4):
            for r in runs:
                queries.append(r[: len(r) * quarter // 4])
            queries.append(runs[0][: len(runs[0]) * quarter // 8])
        after_env = [[r[: i + 1] for i, lm in enumerate(r) if lm.player is BOT] for r in runs]
        for cuts in zip(*after_env):
            queries += cuts
        probe = make()[0]
        pending = 0
        for h in queries:
            answer = probe.next_moves(h)
            assert answer == make()[0].next_moves(h), (kind, len(h))
            pending += bool(answer)
        assert pending > 0

    @pytest.mark.parametrize("kind", sorted(REPLAY_KINDS))
    def test_a_foreign_own_move_is_out_of_sync(self, kind):
        machine, game = REPLAY_KINDS[kind]()
        g_run = simulate(machine, random_legal_environment(0, game, ENUM),
                         SimConfig(horizon=40)).run
        i = next(i for i, lm in enumerate(g_run) if lm.player is TOP)
        forged = g_run[:i] + (Labmove(TOP, g_run[i].move + "0"),) + g_run[i + 1:]
        with pytest.raises(RuntimeError, match="out of sync"):
            machine.next_moves(forged)

    def test_machine_state_is_a_function_of_history(self):
        m = LiteralCopycat()
        h1 = run((BOT, "1.m"))
        h2 = run((BOT, "2.k"))
        # interleaved queries on diverging histories stay consistent
        assert m.next_moves(h1) == ("2.m",)
        assert m.next_moves(h2) == ("1.k",)
        assert m.next_moves(h1) == ("2.m",)

    def test_fresh_copies_do_not_share_state(self):
        m = LiteralCopycat()
        m.next_moves(run((BOT, "1.m")))
        clone = m.fresh()
        assert clone.next_moves(()) == ()
        assert m.next_moves(run((BOT, "1.m"))) == ("2.m",)
