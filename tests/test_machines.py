import copy
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colog.kernel import (
    BOT,
    TOP,
    CirquentGame,
    Labmove,
    ThreadClasses,
    adjudicate,
    bt_structure,
    enumeration_game,
    legal_extension,
    run,
    strip_prefix,
)
from colog.machines import (
    DisciplineError,
    DueMachine,
    MachineStrategy,
    ReplayMachine,
    Router,
    SilentEnvironment,
    SilentMachine,
    SimConfig,
    Tape,
    Translator,
    _move_candidates,
    _Play,
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
    catalog_game,
    catalog_machine,
    equivalence_game,
    equivalence_machine,
    synthesize,
)
from colog.syntax import parse_formula

from oracles import simulate_by_copies
from test_calculus import load_corpus
from test_kernel import POSITIONAL

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


def _nested_promotion():
    f = parse_formula("!c !c P")
    return equivalence_machine(f, "LT"), equivalence_game(f, "LT")


# one machine of each replay kind: a plain fold, a translator chain, a
# router, a router over a thread promotion, a bare thread promotion over a
# machine whose fold state shows when a class replays stale moves, and a
# promotion inside a promotion, whose splits fork plays that are themselves
# promotions
REPLAY_KINDS = {
    "due": lambda: (LiteralCopycat(), parse_formula("P -> P")),
    "translator": _renaming,
    "router": _chain,
    "equivalence": _equivalence,
    "promotion": _promotion,
    "nested-promotion": _nested_promotion,
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


def _stack(machine):
    """Every ``ReplayMachine`` of a machine stack, inner plays included."""
    found, todo = [], [machine]
    while todo:
        x = todo.pop()
        if isinstance(x, ReplayMachine):
            found.append(x)
        if isinstance(x, MachineStrategy):
            todo += vars(x).values()
        elif isinstance(x, _Play):
            todo.append(x.machine)
        elif isinstance(x, ThreadClasses):
            todo += x.positions.values()
        elif type(x) is list:
            todo += x
    return found


def _layers(machine):
    """The machines of a stack reached through translator and router plays,
    the ones a restart keeps."""
    found, todo = [], [machine]
    while todo:
        x = todo.pop()
        found.append(x)
        if isinstance(x, Router):
            todo += [p.machine for p in x._plays]
        elif isinstance(x, Translator):
            todo.append(x._play.machine)
    return found


def _bot_moves(kind, seed=0):
    machine, game = REPLAY_KINDS[kind]()
    g_run = simulate(machine, random_legal_environment(seed, game, ENUM),
                     SimConfig(horizon=40)).run
    return [lm for lm in g_run if lm.player is BOT]


class Counting(DueMachine):
    """A silent machine that counts the queries it is asked."""

    name = "counting"
    calls = 0

    def next_moves(self, history):
        self.calls += 1
        return self._answer(history)

    def respond(self, state, lm):
        return []


class TestTape:
    REWRITES = {
        "setitem": lambda t: t.__setitem__(0, "x"),
        "setslice": lambda t: t.__setitem__(slice(0, 1), ["x"]),
        "delitem": lambda t: t.__delitem__(0),
        "insert": lambda t: t.insert(0, "x"),
        "pop": lambda t: t.pop(),
        "remove": lambda t: t.remove("a"),
        "clear": lambda t: t.clear(),
        "sort": lambda t: t.sort(),
        "reverse": lambda t: t.reverse(),
        "imul": lambda t: t.__imul__(2),
    }

    @pytest.mark.parametrize("rewrite", sorted(REWRITES))
    def test_rejects_every_in_place_rewrite(self, rewrite):
        tape = Tape(["b", "a"])
        with pytest.raises(TypeError, match="append-only"):
            self.REWRITES[rewrite](tape)
        assert tape == ["b", "a"]

    def test_grows_and_reads_like_a_list(self):
        tape = Tape()
        tape.append("a")
        tape.extend(["b", "c"])
        tape += ["d"]
        assert tape == ["a", "b", "c", "d"] and type(tape) is Tape
        assert tape[1:3] == ["b", "c"] and tuple(tape) == ("a", "b", "c", "d")

    def test_deep_copy_shares_items_and_aliases(self):
        tape = Tape([Labmove(BOT, "1.m")])
        a, b = copy.deepcopy((tape, tape))
        assert a is b and a is not tape and type(a) is Tape
        assert a == tape and a[0] is tape[0]
        # the copy is registered in the memo it is handed
        memo = {}
        c = tape.__deepcopy__(memo)
        assert copy.deepcopy(tape, memo) is c


class TestSharedTape:
    @pytest.mark.parametrize("kind", sorted(REPLAY_KINDS))
    def test_a_growing_tape_answers_as_a_fresh_machine(self, kind):
        make = REPLAY_KINDS[kind]
        machine, game = make()
        runs = [simulate(machine, random_legal_environment(seed, game, ENUM),
                         SimConfig(horizon=40)).run for seed in range(2)]
        probe, tape = make()[0], Tape()
        for lm in runs[0]:
            tape.append(lm)
            assert probe.next_moves(tape) == make()[0].next_moves(tuple(tape)), (kind, len(tape))
        # an equal tuple extends the tape by content
        assert probe.next_moves(runs[0]) == make()[0].next_moves(runs[0])
        assert probe.restarts == 0
        # a shorter history and a diverging one restart
        cut = runs[0][: len(runs[0]) // 2]
        assert probe.next_moves(cut) == make()[0].next_moves(cut)
        assert probe.restarts == 1
        assert probe.next_moves(runs[1]) == make()[0].next_moves(runs[1])
        assert probe.restarts == 2
        # the same object, shortened in place, does not extend what it was
        history = list(runs[0])
        probe.next_moves(history)
        restarts = probe.restarts
        del history[len(history) // 2:]
        assert probe.next_moves(history) == make()[0].next_moves(tuple(history))
        assert probe.restarts == restarts + 1

    @pytest.mark.parametrize("kind", sorted(REPLAY_KINDS))
    def test_no_restarts_under_the_scheduler(self, kind, monkeypatch):
        machine, game = REPLAY_KINDS[kind]()
        monkeypatch.setattr(machine, "fresh", lambda: machine)  # keep the played copy
        res = simulate(machine, random_legal_environment(1, game, ENUM), SimConfig(horizon=60))
        stack = _stack(machine)
        assert len(res.run) > 10 and stack[0] is machine
        assert not any(m.restarts for m in stack)
        if kind == "nested-promotion":
            assert sum(isinstance(m, ThreadPromotion) for m in stack) > 2

    def test_a_restart_keeps_its_inner_machines(self):
        # a restart hands each inner machine a new empty tape, not a copy of
        # it; the inner machine restarts itself there, once
        machine, game = _nested_promotion()
        g_run = simulate(machine, random_legal_environment(0, game, ENUM),
                         SimConfig(horizon=40)).run
        probe = _nested_promotion()[0]
        probe.next_moves(g_run)
        layers = _layers(probe)
        assert len(g_run) > 30 and len(layers) > 5
        half = g_run[: len(g_run) // 2]
        assert probe.next_moves(half) == _nested_promotion()[0].next_moves(half)
        assert all(x is y for x, y in zip(_layers(probe), layers, strict=True))
        restarts = [m.restarts for m in _stack(probe)]
        assert probe.restarts == 1 and sum(restarts) > 1 and max(restarts) == 1

    @pytest.mark.parametrize("kind", sorted(REPLAY_KINDS))
    def test_a_cloned_play_keeps_its_machine_on_its_own_tape(self, kind):
        def played(bots):
            play = _Play(REPLAY_KINDS[kind]()[0])
            play.drain()
            for lm in bots:
                play.absorb(lm)
            return play

        bots = _bot_moves(kind)
        assert len(bots) > 8
        play = played(())
        for i, lm in enumerate(bots):
            play.absorb(lm)
            if i % 4:
                continue
            twin = play.clone()
            assert twin.machine._prefix is twin.tape is not play.tape
            assert twin.tape == play.tape
            assert all(x is y for x, y in zip(twin.tape, play.tape))
            for later in bots[i + 1:i + 4]:
                twin.absorb(later)
            assert twin.moves == played(bots[:i + 4]).moves, (kind, i)
            assert not any(m.restarts for m in _stack(twin.machine))
        assert not any(m.restarts for m in _stack(play.machine))

    def test_an_idle_play_is_not_asked_again(self):
        router = compose_chain(Counting(), Counting())
        first, second = (p.machine for p in router._plays)
        tape = Tape()
        router.next_moves(tape)
        router.next_moves(tape)
        assert (first.calls, second.calls) == (1, 1)
        tape.append(Labmove(BOT, "1.m"))  # reaches the first inner tape only
        assert router.next_moves(tape) == ()
        assert (first.calls, second.calls) == (2, 1)
        play = router._plays[1]
        play.step()
        play.drain()
        assert second.calls == 1
        twin = play.clone()
        twin.step()
        twin.drain()
        assert twin.machine.calls == 1 and twin.idle == play.idle == 0


class TestReplayProperty:
    @pytest.mark.parametrize("kind", sorted(REPLAY_KINDS))
    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(seed=st.integers(0, 10 ** 6), horizon=st.integers(1, 60))
    def test_simulate_replays_bit_for_bit(self, kind, seed, horizon):
        machine, game = REPLAY_KINDS[kind]()
        env = random_legal_environment(seed, game, ENUM)
        cfg = SimConfig(horizon=horizon)
        first = simulate(machine, env, cfg)
        assert simulate(machine, env, cfg) == first
        assert simulate_by_copies(machine, env, cfg) == first


def _catalog(name, itp=ENUM):
    return lambda: (catalog_machine(name), catalog_game(name), itp)


def _equivalence_env(text, direction):
    f = parse_formula(text)
    return lambda: (equivalence_machine(f, direction), equivalence_game(f, direction), ENUM)


def _cirquent_env():
    proof = load_corpus("crec_duplication")
    return synthesize(proof), CirquentGame(proof.conclusion), POSITIONAL


# games whose environment keeps state: tree-form recurrences, nested ones
# whose thread classes each keep a tree, and positional atoms
# (two_moves_each_game) under a recurrence and in a cirquent
ENV_KINDS = {
    "old-new": _catalog("bridge-old-new"),
    "new-old": _catalog("bridge-new-old"),
    "!c !c P TL": _equivalence_env("!c !c P", "TL"),
    "!c !c P LT": _equivalence_env("!c !c P", "LT"),
    "cirquent": _cirquent_env,
    "positional": _catalog("bridge-old-new", POSITIONAL),
}


class TestEnvironmentReplay:
    @pytest.mark.parametrize("kind", sorted(ENV_KINDS))
    def test_answers_match_a_fresh_environment(self, kind):
        machine, game, itp = ENV_KINDS[kind]()
        runs = [
            simulate(machine, random_legal_environment(seed, game, itp),
                     SimConfig(horizon=50)).run
            for seed in range(3)
        ]
        assert all(len(r) > 4 for r in runs)
        # diverging histories of equal and growing length, and shorter ones
        queries = []
        for quarter in (1, 2, 3, 4):
            for r in runs:
                queries.append(r[: len(r) * quarter // 4])
            queries.append(runs[0][: len(runs[0]) * quarter // 8])
        queries += [runs[1][:i] for i in range(0, len(runs[1]) + 1, 3)]
        probe = random_legal_environment(7, game, itp)
        moved = 0
        for n, h in enumerate(queries):
            for grant_no in (n, n + 50):
                answer = probe.on_grant(h, grant_no)
                assert answer == random_legal_environment(7, game, itp).on_grant(
                    h, grant_no), (kind, len(h), grant_no)
                moved += bool(answer)
            # once folded, the trees the candidates read are those of the
            # history's components
            if probe._history == h:
                for s in range(2):
                    assert _move_candidates(game, itp, probe._tree, Random(s)) == (
                        _move_candidates(game, itp,
                                         lambda at: bt_structure(strip_prefix(h, at)),
                                         Random(s)))
        assert moved > len(queries) // 2
