"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time

import pytest

from colog.bits import defusion, fuse_inf, fusions, ones, shortlex, zeros
from colog.calculus import Axiom, check_proof, check_step, parse_proof
from colog.kernel import (
    BOT,
    TOP,
    CirquentGame,
    Labmove,
    adjudicate,
    enumeration_game,
    first_illegal,
    is_delay,
    legal_run,
    negate_run,
    project_cell,
    project_thread,
    run,
    split_indexed,
    split_thread,
    strip_prefix,
    sum_parity_game,
    top_played_game,
    winner,
)
from colog.machines import SilentMachine, SimConfig, random_legal_environment, simulate
from colog.strategies import (
    BridgeNewToOld,
    BridgeOldToNew,
    CounterstrategyLoop,
    CstDistribution,
    CstElimination,
    StToCst,
    catalog_game,
    synthesize,
)
from colog.syntax import Atom, CCoRec, CRec, UCoRec, URec, parse_formula

from oracles import class_reps
from test_calculus import RULE_ILLUSTRATIONS, load_corpus, mutate_proof

CORPUS_PROOFS = [
    "p_implies_p",
    "crec_p_implies_crec_p",
    "conj_commute",
    "crec_duplication",
    "double_undergroup",
]

INTERPRETATION_VARIANTS = [
    lambda names: {n: enumeration_game() for n in names},
    lambda names: {n: sum_parity_game() for n in names},
    lambda names: {n: top_played_game("0") for n in names},
]


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert elapsed < self.seconds, (
                f"{self.label} exceeded its runtime budget "
                f"({elapsed:.1f}s, budget {self.seconds}s)"
            )
            print(f"\n{self.label}: PASS ({elapsed:.1f}s, budget {self.seconds}s)")
        return False


def test_criterion_1_golden_projections():
    with _Budget("criterion 1 (golden projections)", 1):
        g1 = run((TOP, "1.alpha"), (BOT, "2.beta"), (TOP, "1.gamma"), (BOT, "2.delta"))
        assert strip_prefix(g1, "1.") == run((TOP, "alpha"), (TOP, "gamma"))

        g2 = run((BOT, "10.alpha"), (TOP, "111.beta"), (BOT, "1.gamma"), (BOT, "00.alpha"))
        assert project_thread(g2, ones("")) == run((TOP, "beta"), (BOT, "gamma"))

        g3 = run(
            (BOT, "1;100,11.alpha"),
            (TOP, "1;01,100.beta"),
            (BOT, "1;1,1.gamma"),
            (BOT, "2;100,111.delta"),
        )
        assert project_cell(g3, 1, (zeros("1"), ones(""))) == run(
            (BOT, "alpha"), (BOT, "gamma")
        )


def test_criterion_2_golden_fusion_defusion():
    with _Budget("criterion 2 (golden fusion/defusion)", 5):
        assert fusions(["001", "110"]) == ("010110",)
        assert fusions(["01", "110"]) == ("011100", "011110")
        assert defusion("100110101", 2) == ("10111", "0100")
        assert defusion("00110101101001111", 4) == ("00101", "0101", "1011", "1101")
        assert fusions(["000", "11", "001"]) == ("010010001", "010010011")

        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 4)
            xs = [
                zeros("".join(rng.choice("01") for _ in range(rng.randint(0, 6))))
                for _ in range(n)
            ]
            assert defusion(fuse_inf(xs), n) == tuple(xs)


def test_criterion_3_rule_checker():
    with _Budget("criterion 3 (rule checker)", 10):
        for name, (rule, premise, conclusion) in sorted(RULE_ILLUSTRATIONS.items()):
            assert check_step(premise, conclusion, rule) is None, name

        proofs = [load_corpus(n) for n in CORPUS_PROOFS]
        assert check_proof(load_corpus("p_implies_p")) is None
        assert check_proof(load_corpus("crec_p_implies_crec_p")) is None
        for p in proofs:
            assert check_proof(p) is None

        rng = random.Random(99)
        rejected = 0
        while rejected < 500:
            mutant = mutate_proof(rng.choice(proofs), rng)
            if mutant is None:
                continue
            assert check_proof(mutant) is not None, "false accept"
            rejected += 1


def test_criterion_4_synthesis_soundness():
    with _Budget("criterion 4 (synthesis soundness surrogate)", 60):
        for name in CORPUS_PROOFS:
            proof = load_corpus(name)
            machine = synthesize(proof)
            game = CirquentGame(proof.conclusion)
            names = sorted({n for f in proof.conclusion.oformulas
                            for n in _atom_names(f)})
            for variant in INTERPRETATION_VARIANTS:
                itp = variant(names)
                for seed in range(200):
                    env = random_legal_environment(seed, game, itp)
                    result = simulate(machine, env, SimConfig(horizon=200))
                    ok, who = adjudicate(game, itp, result.run)
                    assert ok, (name, seed, "illegal run")
                    assert who is TOP, (name, seed, "loss")


def _atom_names(f):
    from colog.syntax import atoms_of

    return atoms_of(f)


def _two_component_reps(g_run):
    used = []
    for lm in g_run:
        p = split_indexed(lm.move)
        if p is None:
            continue
        t = split_thread(p[1])
        if t is not None and t[1] is not None:
            used.append(t[0])
    return class_reps(used)


def test_criterion_5_bridge_invariants():
    with _Budget("criterion 5 (bridge invariants)", 30):
        itp = {"P": enumeration_game(), "Q": enumeration_game()}

        def sessions(name, build):
            game = catalog_game(name)
            for seed in range(100):
                machine = build()
                env = random_legal_environment(seed, game, itp)
                result = simulate(machine, env, SimConfig(horizon=50))
                assert first_illegal(game, itp, result.run) is None, (name, seed)
                yield machine, result.run

        # mirror of every touched thread between the two components
        for machine, g_run in sessions("bridge-old-new", BridgeOldToNew):
            sigma, pi = strip_prefix(g_run, "1."), strip_prefix(g_run, "2.")
            for v in _two_component_reps(g_run):
                assert project_thread(sigma, v) == negate_run(project_thread(pi, v))

        # leaf images stay prefix-free and only ever insert zeros
        for machine, g_run in sessions("bridge-new-old", BridgeNewToOld):
            images = machine.leaf_map(g_run)
            leaves = sorted(images)
            for i, a in enumerate(leaves):
                for b in leaves[i + 1:]:
                    assert not images[a].startswith(images[b])
                    assert not images[b].startswith(images[a])
            for leaf, image in images.items():
                bits = iter(image)
                assert all(any(c == d for d in bits) for c in leaf)

        for machine, g_run in sessions("st-to-cst", StToCst):
            sigma, pi = strip_prefix(g_run, "1."), strip_prefix(g_run, "2.")
            for v in _two_component_reps(g_run):
                assert project_thread(sigma, v) == negate_run(project_thread(pi, v))

        # the thread address commutes with the inner component index
        for machine, g_run in sessions("cst-distribution", CstDistribution):
            sigma, pi = strip_prefix(g_run, "1."), strip_prefix(g_run, "2.")
            for v in _two_component_reps(g_run):
                left = project_thread(sigma, v)
                for i in "12":
                    assert strip_prefix(left, f"{i}.") == negate_run(
                        project_thread(strip_prefix(pi, f"{i}."), v)
                    )

        # the single root thread of the left component mirrors the right run
        for machine, g_run in sessions("cst-elimination", CstElimination):
            sigma, pi = strip_prefix(g_run, "1."), strip_prefix(g_run, "2.")
            for v in _two_component_reps(g_run):
                assert project_thread(sigma, v) == negate_run(pi)


def test_criterion_6_essential_finiteness_preservation():
    with _Budget("criterion 6 (zero-insertion preserves 1-counts)", 10):
        itp = {"P": enumeration_game()}
        game = catalog_game("bridge-new-old")
        for seed in range(100):
            machine = BridgeNewToOld()
            env = random_legal_environment(seed, game, itp)
            result = simulate(machine, env, SimConfig(horizon=50))
            images = machine.leaf_map(result.run)
            # every target thread v maps to the witnessing thread that follows
            # its leaf's image and then copies v's remaining bits
            targets = _two_component_reps(result.run)
            for v in targets:
                leaf = next(l for l in images if v.startswith(l))
                rest = v.prefix[len(leaf):] if len(v.prefix) > len(leaf) else ""
                z = zeros(images[leaf] + rest)
                assert z.one_count() == v.one_count(), (seed, str(v), str(z))


def test_criterion_7_counterstrategy_mechanism():
    with _Budget("criterion 7 (counterstrategy distinctness)", 5):
        # seven iterations play the first seven addresses: distinctness is
        # observable down to depth two...
        res7 = simulate(SilentMachine(), CounterstrategyLoop(),
                        SimConfig(horizon=7, fairness=1, flush=False))
        comp7 = strip_prefix(res7.run, "2.")
        assert len(comp7) == 7
        depth2 = [project_thread(comp7, zeros(b)) for b in ("00", "01", "10", "11")]
        assert len(set(depth2)) == 4
        numerals = [lm.move.rsplit(".", 1)[1] for lm in res7.run]
        assert len(set(numerals)) == len(numerals)

        # ...and fifteen iterations, covering every address of depth <= 3,
        # separate all eight depth-3 classes
        res15 = simulate(SilentMachine(), CounterstrategyLoop(),
                         SimConfig(horizon=15, fairness=1, flush=False))
        comp15 = strip_prefix(res15.run, "2.")
        depth3 = [
            project_thread(comp15, zeros(format(v, "03b"))) for v in range(8)
        ]
        assert len(set(depth3)) == 8
        numerals = [lm.move.rsplit(".", 1)[1] for lm in res15.run]
        assert len(set(numerals)) == len(numerals)

        # the adversarial interpretation built after the fact from a recorded
        # thread makes the machine lose the recorded session
        y = zeros("101")
        target = project_thread(comp15, y)
        itp = {"P": enumeration_game(loser_runs=lambda g: g == target)}
        game = parse_formula("!c P -> !u P")
        ok, who = adjudicate(game, itp, res15.run)
        assert ok and who is BOT


@pytest.mark.xfail(
    strict=True,
    reason="stated literally, seven iterations reach only depth-2 addresses, "
    "so the eight depth-3 projections collapse to four values; see the "
    "fifteen-iteration variant above for the attainable form",
)
def test_criterion_7_literal_reading():
    res = simulate(SilentMachine(), CounterstrategyLoop(),
                   SimConfig(horizon=7, fairness=1, flush=False))
    comp = strip_prefix(res.run, "2.")
    projections = [project_thread(comp, zeros(format(v, "03b"))) for v in range(8)]
    assert len(set(projections)) == 8


def test_criterion_8_recurrence_agreement_brute_force():
    with _Budget("criterion 8 (finite-run recurrence agreement)", 60):
        P = Atom("P")
        atom = sum_parity_game()
        itp = {"P": atom}
        options = [
            Labmove(p, f"{w}.{n}")
            for p in (TOP, BOT)
            for w in ("", "0", "1")
            for n in ("1", "2")
        ]
        threads = {zeros(format(v, "b").zfill(k) if k else "")
                   for k in range(5) for v in range(2 ** k)}

        total = 0
        for length in range(5):
            for moves in itertools.product(options, repeat=length):
                g_run = tuple(moves)
                rec = winner(CRec(P), itp, g_run)
                urec = winner(URec(P), itp, g_run)
                corec = winner(CCoRec(P), itp, g_run)
                ucorec = winner(UCoRec(P), itp, g_run)
                assert rec is urec
                assert corec is ucorec
                oracle_all = TOP if all(
                    atom.winner(project_thread(g_run, x)) is TOP for x in threads
                ) else BOT
                oracle_some = TOP if any(
                    atom.winner(project_thread(g_run, x)) is TOP for x in threads
                ) else BOT
                assert rec is oracle_all
                assert corec is oracle_some
                total += 1
        assert total == sum(12 ** k for k in range(5))


def test_criterion_9_delay_closure_smoke():
    with _Budget("criterion 9 (static-game delay closure)", 30):
        gamma = run((BOT, "alpha"), (TOP, "alpha"), (BOT, "beta"), (TOP, "gamma"))
        omega = run((BOT, "alpha"), (TOP, "alpha"), (TOP, "gamma"), (BOT, "beta"))
        assert is_delay(omega, gamma, BOT)

        P = Atom("P")
        itp = {"P": sum_parity_game()}
        game = CRec(P)
        moves = [
            Labmove(p, f"{w}.{n}")
            for p in (TOP, BOT)
            for w in ("", "0", "1", "01")
            for n in ("1", "2")
        ]
        rng = random.Random(31)
        checked = 0
        while checked < 500:
            g_run = tuple(rng.choice(moves) for _ in range(rng.randint(1, 7)))
            if winner(game, itp, g_run) is not TOP:
                continue
            delayed = list(g_run)
            for _ in range(rng.randint(1, 5)):
                if len(delayed) < 2:
                    break
                i = rng.randrange(len(delayed) - 1)
                if delayed[i].player is TOP and delayed[i + 1].player is BOT:
                    delayed[i], delayed[i + 1] = delayed[i + 1], delayed[i]
            delayed = tuple(delayed)
            assert is_delay(delayed, g_run, TOP)
            assert legal_run(game, itp, delayed)
            assert winner(game, itp, delayed) is TOP
            checked += 1
