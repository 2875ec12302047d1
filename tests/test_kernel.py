import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colog.bits import ones, zeros
from colog.calculus import parse_proof
from colog.kernel import (
    BOT,
    TOP,
    CirquentGame,
    FiniteAtomGame,
    Labmove,
    LegalPosition,
    adjudicate,
    bt_structure,
    cells_projections,
    enumeration_game,
    first_illegal,
    format_run,
    is_delay,
    join_cell,
    legal_extension,
    legal_run,
    negate_run,
    parse_run,
    position_free,
    project_cell,
    project_thread,
    run,
    split_thread,
    strip_prefix,
    sum_parity_game,
    thread_projections,
    winner,
)
from colog.machines import SimConfig, _move_candidates, random_legal_environment, simulate
from colog.strategies import catalog_game, catalog_machine, synthesize
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
    negate,
)

from oracles import (
    cell_projections,
    class_addresses,
    class_reps,
    leaf_prefix_of,
    leaves_all_pairs,
    legal_extension_by_projection,
    position_free_by_structure,
    thread_class_reps,
)

P = Atom("P")
ENUM = {"P": enumeration_game(), "Q": enumeration_game()}


def random_run(rng, length, movesets):
    return tuple(
        Labmove(rng.choice([TOP, BOT]), rng.choice(movesets)) for _ in range(length)
    )


class TestRunBasics:
    def test_negate_run(self):
        assert negate_run(()) == ()
        assert negate_run(run((TOP, "a"))) == run((BOT, "a"))

    def test_negate_run_involution(self):
        rng = random.Random(1)
        for _ in range(1000):
            g = random_run(rng, rng.randint(0, 8), ["a", "b", "1.c"])
            assert negate_run(negate_run(g)) == g

    def test_transcript_round_trip(self):
        g = run((BOT, "1;100,11.alpha"), (TOP, "0:"), (TOP, "2.m"))
        assert parse_run(format_run(g)) == g


class TestProjections:
    def test_component_projection(self):
        g = run((TOP, "1.alpha"), (BOT, "2.beta"), (TOP, "1.gamma"), (BOT, "2.delta"))
        assert strip_prefix(g, "1.") == run((TOP, "alpha"), (TOP, "gamma"))

    def test_component_projection_empty(self):
        assert strip_prefix((), "1.") == ()

    def test_components_partition_parallel_runs(self):
        rng = random.Random(2)
        for _ in range(300):
            g = random_run(rng, rng.randint(0, 8), ["1.a", "1.b", "2.a", "2.c"])
            assert len(strip_prefix(g, "1.")) + len(strip_prefix(g, "2.")) == len(g)

    def test_thread_projection(self):
        g = run((BOT, "10.alpha"), (TOP, "111.beta"), (BOT, "1.gamma"), (BOT, "00.alpha"))
        assert project_thread(g, ones("")) == run((TOP, "beta"), (BOT, "gamma"))

    def test_thread_projection_misses_everything(self):
        g = run((BOT, "10.alpha"), (TOP, "111.beta"))
        assert project_thread(g, zeros("")) == ()

    def test_projection_selects_by_prefix_only(self):
        # brute force: runs of <= 4 moves with addresses of length <= 2
        addresses = ["", "0", "1", "00", "01", "10", "11"]
        moves = [f"{w}.m" for w in addresses]
        rng = random.Random(3)
        for _ in range(400):
            g = random_run(rng, rng.randint(0, 4), moves)
            for x in [zeros("0"), zeros("1"), zeros("01"), ones("")]:
                ref = tuple(lm for lm in g if x.startswith(split_thread(lm.move)[0]))
                assert project_thread(g, x) == tuple(
                    Labmove(lm.player, split_thread(lm.move)[1]) for lm in ref
                )

    def test_cell_projection(self):
        g = run(
            (BOT, "1;100,11.alpha"),
            (TOP, "1;01,100.beta"),
            (BOT, "1;1,1.gamma"),
            (BOT, "2;100,111.delta"),
        )
        assert project_cell(g, 1, (zeros("1"), ones(""))) == run(
            (BOT, "alpha"), (BOT, "gamma")
        )

    def test_cell_projection_missing_cell(self):
        g = run((BOT, "1;100,11.alpha"),)
        assert project_cell(g, 3, (zeros(""), zeros(""))) == ()

    def test_cell_projection_no_coordinates(self):
        g = run((BOT, "1;.alpha"), (TOP, "2;.beta"), (BOT, "1;.gamma"))
        assert project_cell(g, 1, ()) == run((BOT, "alpha"), (BOT, "gamma"))


def _drawn_run(data, moves):
    return tuple(data.draw(st.lists(
        st.builds(Labmove, st.sampled_from([TOP, BOT]), st.sampled_from(moves)),
        max_size=8)))


class TestCellProjections:
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.data())
    def test_one_pass_matches_per_cell(self, data):
        # the one joint fold gives the set of per-cell projection vectors
        # that the joint representatives give, from no more classes
        n_coords = data.draw(st.integers(0, 3))
        n_cells = data.draw(st.integers(1, 3))
        addresses = ["", "0", "1", "00", "01", "10", "110"]
        coords = st.lists(st.sampled_from(addresses), min_size=n_coords, max_size=n_coords)
        moves = data.draw(st.lists(
            st.builds(lambda a, us, i: f"{a};{','.join(us)}.m{i}",
                      st.integers(1, n_cells + 1),  # one cell past the listed ones
                      coords, st.sampled_from([1, 2])),
            min_size=1, max_size=6)) + ["junk"]
        g = _drawn_run(data, moves)
        cells = range(1, n_cells + 1)
        together = cells_projections(g, cells, n_coords)
        assert list(together) == list(cells)
        n_classes = len(together[1])
        assert all(len(subs) == n_classes for subs in together.values())
        ref = [cell_projections(g, a, n_coords) for a in cells]
        assert n_classes <= len(ref[0])
        assert set(zip(*together.values())) == set(zip(*ref))


class TestThreadClasses:
    def test_no_addresses(self):
        assert thread_class_reps(()) == (zeros(""),)

    def test_single_address(self):
        assert class_reps(["1"]) == (zeros("0"), zeros("10"), zeros("11"))

    def test_every_member_of_a_class_projects_alike(self):
        addresses = ["", "0", "1", "00", "01"]
        moves = [f"{w}.m" for w in addresses]
        rng = random.Random(4)
        for _ in range(300):
            g = random_run(rng, rng.randint(0, 3), moves)
            for addr in class_addresses(w for w, _ in map(lambda lm: split_thread(lm.move), g)):
                rep_proj = project_thread(g, zeros(addr))
                for _ in range(10):
                    suffix = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
                    member = zeros(addr + suffix) if rng.random() < 0.7 else ones(addr + suffix)
                    assert project_thread(g, member) == rep_proj

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.data())
    def test_thread_projections_match_reps(self, data):
        # the fold gives the set of projections that the representatives
        # give, from no more classes
        addresses = ["", "0", "1", "00", "01", "10", "11", "011"]
        moves = [f"{w}.m{i}" for w in addresses for i in (1, 2)] + ["0:", "junk"]
        g = _drawn_run(data, moves)
        reps = thread_class_reps(g)
        projections = thread_projections(g)
        assert set(projections) == {project_thread(g, x) for x in reps}
        assert len(projections) <= len(reps)

    def test_cirquent_reps_cross_product(self):
        g = run((BOT, "1;1,0.m"),)
        reps = thread_class_reps(g, 2)
        assert len(reps) == 3 * 3
        assert all(len(t) == 2 for t in reps)


class TestBTStructure:
    def test_empty_position(self):
        t = bt_structure(())
        assert t.nodes == frozenset({""})
        assert t.leaves() == ("",)

    def test_one_replication(self):
        t = bt_structure(run((BOT, ":")))
        assert t.nodes == frozenset({"", "0", "1"})
        assert t.leaves() == ("0", "1")

    def test_two_replications(self):
        t = bt_structure(run((BOT, ":"), (BOT, "1:")))
        assert set(t.leaves()) == {"0", "10", "11"}

    def test_leaf_prefix(self):
        t = bt_structure(run((BOT, ":"), (BOT, "1:")))
        assert leaf_prefix_of(t, "110") == "11"
        assert leaf_prefix_of(t, "00") == "0"

    def test_leaves_match_all_pairs_definition(self):
        # trees built by legal replications, each at a leaf of the tree so
        # far, and by replications anywhere, on the tree or off it
        rng = random.Random(15)
        for anywhere in (False, True):
            for _ in range(100):
                pos = ()
                for _ in range(rng.randint(0, 25)):
                    t = bt_structure(pos)
                    assert t.leaves() == leaves_all_pairs(t)
                    assert all(t.is_leaf(u) == (u in t.leaves()) for u in t.nodes)
                    if anywhere:
                        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
                    else:
                        w = rng.choice(t.leaves())
                    pos += (Labmove(BOT, w + ":"),)
                t = bt_structure(pos)
                assert t.leaves() == leaves_all_pairs(t)

    def test_off_tree_replication_keeps_its_ancestors_inner(self):
        # after ":" and the off-tree "00:", the node "0" has the proper
        # extension "000", so it is no leaf
        t = bt_structure(run((BOT, ":"), (BOT, "00:")))
        assert not t.is_leaf("0")
        assert t.leaves() == ("1", "000", "001")


class TestLegality:
    def test_parallel_components_only(self):
        g = And(P, P)
        assert not legal_extension(g, ENUM, (), Labmove(TOP, "3.0"))
        assert legal_extension(g, ENUM, (), Labmove(TOP, "2.0"))

    def test_recurrence_over_permissive_atom(self):
        g = CRec(P)
        for player in (TOP, BOT):
            assert legal_extension(g, ENUM, (), Labmove(player, "01.7"))

    def test_tree_recurrence_replication_rules(self):
        g = OldCRec(P)
        assert not legal_extension(g, ENUM, (), Labmove(TOP, ":"))
        assert legal_extension(g, ENUM, (), Labmove(BOT, ":"))
        # replication must happen at a leaf
        pos = run((BOT, ":"))
        assert not legal_extension(g, ENUM, pos, Labmove(BOT, ":"))
        assert legal_extension(g, ENUM, pos, Labmove(BOT, "0:"))
        # addressed moves must sit at nodes
        assert legal_extension(g, ENUM, pos, Labmove(TOP, "1.4"))
        assert not legal_extension(g, ENUM, pos, Labmove(TOP, "10.4"))

    def test_malformed_is_illegal_not_an_error(self):
        assert not legal_extension(CRec(P), ENUM, (), Labmove(TOP, "xyz"))
        assert not legal_extension(CirquentGame(make_cirquent([P], [{1}], [{1}])),
                                   ENUM, (), Labmove(TOP, "nope"))

    def test_cirquent_coordinate_constraint(self):
        c = make_cirquent([P, Atom("Q")], [{1, 2}], [{1}, {2}])
        g = CirquentGame(c)
        # oformula 1 is not in overgroup 2, so its second coordinate stays empty
        assert legal_extension(g, ENUM, (), Labmove(BOT, "1;0,.3"))
        assert not legal_extension(g, ENUM, (), Labmove(BOT, "1;0,1.3"))

    def test_prefix_monotone(self):
        rng = random.Random(6)
        g = Or(CRec(P), UCoRec(NegAtom("Q")))
        moves = [f"1.{w}.{n}" for w in ("", "0", "1") for n in ("2", "5")]
        moves += [f"2.{w}.{n}" for w in ("", "1") for n in ("3", "8")]
        for _ in range(200):
            g_run = random_run(rng, rng.randint(0, 6), moves)
            if legal_run(g, ENUM, g_run):
                for i in range(len(g_run)):
                    assert legal_run(g, ENUM, g_run[:i])

    def test_whole_run_check_matches_stepwise(self):
        rng = random.Random(7)
        g = Or(OldCRec(P), CRec(P))
        moves = ["1.:", "1.0:", "1..4", "1.0.4", "1.10.5", "2.0.4", "2..9", "1.bad", "2.xyz"]
        for _ in range(400):
            g_run = random_run(rng, rng.randint(0, 6), moves)
            stepwise = first_illegal_by_prefixes(g, ENUM, g_run)
            assert legal_run(g, ENUM, g_run) == (stepwise is None)
            assert first_illegal(g, ENUM, g_run) == stepwise


def first_illegal_by_prefixes(g, itp, g_run):
    """Reference for first_illegal: the first labmove that the projecting
    reference of legal_extension rejects after the prefix before it."""
    for i in range(len(g_run)):
        if not legal_extension_by_projection(g, itp, g_run[:i], g_run[i]):
            return i
    return None


def assert_first_illegal_matches(g, itp, g_run):
    """first_illegal, legal_run and adjudicate agree with the prefix
    reference; returns the reference's index."""
    want = first_illegal_by_prefixes(g, itp, g_run)
    assert first_illegal(g, itp, g_run) == want, (g, g_run)
    assert legal_run(g, itp, g_run) == (want is None)
    if want is not None:
        assert adjudicate(g, itp, g_run) == (False, g_run[want].player.flip())
    return want


def two_moves_each_game():
    """Positional: numerals only, and each player moves at most twice."""
    return FiniteAtomGame(
        "two-moves-each",
        legal=lambda pos, lm: lm.move.isdigit()
        and sum(p.player is lm.player for p in pos) < 2,
        winner=lambda g: TOP,
    )


Q = Atom("Q")
POSITIONAL = {"P": two_moves_each_game(), "Q": enumeration_game()}
LEGALITY_SHAPES = [
    P,
    NegAtom("P"),
    And(P, Q),
    Or(P, NegAtom("Q")),
    CRec(P),
    URec(P),
    CCoRec(NegAtom("P")),
    UCoRec(P),
    CRec(And(P, CCoRec(Q))),
    Or(URec(P), CRec(NegAtom("Q"))),
    OldCRec(P),
    OldCCoRec(P),
    OldCRec(Or(P, CRec(Q))),
    CRec(OldCCoRec(P)),
    CirquentGame(make_cirquent([P, CRec(Q)], [{1, 2}], [{1, 2}, {2}])),
    CirquentGame(make_cirquent([OldCRec(P), NegAtom("P"), Q], [{1, 2}, {3}],
                               [{1, 3}, {2}])),
    # a position-free first cell before a positional one
    CirquentGame(make_cirquent([Q, P], [{1, 2}], [{1, 2}, {2}])),
]


# nested tree-form recurrences, whose thread classes each keep a tree, and a
# tree-form recurrence under a conjunction
NESTED_SHAPES = [
    OldCCoRec(OldCCoRec(NegAtom("P"))),
    OldCRec(OldCRec(P)),
    And(OldCRec(P), Q),
    Or(Q, And(OldCCoRec(P), CRec(P))),
]


def _move_pool(g, rng, size=10):
    """Moves for g, legal and not: malformed shapes, components and
    oformulas out of range, replications by either player anywhere,
    addresses off the replication tree, coordinates outside overgroups."""
    match g:
        case Atom(_) | NegAtom(_):
            out = ["0", "1", "2", "x", ""]
        case And(l, r) | Or(l, r):
            out = [f"1.{m}" for m in _move_pool(l, rng)]
            out += [f"2.{m}" for m in _move_pool(r, rng)]
            out += ["3.0", "junk"]
        case CRec(body) | CCoRec(body) | URec(body) | UCoRec(body):
            out = [f"{w}.{m}" for w in ("", "0", "1", "01") for m in _move_pool(body, rng)]
            out += ["0:", "x"]
        case OldCRec(body) | OldCCoRec(body):
            out = [f"{w}:" for w in ("", "", "0", "1", "00")]
            out += [f"{w}.{m}" for w in ("", "0", "1", "10") for m in _move_pool(body, rng)]
            out += ["x"]
        case CirquentGame(c):
            out = []
            for a in range(1, len(c.oformulas) + 2):
                sub = _move_pool(c.oformulas[a - 1], rng) if a <= len(c.oformulas) else ["0"]
                for m in sub:
                    coords = [rng.choice(["", "0", "1"]) if a in og or rng.random() < 0.1
                              else "" for og in c.overgroups]
                    out.append(f"{a};{','.join(coords)}.{m}")
            out += ["nope", "1;0.1"]
    return rng.sample(out, min(size, len(out)))


def _mostly_legal_run(g, itp, rng, length, pool):
    """Random labmoves from the pool, most of them legal extensions, so
    that offenders also come late in the run."""
    out = ()
    for _ in range(length):
        options = [Labmove(p, m) for p in (TOP, BOT) for m in pool]
        legal = [lm for lm in options if legal_extension(g, itp, out, lm)]
        out += (rng.choice(legal if legal and rng.random() < 0.85 else options),)
    return out


class TestFirstIllegal:
    def test_every_shape_matches_prefix_reference(self):
        rng = random.Random(13)
        illegal = late = 0
        for g in LEGALITY_SHAPES:
            for itp in (ENUM, POSITIONAL):
                for _ in range(60):
                    pool = _move_pool(g, rng)
                    g_run = _mostly_legal_run(g, itp, rng, rng.randint(0, 10), pool)
                    bad = assert_first_illegal_matches(g, itp, g_run)
                    illegal += bad is not None
                    late += bad is not None and bad >= 3
        runs = len(LEGALITY_SHAPES) * 2 * 60
        assert 0.3 < illegal / runs < 0.9 and late / runs > 0.15

    @pytest.mark.parametrize("g, itp, g_run, bad", [
        # a bad component in thread 1 after moves of thread 0
        (CRec(Or(P, P)), ENUM, run((BOT, "0.1.2"), (TOP, "0.2.3"), (TOP, "1.1.4"),
                                   (BOT, "1.3.0"), (BOT, "0.1.5")), 3),
        # BOT's third move in the threads under 0
        (CRec(P), POSITIONAL, run((BOT, "0.1"), (BOT, "1.1"), (BOT, "0.2"), (BOT, ".3")), 3),
        # replication by the wrong player, off a leaf, an address off the tree
        (OldCRec(P), ENUM, run((BOT, ":"), (TOP, "0:")), 1),
        (OldCRec(P), ENUM, run((BOT, ":"), (BOT, "0.1"), (BOT, ":")), 2),
        (OldCRec(P), ENUM, run((BOT, ":"), (TOP, "1.4"), (TOP, "10.4")), 2),
        # an oformula out of range, a coordinate outside its overgroup, a
        # malformed move
        (CirquentGame(make_cirquent([P, Q], [{1, 2}], [{1}, {2}])), ENUM,
         run((BOT, "1;0,.3"), (TOP, "3;,.1")), 1),
        (CirquentGame(make_cirquent([P, Q], [{1, 2}], [{1}, {2}])), ENUM,
         run((BOT, "1;0,.3"), (BOT, "1;0,1.3")), 1),
        (CirquentGame(make_cirquent([P, Q], [{1, 2}], [{1}, {2}])), ENUM,
         run((BOT, "1;0,.3"), (TOP, "1;0.3")), 1),
    ])
    def test_offender_is_named(self, g, itp, g_run, bad):
        assert assert_first_illegal_matches(g, itp, g_run) == bad

    def test_mutated_recorded_sessions(self):
        # sessions of corpus proofs and catalog strategies, each also with
        # an always-illegal move inserted, an unfiltered environment
        # candidate inserted, one label flipped and one labmove repeated
        sessions = []
        for name in ["p_implies_p", "crec_p_implies_crec_p", "conj_commute",
                     "crec_duplication", "double_undergroup"]:
            with open(f"corpus/{name}.clp") as fh:
                proof = parse_proof(fh.read())
            c = proof.conclusion
            bad = join_cell(len(c.oformulas) + 1, ("",) * len(c.overgroups), "0")
            sessions.append((CirquentGame(c), synthesize(proof), bad))
        for name in ["bridge-old-new", "bridge-new-old", "cst-elimination", "st-to-cst"]:
            sessions.append((catalog_game(name), catalog_machine(name), "3.0"))
        rng = random.Random(14)
        checked = illegal = 0
        for g, machine, bad in sessions:
            for seed in range(2):
                env = random_legal_environment(seed, g, ENUM)
                g_run = simulate(machine, env, SimConfig(horizon=50)).run
                runs = [g_run]
                for _ in range(3):
                    at = rng.randint(0, len(g_run))
                    who = rng.choice([TOP, BOT])
                    tree = lambda p, h=g_run[:at]: bt_structure(strip_prefix(h, p))
                    candidate = rng.choice(_move_candidates(g, ENUM, tree, rng))
                    runs.append(g_run[:at] + (Labmove(who, bad),) + g_run[at:])
                    runs.append(g_run[:at] + (Labmove(who, candidate),) + g_run[at:])
                    if g_run:
                        i = rng.randrange(len(g_run))
                        flipped = Labmove(g_run[i].player.flip(), g_run[i].move)
                        runs.append(g_run[:i] + (flipped,) + g_run[i + 1:])
                        j = rng.randint(i, len(g_run))
                        runs.append(g_run[:j] + (g_run[i],) + g_run[j:])
                for itp in (ENUM, POSITIONAL):
                    for mutated in runs:
                        checked += 1
                        illegal += assert_first_illegal_matches(g, itp, mutated) is not None
        assert checked == 9 * 2 * 13 * 2
        assert 0.4 < illegal / checked < 0.9

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.data())
    def test_property_first_illegal_is_first_rejected_prefix(self, data):
        g = data.draw(st.sampled_from(LEGALITY_SHAPES + NESTED_SHAPES))
        itp = data.draw(st.sampled_from([ENUM, POSITIONAL]))
        pool = _move_pool(g, random.Random(data.draw(st.integers(0, 3))), size=12)
        labmoves = st.builds(Labmove, st.sampled_from([TOP, BOT]), st.sampled_from(pool))
        g_run = tuple(data.draw(st.lists(labmoves, max_size=10)))
        assert_first_illegal_matches(g, itp, g_run)


class TestLegalPosition:
    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.data())
    def test_property_fold_matches_projecting_reference(self, data):
        g = data.draw(st.sampled_from(LEGALITY_SHAPES + NESTED_SHAPES))
        itp = data.draw(st.sampled_from([ENUM, POSITIONAL]))
        rng = random.Random(data.draw(st.integers(0, 3)))
        pool = _move_pool(g, rng, size=8)
        if data.draw(st.booleans()):
            labmoves = st.builds(Labmove, st.sampled_from([TOP, BOT]), st.sampled_from(pool))
            g_run = tuple(data.draw(st.lists(labmoves, max_size=10)))
        else:
            g_run = _mostly_legal_run(g, itp, rng, data.draw(st.integers(0, 10)), pool)
        candidates = [Labmove(p, m) for p in (TOP, BOT) for m in pool]
        assert position_free(g, itp) == position_free_by_structure(g, itp)
        position = LegalPosition(g, itp)
        for i in range(len(g_run) + 1):
            for lm in candidates:
                want = legal_extension_by_projection(g, itp, g_run[:i], lm)
                assert position.allows(lm) == want, (g, g_run[:i], lm)
            for at in ("", "1.", "2.", "2.1."):
                tree = position.tree(at)
                if tree is not None:
                    assert tree == bt_structure(strip_prefix(g_run[:i], at)), (g, at)
            position.absorb(g_run[i:i + 1])
        lm = candidates[0]
        assert legal_extension(g, itp, g_run, lm) == legal_extension_by_projection(
            g, itp, g_run, lm)

    def test_deep_positions_match_projecting_reference(self):
        # longer mostly legal runs, so that thread and coordinate classes
        # split deep down
        rng = random.Random(16)
        cirquents = [g for g in LEGALITY_SHAPES if isinstance(g, CirquentGame)]
        for g in NESTED_SHAPES + [CRec(And(P, CCoRec(Q))), CRec(OldCCoRec(P))] + cirquents:
            for itp in (ENUM, POSITIONAL):
                pool = _move_pool(g, rng, size=14)
                g_run = _mostly_legal_run(g, itp, rng, 30, pool)
                position = LegalPosition(g, itp)
                position.absorb(g_run)
                for lm in [Labmove(p, m) for p in (TOP, BOT) for m in pool]:
                    assert position.allows(lm) == legal_extension_by_projection(
                        g, itp, g_run, lm), (g, g_run, lm)


    @pytest.mark.parametrize("g, history, allowed, rejected", [
        # BOT's move at 0 splits the root class into 0 and 1, and BOT's
        # move at the root then lands in both; TOP has moved twice in 1
        (CRec(P),
         run((BOT, "0.1"), (BOT, ".2"), (TOP, "1.5"), (TOP, "1.6")),
         ["B 1.3", "T 0.7", "T 00.7"],
         ["B 0.3", "B 00.3", "B .3", "T .7", "T 1.7", "T 10.7"]),
        (OldCRec(P),
         run((BOT, ":"), (BOT, "0:"), (BOT, "0.1"), (BOT, ".2"), (TOP, "1.5"), (TOP, "1.6")),
         ["B 1.3", "B 1:", "T 0.7", "T 00.7"],
         ["B 0.3", "B 00.3", "B 01.3", "B .3", "B 10.3", "T .7", "T 1.7", "T 1:"]),
        # both coordinates split at BOT's first move; its second meets all
        # four joint classes, so the class (0, 1) is full
        (CirquentGame(make_cirquent([P, Q], [{1, 2}], [{1, 2}, {1}])),
         run((BOT, "1;0,1.1"), (BOT, "1;,.2")),
         ["B 1;1,.3", "B 1;0,0.3", "B 1;1,1.3", "T 1;,.3", "B 2;0,.3"],
         ["B 1;0,.3", "B 1;,1.3", "B 1;00,11.3", "B 1;01,.3", "B 1;,.3", "B 2;0,1.3"]),
    ])
    def test_stateful_classes_split(self, g, history, allowed, rejected):
        position = LegalPosition(g, POSITIONAL)
        position.absorb(history)
        for text, want in [(t, True) for t in allowed] + [(t, False) for t in rejected]:
            lm = parse_run(text)[0]
            assert position.allows(lm) is want, text
            assert legal_extension_by_projection(g, POSITIONAL, history, lm) is want, text

    def test_cirquent_move_at_an_unsplit_coordinate_meets_every_class(self):
        # BOT has moved twice in P's class 1... of the first coordinate; a
        # third BOT move at the empty address there lies in that class too
        g = CirquentGame(make_cirquent([P, CRec(Q)], [{1, 2}], [{1, 2}, {2}]))
        position = LegalPosition(g, POSITIONAL)
        position.absorb(run((BOT, "1;1,.0"), (BOT, "1;1,.1")))
        assert not position.allows(Labmove(BOT, "1;,.2"))
        assert position.allows(Labmove(BOT, "1;0,.2"))
        assert position.allows(Labmove(TOP, "1;,.2"))


class TestWinner:
    def test_disjunction_needs_a_won_component(self):
        lost = FiniteAtomGame("always-bot", lambda pos, lm: True, lambda g: BOT)
        assert winner(Or(P, P), {"P": lost}, ()) is BOT

    def test_recurrence_splits_threads(self):
        itp = {"P": sum_parity_game()}  # TOP wins iff BOT's numerals sum to even
        g_run = run((BOT, "0.1"),)
        # thread 0...: BOT played 1 (odd), lost; threads under 1: empty, won
        assert winner(CRec(P), itp, g_run) is BOT
        assert winner(CCoRec(P), itp, g_run) is TOP
        g_run2 = run((BOT, "0.1"), (BOT, "0.1"))
        assert winner(CRec(P), itp, g_run2) is TOP

    def test_illegal_run_blamed_on_offender(self):
        g = Or(P, P)
        g_run = run((BOT, "2.0"), (TOP, "1.nope"))
        assert first_illegal(g, ENUM, g_run) == 1
        assert winner(g, ENUM, g_run) is BOT
        g_run2 = run((BOT, "junk"),)
        assert winner(g, ENUM, g_run2) is TOP

    def test_winner_against_thread_enumeration_oracle(self):
        # exhaustive: quantifying over class representatives agrees with
        # quantifying over every eventually-zero thread of depth <= 4
        itp = {"P": sum_parity_game()}
        addresses = ["", "0", "1"]
        options = [
            Labmove(p, f"{w}.{n}") for p in (TOP, BOT) for w in addresses for n in ("1", "2")
        ]
        threads = [zeros(format(v, "b").zfill(k) if k else "")
                   for k in range(5) for v in range(2 ** k)]
        rng = random.Random(8)
        for _ in range(400):
            g_run = tuple(rng.choice(options) for _ in range(rng.randint(0, 4)))
            by_reps = winner(CRec(P), itp, g_run)
            atom = itp["P"]
            oracle = TOP if all(
                atom.winner(project_thread(g_run, x)) is TOP for x in set(threads)
            ) else BOT
            assert by_reps is oracle
            by_reps_co = winner(CCoRec(P), itp, g_run)
            oracle_co = TOP if any(
                atom.winner(project_thread(g_run, x)) is TOP for x in set(threads)
            ) else BOT
            assert by_reps_co is oracle_co

    def test_countable_and_uncountable_agree_on_finite_runs(self):
        itp = {"P": sum_parity_game()}
        rng = random.Random(9)
        options = [
            Labmove(p, f"{w}.{n}")
            for p in (TOP, BOT) for w in ("", "0", "1", "01") for n in ("1", "2")
        ]
        for _ in range(500):
            g_run = tuple(rng.choice(options) for _ in range(rng.randint(0, 5)))
            assert winner(CRec(P), itp, g_run) is winner(URec(P), itp, g_run)
            assert winner(CCoRec(P), itp, g_run) is winner(UCoRec(P), itp, g_run)

    def test_de_morgan_at_the_game_level(self):
        rng = random.Random(10)
        itp = {"P": sum_parity_game(), "Q": sum_parity_game(odd_wins=True)}
        shapes = [
            Or(P, Atom("Q")),
            And(CRec(P), Atom("Q")),
            CCoRec(Or(P, NegAtom("Q"))),
            URec(NegAtom("P")),
        ]
        for g in shapes:
            neg_g = negate(g)
            moves = _legal_move_pool(g)
            for _ in range(100):
                g_run = tuple(rng.choice(moves) for _ in range(rng.randint(0, 5)))
                if not legal_run(g, itp, g_run):
                    continue
                w1 = winner(g, itp, g_run)
                w2 = winner(neg_g, itp, negate_run(g_run))
                assert w1 is w2.flip()


def _legal_move_pool(g):
    match g:
        case Atom(_) | NegAtom(_):
            return [Labmove(p, n) for p in (TOP, BOT) for n in ("1", "2")]
        case And(l, r) | Or(l, r):
            return [Labmove(lm.player, f"1.{lm.move}") for lm in _legal_move_pool(l)] + [
                Labmove(lm.player, f"2.{lm.move}") for lm in _legal_move_pool(r)
            ]
        case _:
            return [
                Labmove(lm.player, f"{w}.{lm.move}")
                for w in ("", "0", "1")
                for lm in _legal_move_pool(g.body)
            ]


class TestEnumerationGame:
    def test_numerals_always_legal(self):
        g = enumeration_game()
        pos = run((BOT, "7"), (TOP, "7"))
        assert g.legal(pos, Labmove(TOP, "42"))
        assert g.legal(pos, Labmove(BOT, "42"))

    def test_non_numerals_illegal(self):
        assert not enumeration_game().legal((), Labmove(BOT, "abc"))

    def test_loser_predicate(self):
        target = run((BOT, "7"))
        g = enumeration_game(loser_runs=lambda r: r == target)
        assert g.winner(run((BOT, "7"))) is BOT
        assert g.winner(run((BOT, "8"))) is TOP


class TestDelays:
    def test_worked_example(self):
        gamma = run((BOT, "alpha"), (TOP, "alpha"), (BOT, "beta"), (TOP, "gamma"))
        omega = run((BOT, "alpha"), (TOP, "alpha"), (TOP, "gamma"), (BOT, "beta"))
        assert is_delay(omega, gamma, BOT)

    def test_reflexive(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_run(rng, rng.randint(0, 6), ["a", "b"])
            for p in (TOP, BOT):
                assert is_delay(g, g, p)

    def test_moving_earlier_is_not_a_delay(self):
        gamma = run((TOP, "alpha"), (BOT, "beta"))
        omega = run((BOT, "beta"), (TOP, "alpha"))
        assert not is_delay(omega, gamma, BOT)
        assert is_delay(omega, gamma, TOP)

    def test_subsequences_must_match(self):
        assert not is_delay(run((TOP, "a")), run((TOP, "b")), TOP)

    def test_static_closure_smoke(self):
        # TOP-won runs of a recurrence over static atoms stay TOP-won under
        # TOP-delays (and stay legal)
        itp = {"P": sum_parity_game()}
        g = CRec(P)
        rng = random.Random(12)
        moves = [Labmove(p, f"{w}.{n}") for p in (TOP, BOT)
                 for w in ("", "0", "1") for n in ("1", "2")]
        checked = 0
        while checked < 500:
            g_run = tuple(rng.choice(moves) for _ in range(rng.randint(1, 6)))
            if winner(g, itp, g_run) is not TOP:
                continue
            delayed = list(g_run)
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(len(delayed) - 1) if len(delayed) > 1 else 0
                if len(delayed) > 1 and delayed[i].player is TOP and delayed[i + 1].player is BOT:
                    delayed[i], delayed[i + 1] = delayed[i + 1], delayed[i]
            delayed = tuple(delayed)
            assert is_delay(delayed, g_run, TOP)
            assert legal_run(g, itp, delayed)
            assert winner(g, itp, delayed) is TOP
            checked += 1


class TestCirquentWinner:
    def test_undergroup_needs_one_won_cell(self):
        lost = FiniteAtomGame("always-bot", lambda pos, lm: True, lambda g: BOT,
                              position_free=True)
        itp = {"P": enumeration_game(), "L": lost}
        c = make_cirquent([Atom("L"), P], [{1, 2}], [{1, 2}])
        assert winner(CirquentGame(c), itp, ()) is TOP
        c2 = make_cirquent([Atom("L")], [{1}], [{1}])
        assert winner(CirquentGame(c2), itp, ()) is BOT

    def test_every_undergroup_must_win(self):
        lost = FiniteAtomGame("always-bot", lambda pos, lm: True, lambda g: BOT,
                              position_free=True)
        itp = {"P": enumeration_game(), "L": lost}
        c = make_cirquent([Atom("L"), P], [{1}, {2}], [{1, 2}])
        assert winner(CirquentGame(c), itp, ()) is BOT

    def test_adjudicate_matches_parts(self):
        g = CirquentGame(make_cirquent([P], [{1}], [{1}]))
        g_run = run((BOT, "1;0.3"), (TOP, "1;.5"))
        assert adjudicate(g, ENUM, g_run) == (legal_run(g, ENUM, g_run), winner(g, ENUM, g_run))
        assert cell_projections(g_run, 1, 1)
