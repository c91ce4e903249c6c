import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from duelhalt.carddb import (FILLER, MST, POTDUAL, RAIGEKI, TORNADO, UPSTART, YATA, deck_a,
                             filler_deck, lookup)
from duelhalt.engine import (
    ActivateEffect,
    AdvancePhase,
    ChainLink,
    ChangeEquipTarget,
    DeclareAttack,
    DIRECT,
    DrawCard,
    FlipSummon,
    Pass,
    Phase,
    Run,
    apply,
    can_act,
    decode_configuration,
    encode_configuration,
    initial_configuration,
    is_winning_state,
    legal_moves,
    transition_ok,
    validate_run,
)
from duelhalt.engine.config import GY, HAND, MZONE, SZONE, CardInstance, update_player
from duelhalt.engine.moves import decode_move, encode_move
from duelhalt.engine import rules
from duelhalt.engine.rules import EFFECTS, identity_order, is_initial, is_legal
from duelhalt.errors import IllegalDeck, IllegalMove, MalformedCode
from duelhalt.scripts import increment_cycle, set_counters
from duelhalt.trace import replay_trace, trace_lines


def fresh():
    a = deck_a()
    f = filler_deck()
    return initial_configuration(a, f, identity_order(a), identity_order(f))


def test_initial_configuration_shape():
    conf = fresh()
    assert is_initial(conf)
    assert conf.lp == (8000, 8000)
    assert len(conf.players[0].deck) == 43
    assert conf.players[0].gy == () and conf.players[1].gy == ()
    assert all(m is None for m in conf.players[0].monsters)


def test_initial_configuration_rejects_bad_permutation():
    a, f = deck_a(), filler_deck()
    with pytest.raises(IllegalDeck):
        initial_configuration(a, f, (0,) * len(a.main), identity_order(f))


def test_opening_draw_is_the_only_move():
    conf = fresh()
    assert legal_moves(conf, 0) == [DrawCard(0)]
    assert legal_moves(conf, 1) == []


def test_draw_phase_mandatory_draw():
    conf = fresh()
    for _ in range(5):
        conf = apply(conf, DrawCard(0))
    for _ in range(5):
        conf = apply(conf, DrawCard(1))
    conf = apply(conf, Pass(0))
    # the starting player skips the first draw entirely
    assert conf.turn == 1 and conf.draw_done
    conf = apply(conf, Pass(0))
    conf = apply(conf, Pass(0))
    assert conf.phase == Phase.MAIN1


def test_apply_rejects_illegal_move():
    conf = fresh()
    with pytest.raises(IllegalMove):
        apply(conf, DrawCard(1))


def test_apply_pass_cedes_priority_when_window_exists(board_a):
    # on the finished board it is our main phase with a set trap of ours;
    # passing hands the opponent nothing, so the phase advances
    conf = board_a.final
    nxt = apply(conf, Pass(0))
    assert nxt.phase == Phase.BATTLE


def test_transition_ok_definitional(board_a):
    conf = board_a.final
    mv = Pass(0)
    nxt = apply(conf, mv)
    assert transition_ok(conf, nxt, mv)
    assert not transition_ok(conf, conf, AdvancePhase(0))


def test_transition_ok_rejects_tampered_lp(board_a):
    conf = board_a.final
    mv = Pass(0)
    nxt = apply(conf, mv)
    tampered = update_player(nxt, 1, lp=nxt.players[1].lp - 100)
    assert not transition_ok(conf, tampered, mv)


def test_validate_run_single_initial():
    conf = fresh()
    assert validate_run(Run((conf,), ()))


def test_validate_run_full_setup(board_a):
    assert validate_run(board_a.run)


def test_validate_run_detects_swap(board_a):
    configs = list(board_a.run.configs)
    configs[100], configs[101] = configs[101], configs[100]
    assert not validate_run(Run(tuple(configs), board_a.run.moves))


@given(base=st.integers(0, 4),
       grow=st.lists(st.tuples(st.integers(0, 60), st.booleans()), max_size=40))
def test_runs_agree_with_tuple_reference(base, grow):
    # a branching family of runs grown by extend from a tuple-built base,
    # each checked against the plain tuples built alongside it; reading a
    # run's tuples before extending it must not leak into its extensions
    cs, ms = tuple(f"c{i}" for i in range(base + 1)), tuple(f"m{i}" for i in range(base))
    family = [(Run(cs, ms), cs, ms)]
    for k, (pick, read) in enumerate(grow):
        run, cs, ms = family[pick % len(family)]
        if read:
            assert (run.configs, run.moves) == (cs, ms)
        family.append((run.extend(f"c{k}'", f"m{k}'"), cs + (f"c{k}'",), ms + (f"m{k}'",)))
    for run, cs, ms in family:
        assert (len(run), run.last()) == (len(ms), cs[-1])
        for n in range(len(ms) + 2):
            assert run.since(n) == list(cs[n:])
            assert list(run.steps(n)) == list(zip(cs[n:], ms[n:], cs[n + 1:]))
        assert (run.configs, run.moves) == (cs, ms)
        with pytest.raises(ValueError):
            Run(cs, ms + ("m",))
        with pytest.raises(ValueError):
            run.since(-1)


def test_is_winning_state_lp():
    conf = fresh()
    conf = update_player(conf, 1, lp=0)
    assert is_winning_state(conf, 0)
    assert not is_winning_state(conf, 1)
    assert not is_winning_state(fresh(), 0)


def test_is_winning_state_deck_out():
    conf = fresh()
    # their mandatory draw with an empty deck loses on the spot
    conf = update_player(conf, 1, deck=())
    conf = conf.__class__(
        players=conf.players, turn=2, active=1, phase=Phase.DRAW,
        priority=1, draw_done=False,
    )
    assert is_winning_state(conf, 0)
    assert legal_moves(conf, 1) == []


def test_locked_board_opponent_can_only_pass(board_a):
    # after one sustaining macro turn the lock is armed: walk into their
    # turn and check every window offers nothing but Pass
    from duelhalt.scripts import turn_tick

    tick = turn_tick(board_a.final)
    seen_their_priority = 0
    for conf in tick.run.configs:
        if conf.active == 1 and conf.priority == 1:
            seen_their_priority += 1
            their_moves = legal_moves(conf, 1)
            assert their_moves == [] or all(isinstance(m, Pass) for m in their_moves)
    assert seen_their_priority > 0


def test_can_act_on_own_turn(board_a):
    assert can_act(Run((board_a.final,), ()))


def test_legal_moves_contains_loop_opener(board_a):
    moves = legal_moves(board_a.final, 0)
    boe = lookup("Book of Eclipse").id
    assert any(
        isinstance(m, ActivateEffect) and m.effect == "boe_flip_all"
        and m.source == (0, HAND, boe)
        for m in moves
    )
    assert any(isinstance(m, Pass) for m in moves)


def test_legal_moves_all_apply(board_a):
    conf = board_a.final
    moves = legal_moves(conf, 0)
    assert len(moves) == len(set(moves))
    assert len(moves) <= 10_000
    for mv in moves:
        apply(conf, mv)


def test_configuration_codec_roundtrip(board_a):
    conf = board_a.final
    code = encode_configuration(conf)
    assert decode_configuration(code) == conf
    assert encode_configuration(apply(conf, Pass(0))) != code


def test_counter_difference_changes_code(board_a):
    c1 = increment_cycle(board_a.final).final
    c2 = increment_cycle(c1).final
    assert encode_configuration(c1) != encode_configuration(c2)


def test_decode_rejects_random_codes():
    rng = random.Random(7)
    rejected = 0
    for _ in range(300):
        code = rng.randrange(1, 10**40)
        try:
            decode_configuration(code)
        except MalformedCode:
            rejected += 1
    assert rejected >= 295


def test_move_codec_roundtrip(board_a):
    for mv in board_a.run.moves:
        assert decode_move(encode_move(mv)) == mv


def test_apply_deterministic(board_a):
    conf = board_a.final
    for mv in legal_moves(conf, 0)[:20]:
        a, b = apply(conf, mv), apply(conf, mv)
        assert a == b
        assert encode_configuration(a) == encode_configuration(b)


def test_can_act_false_on_their_bare_turn():
    # their draw phase, nothing of ours set or summonable: we can only watch
    from duelhalt.engine.config import Phase as _P

    conf = fresh()
    for _ in range(5):
        conf = apply(conf, DrawCard(0))
    for _ in range(5):
        conf = apply(conf, DrawCard(1))
    conf = apply(conf, Pass(0))
    while conf.turn == 1:
        conf = apply(conf, Pass(conf.priority))
    assert conf.active == 1 and conf.phase == _P.DRAW
    assert not can_act(Run((conf,), ()))


# --- the locator domain -------------------------------------------------------

_LOCS = st.tuples(st.integers(-3, 10), st.integers(-2, 10), st.integers(-3, 60))
_EXTRAS = st.lists(st.integers(-2, 12), max_size=4).map(tuple)


def _activations(player):
    link = st.builds(ChainLink, st.sampled_from(sorted(EFFECTS)), _LOCS,
                     st.lists(_LOCS, max_size=3).map(tuple), _EXTRAS)
    return st.builds(ActivateEffect, player, st.sampled_from(sorted(EFFECTS)), _LOCS,
                     st.lists(_LOCS, max_size=3).map(tuple), _EXTRAS,
                     st.lists(link, max_size=2).map(tuple))


_PLAYERS = st.integers(0, 1)
_ARBITRARY_MOVES = st.one_of(
    _activations(_PLAYERS),
    st.builds(ChangeEquipTarget, _PLAYERS, _LOCS, _LOCS),
    st.builds(DeclareAttack, _PLAYERS, _LOCS, st.one_of(_LOCS, st.just(DIRECT))),
    st.builds(FlipSummon, _PLAYERS, st.integers(-2, 6), st.one_of(st.none(), _LOCS)),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_ARBITRARY_MOVES)
def test_apply_raises_only_illegal_move_on_arbitrary_locators(board_b, move):
    try:
        apply(board_b.final, move)
    except IllegalMove:
        pass


def _bent_last_move(board, player):
    """The set-up's last move (the dragon's negation, sourced from our extra
    monster zone) with the player of its source locator changed."""
    move = board.run.moves[-1]
    assert move.effect == "svd_negate"
    return dataclasses.replace(move, source=(player, *move.source[1:]))


@pytest.mark.parametrize("player", [4, -2])
def test_locator_outside_the_two_players_is_illegal(board_b, player):
    conf, after = board_b.run.configs[-2], board_b.final
    # player 4 used to index past the players, player -2 to read as player 0
    with pytest.raises(IllegalMove):
        apply(conf, _bent_last_move(board_b, player))
    assert not transition_ok(conf, after, _bent_last_move(board_b, player))
    assert transition_ok(conf, after, _bent_last_move(board_b, 0))


def test_replay_trace_rejects_an_out_of_range_locator(board_b):
    last = Run(board_b.run.configs[-2:], board_b.run.moves[-1:])
    rec = json.loads(next(trace_lines(last)))
    rec["move"] = str(encode_move(_bent_last_move(board_b, 4)))
    with pytest.raises(MalformedCode):
        replay_trace([json.dumps(rec)], last.configs[0])


def test_the_dragons_negate_targets_only_monsters(board_b):
    # at the set-up's negation, aimed at each of the opponent's five face-up
    # spells and traps instead of their Protector
    conf, move = board_b.run.configs[-2], board_b.run.moves[-1]
    assert move.effect == "svd_negate"
    targets = [(1, SZONE, i) for i, st in enumerate(conf.players[1].spelltraps)
               if st is not None and st.face_up]
    assert len(targets) == 5
    for loc in targets:
        bent = dataclasses.replace(move, targets=(loc,))
        with pytest.raises(IllegalMove, match="opponent face-up monster"):
            apply(conf, bent)


def test_polymerization_does_not_activate_from_the_graveyard(board_b):
    # the set-up's Polymerization, with the card moved from the hand to the
    # graveyard first
    poly = lookup("Polymerization").id
    i = next(i for i, m in enumerate(board_b.run.moves)
             if isinstance(m, ActivateEffect) and m.effect == "polymerization_fuse")
    conf, move = board_b.run.configs[i], board_b.run.moves[i]
    assert apply(conf, move)
    ps = conf.players[0]
    hand = list(ps.hand)
    hand.remove(poly)
    conf = update_player(conf, 0, hand=tuple(hand), gy=ps.gy + (poly,))
    bent = dataclasses.replace(move, source=(0, GY, len(ps.gy)))
    with pytest.raises(IllegalMove, match="activation timing"):
        apply(conf, bent)


@pytest.mark.parametrize("bad",['{}', '[1]', '{"move": "x"}', 'nul', '{"move": -1}',
                                 'non-hex config'])
def test_replay_trace_names_the_malformed_line(board_a, bad):
    first = Run(board_a.run.configs[:2], board_a.run.moves[:1])
    line = next(trace_lines(first))
    if bad == 'non-hex config':
        bad = json.dumps({**json.loads(line), "config": "zz"})
    with pytest.raises(MalformedCode, match="trace line 2"):
        replay_trace([line, bad], first.configs[0])


# each changes one field of set-up A's second trace line (the second draw,
# move code 14) into a form trace_lines never writes, which replay used to
# read as the written one
_UNWRITTEN_FORMS = {
    "move as a number": ("move", lambda move: float(move) + 0.7),
    "move padded and signed": ("move", lambda move: f" +{move} "),
    "config with 0x": ("config", lambda config: "0x" + config),
    "config upper-case": ("config", str.upper),
    "config with _": ("config", lambda config: config[:2] + "_" + config[2:]),
    "another turn": ("turn", lambda turn: turn + 1),
    "another phase": ("phase", lambda phase: "main1"),
    "another text": ("text", lambda text: text + "!"),
}


@pytest.mark.parametrize("form", list(_UNWRITTEN_FORMS))
def test_replay_trace_takes_only_the_written_form(board_a, form):
    two = Run(board_a.run.configs[:3], board_a.run.moves[:2])
    first, second = trace_lines(two)
    assert replay_trace([first, second], two.configs[0]).configs == two.configs
    field, bend = _UNWRITTEN_FORMS[form]
    rec = json.loads(second)
    assert rec["move"] == "14" and rec["config"] != rec["config"].upper()
    rec[field] = bend(rec[field])
    bent = json.dumps(rec, separators=(",", ":"))
    with pytest.raises(MalformedCode, match="trace line 2 is malformed"):
        replay_trace([first, bent], two.configs[0])


@pytest.mark.parametrize("bend", [lambda line: f" {line} ", lambda line: "",
                                  lambda line: line + "\n\n"],
                         ids=["padded", "blank", "two newlines"])
def test_replay_trace_takes_only_written_lines(board_a, bend):
    # a line is taken as written, less the newline that ends it in a file
    two = Run(board_a.run.configs[:3], board_a.run.moves[:2])
    first, second = trace_lines(two)
    assert replay_trace([first + "\n", second + "\n"], two.configs[0]).configs == two.configs
    with pytest.raises(MalformedCode, match="trace line 2 is malformed"):
        replay_trace([first, bend(second)], two.configs[0])


def test_every_offered_move_applies_along_both_setups(board_a, board_b):
    # with every spell/trap zone full, continuous and equip spells in the
    # hand have nowhere to go and must not be offered
    offered = 0
    for board in (board_a, board_b):
        for conf in board.run.configs:
            for p in (0, 1):
                for move in legal_moves(conf, p):
                    apply(conf, move)
                    offered += 1
    assert offered > 6000


# --- the folded effect rows ---------------------------------------------------

_GY0 = (0, GY, 0)
_FACE_DOWN = (1, MZONE, 0)

# one misuse per effect row whose check or resolve is a shared handler,
# with the exact message its check raises
_MISUSES = [
    ("rain_of_mercy_gain", (_GY0,), "Rain of Mercy takes no targets"),
    ("citadel_counters", (_GY0,), "field spell takes no targets"),
    ("temple_trap_allowance", (_GY0,), "Temple of the Kings takes no targets"),
    ("boe_flip_all", (_GY0,), "Book of Eclipse takes no targets"),
    ("soul_drain_gy_lock", (_GY0,), "Soul Drain takes no targets"),
    ("desert_sunlight_flip_up", (_GY0,), "Desert Sunlight takes no targets"),
    ("pole_position_immunity", (_GY0,), "Pole Position takes no targets"),
    ("gift_card_gain", (_GY0,), "Gift Card takes no targets"),
    ("morale_boost_gain", (_GY0,), "Morale Boost takes no targets"),
    ("attraffic_control", (_GY0,), "Attraffic Control takes no targets"),
    ("raigeki_wipe", (_GY0,), "Raigeki takes no targets"),
    ("pob_return_two", (_GY0,), "Pot of Benevolence returns exactly 2 cards"),
    ("pob_return_two", (_GY0, _GY0), "duplicate target"),
    ("pob_return_two", (_GY0, _FACE_DOWN), "targets must be graveyard cards"),
    ("soul_release_banish", (), "Soul Release banishes 1-5 cards"),
    ("soul_release_banish", ((1, GY, 99),), "graveyard index out of range"),
    ("tornado_recycle", (_GY0,) * 6, "Localized Tornado shuffles 1-5 cards"),
    ("tornado_recycle", ((1, GY, 0),), "targets must be your graveyard cards"),
    ("tornado_recycle", ((0, GY, 99),), "graveyard index out of range"),
    ("massivemorph_boost", (_FACE_DOWN,), "target must be a face-up monster"),
    ("mist_body_shield", (_FACE_DOWN,), "equip target must be a face-up monster"),
    ("flint_lockdown", (), "Flint equips 1 face-up monster"),
]


@pytest.mark.parametrize("effect,targets,message", _MISUSES,
                         ids=[f"{e}-{i}" for i, (e, _t, _m) in enumerate(_MISUSES)])
def test_folded_effect_rows_keep_their_messages(board_a, effect, targets, message):
    conf = board_a.final
    assert conf.players[0].gy
    down = CardInstance(lookup("Morphing Jar").id, face_up=False)
    conf = update_player(conf, 1, monsters=(down,) + conf.players[1].monsters[1:])
    with pytest.raises(IllegalMove) as err:
        EFFECTS[effect].check(conf, 0, (0, HAND, 0), targets, ())
    assert str(err.value) == message


# --- one source of legality ----------------------------------------------------


def _applies(conf, move):
    try:
        apply(conf, move)
    except IllegalMove:
        return False
    return True


def _candidates(conf, p):
    """Every move kind's candidates inside its window, before check_legal
    filters them."""
    forced = rules._prelude(conf, p)
    for what, kind in rules._KINDS.items():
        if kind.candidates is not None and rules._refusal(conf, p, what, kind, forced) is None:
            yield from kind.candidates(conf, p)


def test_is_legal_iff_apply_returns_on_every_candidate(board_a, board_b):
    # the candidates include continuous and equip spells from the hand with
    # every spell/trap zone full, which is_legal used to accept
    tried = refused = 0
    for board in (board_a, board_b):
        for conf in board.run.configs:
            for move in _candidates(conf, conf.priority):
                legal = is_legal(conf, move)
                assert legal == _applies(conf, move), move
                tried += 1
                refused += not legal
    assert tried > 6000 and refused > 0


def test_a_second_field_spell_needs_the_field_zone(board_a):
    conf = board_a.final
    citadel = lookup("Magical Citadel of Endymion").id
    assert conf.players[0].field_zone.card == citadel
    conf = update_player(conf, 0, hand=tuple(sorted(conf.players[0].hand + (citadel,))))
    move = ActivateEffect(0, "citadel_counters", (0, HAND, citadel))
    assert not is_legal(conf, move)
    with pytest.raises(IllegalMove, match="field zone occupied"):
        apply(conf, move)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_activations(_PLAYERS))
def test_is_legal_iff_apply_returns_on_arbitrary_activations(board_b, move):
    assert is_legal(board_b.final, move) == _applies(board_b.final, move)


@pytest.mark.parametrize("extras", [(0,), (1, 2, 3)])
def test_malformed_flip_choices_are_illegal(board_b, extras):
    # Desert Sunlight chained to Soul Drain, as the set-up plays it
    i = next(i for i, m in enumerate(board_b.run.moves)
             if isinstance(m, ActivateEffect) and m.effect == "desert_sunlight_flip_up")
    move = dataclasses.replace(board_b.run.moves[i], extras=extras)
    assert not is_legal(board_b.run.configs[i], move)
    with pytest.raises(IllegalMove, match="pairs"):
        apply(board_b.run.configs[i], move)


@pytest.mark.parametrize("idx, message", [
    (999, "bad recovery target"),  # past the end of the graveyard
    (10, "Magician of Faith recovers spells only"),  # a filler card
    (1, "Magician of Faith recovers spells only"),  # a trap
])
def test_flip_recovery_is_judged_once(board_a, idx, message):
    # a face-down Magician of Faith flip-summoned with a recovery choice,
    # and the same choice made through a set Desert Sunlight's flip choices
    conf, flip = board_a.run.configs[117], board_a.run.moves[117]
    assert flip.recover is not None
    sts = list(conf.players[0].spelltraps)
    zone = sts.index(None)
    sts[zone] = CardInstance(lookup("Desert Sunlight").id, face_up=False,
                             set_turn=conf.turn - 2, face_since=conf.turn - 2)
    gy = conf.players[0].gy
    assert len(gy) == 10
    conf = update_player(conf, 0, spelltraps=tuple(sts), gy=gy + (FILLER,))
    sunlight = ActivateEffect(0, "desert_sunlight_flip_up", (0, SZONE, zone), (),
                              rules.flip_choice_extras([(flip.zone, idx)]))
    for move in (dataclasses.replace(flip, recover=(0, GY, idx)), sunlight):
        assert not is_legal(conf, move)
        with pytest.raises(IllegalMove) as err:
            apply(conf, move)
        assert str(err.value) == message


# SHA-256 over the legal-move lists (each list's repr and a newline) along
# both set-up runs and set_counters(board_a.final, n) for n = 1..30: 1,940
# lists, computed with the hand-written enumerator that the filter over the
# move kinds' candidates replaced, so a reordered or changed list fails here
_LEGAL_MOVES_SHA256 = "01350e29e12f2a8fca6ce7ce4e455ae6e66fccbaa84f1cf834007ab4e3c533f1"


def test_legal_move_lists_are_pinned(board_a, board_b):
    configs = list(board_a.run.configs) + list(board_b.run.configs)
    for n in range(1, 31):
        configs += set_counters(board_a.final, n).run.configs
    digest = hashlib.sha256()
    for conf in configs:
        digest.update(repr(legal_moves(conf, conf.priority)).encode())
        digest.update(b"\n")
    assert len(configs) == 1940
    assert digest.hexdigest() == _LEGAL_MOVES_SHA256


def test_configuration_and_move_codes_are_pinned(board_a, board_b):
    # SHA-256 over every configuration code (hex) and then every move code
    # (decimal), a newline after each, along both set-up runs and
    # set_counters(board_a.final, 57), computed before the codec was
    # rewritten as declared layouts: the codes the program writes never change
    runs = [board_a.run, board_b.run, set_counters(board_a.final, 57).run]
    digest = hashlib.sha256()
    for run in runs:
        for conf in run.configs:
            digest.update(b"%x\n" % encode_configuration(conf))
        for mv in run.moves:
            digest.update(b"%d\n" % encode_move(mv))
    assert [len(run.moves) for run in runs] == [len(run.configs) - 1 for run in runs]
    assert sum(len(run.configs) for run in runs) == 1107
    assert digest.hexdigest() == "4e76cae88e54912dba3b51462c8f59f0375dc0e826ea2e12d0fa5cbc482c8d9e"


def test_trace_lines_are_pinned(board_a, board_b):
    # SHA-256 over every line trace_lines writes, a newline after each, along
    # the same three runs: pins each line's JSON layout, text and hex code
    runs = [board_a.run, board_b.run, set_counters(board_a.final, 57).run]
    digest = hashlib.sha256()
    for run in runs:
        for line in trace_lines(run):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "a7567a023c6c15458ce9524fb5fc6af8ef51068e1b2b8a82ff10238854ec5175"


def test_a_trap_bait_doll_forces_resolves_as_its_own_activation(board_a):
    # a set Soul Drain on set-up A's final board, activated directly and
    # forced by Bait Doll: both pay its 1000 LP and leave it face-up
    conf = board_a.final
    soul_drain, bait_doll = lookup("Soul Drain").id, lookup("Bait Doll").id
    sts = list(conf.players[0].spelltraps)
    zone = sts.index(None)
    sts[zone] = CardInstance(soul_drain, face_up=False, set_turn=conf.turn - 1)
    conf = update_player(conf, 0, spelltraps=tuple(sts))
    direct = apply(conf, ActivateEffect(0, "soul_drain_gy_lock", (0, SZONE, zone)))
    forced = apply(conf, rules.make_bait_doll_move(0, (0, HAND, bait_doll), (0, SZONE, zone), ()))
    assert conf.lp == (7000, 9200)
    assert direct.lp == forced.lp == (6000, 9200)
    assert direct.players[0].spelltraps[zone] == forced.players[0].spelltraps[zone]
    assert forced.players[0].spelltraps[zone].face_up


def test_creature_swap_moves_each_equip_with_its_monster(board_b):
    # set-up B's last board with their Massivemorph re-pointed at our Vanity's
    # Ruler; Creature Swap trades it for their Clara, which wears their Mist
    # Body and Flint: each equip follows its own monster, none follows twice
    conf = board_b.final
    ours, theirs = conf.players
    assert ours.monsters[0].name == "Vanity's Ruler"
    assert theirs.monsters[0].name == "Clara & Rushka, the Ventriloduo"
    assert [st.name for st in theirs.spelltraps[1:4]] == ["Mist Body", "Flint", "Massivemorph"]
    sts = list(theirs.spelltraps)
    sts[3] = dataclasses.replace(sts[3], equipped_to=(0, MZONE, 0))
    conf = update_player(conf, 1, spelltraps=tuple(sts))
    swap = lookup("Creature Swap").id
    conf = update_player(conf, 0, hand=conf.players[0].hand + (swap,))
    after = apply(conf, ActivateEffect(0, "creature_swap", (0, HAND, swap),
                                       targets=((0, MZONE, 0), (1, MZONE, 0))))
    assert after.players[1].monsters[0].name == "Vanity's Ruler"
    assert after.players[0].monsters[0].name == "Clara & Rushka, the Ventriloduo"
    equips = [inst.equipped_to for inst in after.players[1].spelltraps[1:4]]
    assert equips == [(0, MZONE, 0), (0, MZONE, 0), (1, MZONE, 0)]


def _with_pot_of_duality(board, deck):
    """The set-up's last board with Pot of Duality in our hand and the deck."""
    conf = board.final
    hand = tuple(sorted(conf.players[0].hand + (POTDUAL,)))
    return update_player(conf, 0, hand=hand, deck=deck)


_EXCAVATED = (MST, TORNADO, UPSTART, RAIGEKI, YATA)


@pytest.mark.parametrize("pick", [0, 1, 2])
def test_pot_of_duality_takes_one_of_the_top_three(board_b, pick):
    """Pot of Duality excavates the top 3 cards of the deck and adds the
    one its extra picks to the hand; the two not taken go to the bottom of
    the deck, in order, and the spell goes to the graveyard."""
    conf = _with_pot_of_duality(board_b, _EXCAVATED)
    pot = ActivateEffect(0, "pot_duality", (0, HAND, POTDUAL), extras=(pick,))
    after = apply(conf, pot)
    top = list(_EXCAVATED[:3])
    taken = top.pop(pick)
    ps, was = after.players[0], conf.players[0]
    hand = list(was.hand)
    hand.remove(POTDUAL)
    assert ps.deck == _EXCAVATED[3:] + tuple(top)
    assert ps.hand == tuple(sorted(hand + [taken]))
    assert ps.gy.count(POTDUAL) == was.gy.count(POTDUAL) + 1
    assert transition_ok(conf, after, pot)


@pytest.mark.parametrize("deck, extras, message", [
    (_EXCAVATED, (3,), "choose one of the top 3"),
    (_EXCAVATED, (-1,), "choose one of the top 3"),
    (_EXCAVATED, (0, 1), "choose one of the top 3"),
    (_EXCAVATED[:2], (0,), "need 3 cards to excavate"),
])
def test_pot_of_duality_refuses_a_pick_outside_the_top_three(board_b, deck, extras, message):
    # an extra outside 0-2, or a deck of fewer than 3 cards to excavate
    conf = _with_pot_of_duality(board_b, deck)
    pot = ActivateEffect(0, "pot_duality", (0, HAND, POTDUAL), extras=extras)
    assert not is_legal(conf, pot)
    with pytest.raises(IllegalMove, match=message):
        apply(conf, pot)
