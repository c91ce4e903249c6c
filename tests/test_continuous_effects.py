"""The one-pass continuous-effect queries against the naive scans they
replaced, kept here as the reference: every configuration of both set-up
runs, a seeded random walk, and Pole Position boards whose Book of Eclipse,
Raigeki and Offerings resolutions send equips to the graveyard part-way."""

import random

import pytest

from duelhalt.carddb import (
    ATTRAFFIC, CARDS, FILLER, FLINT, MASSIVEMORPH, MIST_BODY, MORALE_BOOST, POLE_POSITION,
    PROTECTOR, SOUL_DRAIN, TEMPLE, VANITY, Kind, by_id,
)
from duelhalt.engine import decode_configuration, encode_configuration, legal_moves, rules
from duelhalt.engine.config import DEF, EXTRA, MZONE, CardInstance, fast_replace, update_player

# --- the reference: the scans as they stood before the one-pass queries -------


def naive_controls_faceup(conf, p, cid):
    for loc, inst in conf.iter_spelltraps():
        if loc[0] == p and inst.card == cid and inst.face_up and not inst.negated:
            return loc
    for loc, inst in conf.iter_monsters():
        if loc[0] == p and inst.card == cid and inst.face_up and not inst.negated:
            return loc
    return None


def naive_current_atk(conf, loc, inst):
    spec = by_id(inst.card) if inst.card != FILLER else None
    atk = spec.stats.atk if spec is not None and spec.stats else 0
    for sloc, st in conf.iter_spelltraps():
        if st.equipped_to == loc and st.face_up:
            if st.card == MASSIVEMORPH:
                atk += 2000
            elif st.card == FLINT:
                atk -= 300
    return max(atk, 0)


def naive_pole_protected(conf, loc, inst):
    if not inst.face_up:
        return False
    if not any(
        st.card == POLE_POSITION and st.face_up and not st.negated
        for _, st in conf.iter_spelltraps()
    ):
        return False
    best = max(
        (naive_current_atk(conf, m_loc, m) for m_loc, m in conf.iter_monsters() if m.face_up),
        default=-1,
    )
    return naive_current_atk(conf, loc, inst) == best


def naive_equipped(conf, loc, cid):
    return any(st.equipped_to == loc and st.card == cid and st.face_up
               for _l, st in conf.iter_spelltraps())


def naive_soul_drain_up(conf):
    return any(st.card == SOUL_DRAIN and st.face_up and not st.negated
               for _, st in conf.iter_spelltraps())


def naive_res_boe(conf, p):
    """Book of Eclipse, judging Pole Position at each flip; also gives the
    configurations between the flips."""
    steps = [conf]
    for loc, inst in list(conf.iter_monsters()):
        if not inst.face_up:
            continue
        if inst.card != FILLER and by_id(inst.card).kind == Kind.LINK_MONSTER:
            continue
        if naive_pole_protected(conf, loc, inst):
            continue
        conf = rules._cleanup_dependents(conf, loc)
        conf = rules._set_slot(conf, loc, fast_replace(
            inst, face_up=False, position=DEF, negated=False, face_since=conf.turn))
        steps.append(conf)
    return fast_replace(conf, boe_pending=True), steps


def naive_res_raigeki(conf, p):
    steps = [conf]
    for loc, inst in list(conf.iter_monsters()):
        if loc[0] != 1 - p or naive_pole_protected(conf, loc, inst):
            continue
        conf = rules._leave_field(conf, loc, "gy")
        steps.append(conf)
    return conf, steps


# --- agreement on one configuration --------------------------------------------

_WATCHED = (ATTRAFFIC, MORALE_BOOST, POLE_POSITION, PROTECTOR, SOUL_DRAIN, TEMPLE, VANITY)


def assert_queries_agree(conf):
    cards = {inst.card for _l, inst in conf.iter_monsters()}
    cards |= {inst.card for _l, inst in conf.iter_spelltraps()}
    for p in (0, 1):
        for cid in sorted(cards.union(_WATCHED)):
            assert rules._controls_faceup(conf, p, cid) == naive_controls_faceup(conf, p, cid)
    for loc, inst in conf.iter_monsters():
        assert rules.current_atk(conf, loc, inst) == naive_current_atk(conf, loc, inst)
        assert rules._pole_protected(conf, loc, inst) == naive_pole_protected(conf, loc, inst)
        for cid in (FLINT, MIST_BODY):
            assert rules._equipped(conf, loc, cid) == naive_equipped(conf, loc, cid)
    assert rules._soul_drain_up(conf) == naive_soul_drain_up(conf)
    offered = [t[0] for t, _e in rules._cand_offerings(conf, 0, None)]
    assert offered == [loc for loc, inst in conf.iter_monsters()
                       if inst.face_up and not naive_pole_protected(conf, loc, inst)]


def assert_resolutions_agree(conf):
    """Book of Eclipse and Raigeki for either player resolve as the naive
    per-flip judgment does, and every board between the steps answers the
    queries as the naive scans do."""
    for p in (0, 1):
        for resolve, reference in ((rules._res_boe, naive_res_boe),
                                   (rules._res_raigeki, naive_res_raigeki)):
            want, steps = reference(conf, p)
            assert resolve(conf, p, None, (), ()) == want
            for step in steps:
                assert_queries_agree(step)


def test_queries_agree_along_both_setups(board_a, board_b):
    for board in (board_a, board_b):
        for conf in board.run.configs:
            assert_queries_agree(conf)


def test_queries_agree_along_a_seeded_random_walk(board_a, board_b):
    # short walks from boards along both set-ups, since a walk can end the game
    rng = random.Random(20261018)
    checked = 0
    for board in (board_a, board_b):
        for conf in board.run.configs[::40]:
            for _ in range(25):
                moves = legal_moves(conf, conf.priority)
                if not moves:
                    break
                conf = rules.apply(conf, rng.choice(moves))
                assert_queries_agree(conf)
                checked += 1
    assert checked >= 500


# --- Pole Position boards --------------------------------------------------------


def _pole_board(board_b):
    """Set-up B's final board: Pole Position is up on player 2's side, Flint
    and Mist Body sit on their Clara, Massivemorph on our Starving Venemy
    Dragon in the extra monster zone."""
    conf = board_b.final
    assert any(st.card == POLE_POSITION and st.face_up for _l, st in conf.iter_spelltraps())
    return conf


def test_pole_boards_from_setup_b_resolve_as_judged_per_step(board_b):
    conf = _pole_board(board_b)
    assert_resolutions_agree(conf)
    # Massivemorph and Flint moved onto monsters that Book of Eclipse turns
    # face-down and Raigeki destroys, so each resolution sends equips to
    # the graveyard part-way: first with the dragon and the boosted
    # Protector tied at the top ATK, then with Flint on the dragon
    sts = conf.players[1].spelltraps
    boards = []
    for moved in ({MASSIVEMORPH: (1, MZONE, 1), FLINT: (0, MZONE, 1)},
                  {MASSIVEMORPH: (1, MZONE, 1), FLINT: (0, EXTRA, 0)}):
        placed = tuple(fast_replace(st, equipped_to=moved[st.card])
                       if st and st.card in moved else st for st in sts)
        boards.append(update_player(conf, 1, spelltraps=placed))
    assert rules._pole_shielded(boards[0]) == [(0, EXTRA, 0), (1, MZONE, 1)]
    # Pole Position negated, then face-down: no monster is shielded
    pole = next(i for i, st in enumerate(sts) if st and st.card == POLE_POSITION)
    for change in ({"negated": True}, {"face_up": False}):
        off = list(sts)
        off[pole] = fast_replace(sts[pole], **change)
        boards.append(update_player(conf, 1, spelltraps=tuple(off)))
    for board in boards:
        assert_resolutions_agree(board)


def test_offerings_on_pole_boards_agree(board_b):
    conf = _pole_board(board_b)
    for loc, inst in conf.iter_monsters():
        if not inst.face_up:
            continue
        legal = not naive_pole_protected(conf, loc, inst)
        check = rules.EFFECTS["offerings_destroy_skip"].check
        if legal:
            check(conf, 0, None, (loc,), ())
            after = rules._res_offerings(conf, 0, None, (loc,), ())
            assert_queries_agree(after)
        else:
            with pytest.raises(rules.IllegalMove, match="protected from spells"):
                check(conf, 0, None, (loc,), ())


_MONSTERS = [spec.id for spec in CARDS if spec.is_monster] + [FILLER]
_EQUIPS = (MASSIVEMORPH, FLINT, MIST_BODY, MASSIVEMORPH)


def _random_pole_board(rng, base):
    """Random monsters and equips (some face-down, some on empty or
    face-down zones) with Pole Position up on player 1's side, now and then
    watching a zone as an equip does."""
    locs = [(p, MZONE, i) for p in (0, 1) for i in range(5)] + [(0, EXTRA, 0), (1, EXTRA, 0)]
    conf = base
    for p in (0, 1):
        monsters = tuple(CardInstance(rng.choice(_MONSTERS), face_up=rng.random() < 0.8)
                         if rng.random() < 0.7 else None for _ in range(5))
        sts = [CardInstance(rng.choice(_EQUIPS), face_up=rng.random() < 0.9,
                            equipped_to=rng.choice(locs)) if rng.random() < 0.6 else None
               for _ in range(5)]
        if p == 0:
            sts[4] = CardInstance(POLE_POSITION, equipped_to=rng.choice(locs + [None] * 20))
        conf = update_player(conf, p, monsters=monsters, spelltraps=tuple(sts), extra_zone=None)
    return conf


def test_random_pole_boards_resolve_as_judged_per_step(board_b):
    rng = random.Random(5)
    for _ in range(150):
        assert_resolutions_agree(_random_pole_board(rng, board_b.final))



def test_protection_is_judged_at_each_step(board_b):
    """A Pole Position watching a zone, which the codec admits, goes to the
    graveyard with the monster there, and the monsters after it are judged
    without its shield: judged once against the board the resolution
    started from, the top dragon would stay."""
    conf = _pole_board(board_b)
    sts = tuple(fast_replace(st, equipped_to=(0, MZONE, 0)) if st and st.card == POLE_POSITION
                else st for st in conf.players[1].spelltraps)
    conf = decode_configuration(encode_configuration(update_player(conf, 1, spelltraps=sts)))
    assert rules._pole_shielded(conf) == [(0, EXTRA, 0)]
    assert not rules._res_boe(conf, 0, None, (), ()).players[0].extra_zone.face_up
    assert rules._res_raigeki(conf, 1, None, (), ()).players[0].extra_zone is None
    assert_resolutions_agree(conf)
