"""The activation path that reads its facts off the effect rows, against the
one that named its effects, kept here as the reference: every activation
that ``legal_moves`` or the effect rows' candidates make, and every one the
scripts make, on every configuration of both set-up runs and of seeded
random walks from them.  Each is accepted or refused alike, with the same
message, and lands on the same configuration; the one allowed difference
is an activation that carries extras its effect never reads, which the
reference accepts and the rows refuse, as the tests at the end check on
their own."""

import dataclasses
import json
import random

import pytest

from duelhalt.carddb import BAIT_DOLL, ENDYMION, FILLER, SVD, TEMPLE, Kind, by_id, is_trap_id
from duelhalt.engine import ActivateEffect, legal_moves, rules
from duelhalt.engine.config import (EXTRA, EXTRADECK, FZONE, GY, HAND, SZONE, CardInstance,
                                    Phase, fast_replace, update_player)
from duelhalt.engine.moves import encode_move, render_move
from duelhalt.errors import IllegalMove, MalformedCode
from duelhalt.scripts import Line, play_cycles
from duelhalt.trace import replay_trace, trace_lines

# --- the reference: the activation path as it stood before the Effect rows ----

_NON_CARDPLAY = {"endymion_counter_summon", "clara_link_summon", "svd_negate"}
_MAIN_ONLY = _NON_CARDPLAY | {"polymerization_fuse"}
_CHAIN_PATTERNS = (
    frozenset({"desert_sunlight_flip_up", "soul_drain_gy_lock"}),
    frozenset({"give_and_take"}),
)
# the effects that read their extras, named here rather than read off the rows
_READS_EXTRAS = {"pot_duality", "bait_doll_force", "desert_sunlight_flip_up",
                 "mse_discard_recover", "give_and_take", "reverse_reuse",
                 "endymion_counter_summon"}


def ref_chk_double_summon(conf, p, source, targets, extras):
    if targets or extras:
        raise IllegalMove("Double Summon takes no targets")


def ref_check(effect):
    return ref_chk_double_summon if effect == "double_summon_extra" else rules.EFFECTS[effect].check


def ref_res_bait_doll(conf, p, source, targets, extras):
    t = targets[0]
    inst = conf.instance_at(t)
    if inst is not None and not inst.face_up and is_trap_id(inst.card):
        eff = by_id(inst.card).effects[0]
        inner_targets, inner_extras = rules._unpack_forced(extras)
        ref_check(eff)(conf, t[0], t, inner_targets, inner_extras)
        conf = ref_resolve_activation(conf, t[0], eff, t, inner_targets, inner_extras)
    ps = conf.players[p]
    return update_player(conf, p, deck=ps.deck + (BAIT_DOLL,))


def ref_resolve(effect):
    # Soul Drain resolved to no change: its cost was paid by the wrapper
    if effect == "soul_drain_gy_lock":
        return rules._no_change
    return ref_res_bait_doll if effect == "bait_doll_force" else rules.EFFECTS[effect].resolve


def ref_timing_ok(conf, p, effect, source):
    cid = rules._effect_card(conf, p, source)
    if cid == FILLER:
        return False
    spec = by_id(cid)
    if effect not in spec.effects:
        return False
    main = conf.phase in (Phase.MAIN1, Phase.MAIN2)
    own_turn = conf.active == p
    if effect in _MAIN_ONLY:
        return own_turn and main
    if source[1] == HAND:
        if spec.kind == Kind.QUICKPLAY_SPELL:
            return own_turn and conf.phase != Phase.DRAW
        if spec.is_spell:
            return own_turn and main
        return False
    if source[1] == SZONE or source[1] == FZONE:
        inst = conf.instance_at(source)
        if inst is None:
            return False
        if inst.face_up:
            return False
        if spec.is_trap:
            if inst.set_turn == conf.turn and rules._controls_faceup(conf, p, TEMPLE) is None:
                return False
            return True
        if spec.kind == Kind.QUICKPLAY_SPELL:
            if inst.set_turn == conf.turn:
                return False
            return conf.phase != Phase.DRAW
        if spec.is_spell:
            return own_turn and main
    return False


def ref_resolve_activation(conf, p, effect, source, targets, extras):
    cid = rules._effect_card(conf, p, source)
    spec = by_id(cid)
    res = ref_resolve(effect)
    if effect in _NON_CARDPLAY:
        return res(conf, p, source, targets, extras)
    from_hand = source[1] == HAND
    if effect == "soul_drain_gy_lock":
        conf = rules._adjust_lp(conf, p, -1000)
    more = {}
    cloc = rules._citadel_loc(conf) if spec.is_spell else None
    if cloc is not None:
        cit = conf.instance_at(cloc)
        cit = fast_replace(cit, counters=cit.counters + 1)
        if from_hand and cloc[0] == p:
            more["field_zone"] = cit
        else:
            conf = rules._set_slot(conf, cloc, cit)
    src = source
    if from_hand:
        if spec.kind in (Kind.CONTINUOUS_SPELL, Kind.EQUIP_SPELL):
            src = (p, SZONE, rules._first_free(conf.players[p].spelltraps))
        elif spec.kind == Kind.FIELD_SPELL:
            src = (p, FZONE, 0)
        if src is source:
            conf = rules._remove_hand(conf, p, cid, **more)
        else:
            conf = rules._set_slot(conf, src, CardInstance(cid, face_up=True, face_since=conf.turn),
                                   hand=rules._hand_without(conf.players[p], cid), **more)
    elif effect == "desert_sunlight_flip_up":
        return res(rules._to_gy(conf, source), p, source, targets, extras)
    else:
        inst = conf.instance_at(source)
        if inst is not None and not inst.face_up:
            conf = rules._set_slot(conf, source,
                                   fast_replace(inst, face_up=True, face_since=conf.turn))
    conf = res(conf, p, src, targets, extras)
    if spec.kind in (Kind.NORMAL_SPELL, Kind.QUICKPLAY_SPELL, Kind.NORMAL_TRAP):
        if effect == "bait_doll_force":
            pass
        elif from_hand:
            conf = update_player(conf, p, gy=conf.players[p].gy + (cid,))
        else:
            inst = conf.instance_at(src)
            if inst is not None and inst.card == cid:
                conf = rules._to_gy(conf, src)
    return conf


def ref_chk_activate(conf, move):
    p = move.player
    if move.chain:
        effects = frozenset({move.effect} | {link.effect for link in move.chain})
        if not any(effects <= pat for pat in _CHAIN_PATTERNS):
            raise IllegalMove("unsupported chain construction")
        for link in move.chain:
            if not ref_timing_ok(conf, p, link.effect, link.source):
                raise IllegalMove("chain link timing is wrong")
            ref_check(link.effect)(conf, p, link.source, link.targets, link.extras)
    ref_check(move.effect)(conf, p, move.source, move.targets, move.extras)
    if move.source[1] == HAND:
        kind = by_id(move.source[2]).kind
        if (kind in (Kind.CONTINUOUS_SPELL, Kind.EQUIP_SPELL)
                and rules._first_free(conf.players[p].spelltraps) is None):
            raise IllegalMove("no free spell/trap zone")
        if kind == Kind.FIELD_SPELL and conf.players[p].field_zone is not None:
            raise IllegalMove("field zone occupied")
    if move.effect == "bait_doll_force" or (move.extras or move.chain) and any(
            link.effect == "desert_sunlight_flip_up" and link.extras
            for link in (move, *move.chain)):
        return ref_apply_activate(conf, move)
    return None


def ref_apply_activate(conf, move):
    conf2 = conf
    for a in (*reversed(move.chain), move):
        conf2 = ref_resolve_activation(conf2, move.player, a.effect, a.source, a.targets, a.extras)
    if conf.priority != conf.active:
        conf2 = fast_replace(conf2, priority=conf.active)
    return conf2


def ref_activation_sources(conf, p):
    ps = conf.players[p]
    sources = [(effect, (p, HAND, cid))
               for cid in sorted(set(ps.hand)) for effect in rules._ACTIVATABLE.get(cid, ())]
    sources += rules._set_card_sources(conf, p)
    sources += [("endymion_counter_summon", (p, GY, idx))
                for idx, cid in enumerate(ps.gy) if cid == ENDYMION]
    sources += [(effect, (p, EXTRADECK, cid))
                for cid in set(ps.extra_deck) for effect in rules._ACTIVATABLE[cid]]
    if ps.extra_zone is not None and ps.extra_zone.card == SVD:
        sources.append(("svd_negate", (p, EXTRA, 0)))
    return sources


def ref_check_legal(conf, move):
    """``check_legal`` on an activation: the shared prelude and window, then
    the reference timing and check."""
    kind = rules._KINDS[ActivateEffect]
    forced = rules._prelude(conf, move.player, kind.locators(move))
    msg = rules._refusal(conf, move.player, ActivateEffect, kind, forced)
    if msg is not None:
        raise IllegalMove(msg)
    assert forced is None  # no forced window admits an activation
    if move.effect not in rules.EFFECTS:
        raise IllegalMove(f"unknown effect {move.effect!r}")
    if not ref_timing_ok(conf, move.player, move.effect, move.source):
        raise IllegalMove("activation timing is wrong")
    return ref_chk_activate(conf, move)


def ref_apply(conf, move):
    nxt = ref_check_legal(conf, move)
    return ref_apply_activate(conf, move) if nxt is None else nxt


# --- the comparison -------------------------------------------------------------


def unread_extras(conf, move):
    """Whether the move, a chain link or Bait Doll's forced trap carries
    extras its effect does not read."""
    if any(link.extras and link.effect not in _READS_EXTRAS for link in (move, *move.chain)):
        return True
    if move.effect != "bait_doll_force" or not move.targets:
        return False
    inst = conf.instance_at(move.targets[0])
    try:
        _targets, extras = rules._unpack_forced(move.extras)
    except IllegalMove:
        return False
    return (inst is not None and is_trap_id(inst.card) and bool(extras)
            and by_id(inst.card).effects[0] not in _READS_EXTRAS)


def outcome(fn, conf, move):
    try:
        return fn(conf, move)
    except IllegalMove as err:
        return str(err)


def assert_agree(conf, move):
    """The rows' path and the reference agree on move at conf, in judging it
    (and whether that took resolving it) and in applying it; returns
    whether the move is legal."""
    judged = outcome(rules.check_legal, conf, move), outcome(ref_check_legal, conf, move)
    got, want = outcome(rules.apply, conf, move), outcome(ref_apply, conf, move)
    if got != want and unread_extras(conf, move):
        assert isinstance(got, str) and isinstance(judged[0], str), (move, got)
        return False
    assert judged[0] == judged[1] and got == want, move
    return not isinstance(got, str)


def with_extras(move):
    """The move with an extra appended to its extras, and to each chain
    link's in turn."""
    out = [dataclasses.replace(move, extras=move.extras + (7,))]
    for i, link in enumerate(move.chain):
        chain = list(move.chain)
        chain[i] = dataclasses.replace(link, extras=link.extras + (7,))
        out.append(dataclasses.replace(move, chain=tuple(chain)))
    return out


def script_activations(runs):
    """The scripts' activations, each also with unread extras appended."""
    moves = {m: None for run in runs for m in run.moves if isinstance(m, ActivateEffect)}
    for move in list(moves):
        moves.update(dict.fromkeys(with_extras(move)))
    return list(moves)


def assert_path_agrees(conf, scripted):
    """Every activation offered or scripted at conf; gives how many were
    legal."""
    offered = {}
    for p in (0, 1):
        sources = rules._activation_sources(conf, p)
        assert sources == ref_activation_sources(conf, p)
        assert ([rules._activation_timing_ok(conf, p, *source) for source in sources]
                == [ref_timing_ok(conf, p, *source) for source in sources])
        offered.update(dict.fromkeys(m for m in legal_moves(conf, p)
                                     if isinstance(m, ActivateEffect)))
        offered.update(dict.fromkeys(rules._cand_activate(conf, p)))
    legal = sum(assert_agree(conf, m) for m in offered)
    legal += sum(assert_agree(conf, m) for m in scripted if m.player == conf.priority)
    return legal


@pytest.fixture(scope="module")
def cycle_runs(board_a, board_b):
    runs = []
    for board in (board_a, board_b):
        line = Line(board.final)
        play_cycles(line, 2, 1)
        runs.append(line.result().run)
    return runs


def test_activation_path_agrees_along_both_setups(board_a, board_b, cycle_runs):
    runs = [board_a.run, board_b.run, *cycle_runs]
    scripted = script_activations(runs)
    legal = sum(assert_path_agrees(conf, scripted) for run in runs for conf in run.configs)
    assert legal > 3000


def test_activation_path_agrees_along_seeded_random_walks(board_a, board_b, cycle_runs):
    scripted = script_activations([board_a.run, board_b.run, *cycle_runs])
    rng = random.Random(20261019)
    walked = 0
    for board in (board_a, board_b):
        for conf in board.run.configs[::40]:
            for _ in range(25):
                moves = legal_moves(conf, conf.priority)
                if not moves:
                    break
                conf = rules.apply(conf, rng.choice(moves))
                assert_path_agrees(conf, scripted)
                walked += 1
    assert walked >= 500


# --- extras an effect does not read ------------------------------------------------


def test_activations_refuse_extras_their_effect_does_not_read(board_a, board_b):
    # each activation and chain link the set-ups play without extras, with
    # an extra appended; the ones that never read it used to reach the same
    # board, so one transition had many move codes
    refused = 0
    for board in (board_a, board_b):
        for conf, move in zip(board.run.configs, board.run.moves):
            if not isinstance(move, ActivateEffect):
                continue
            for i, link in enumerate((move, *move.chain)):
                if link.extras:
                    continue
                bent = dataclasses.replace(link, extras=(7,))
                if i:
                    chain = move.chain[:i - 1] + (bent,) + move.chain[i:]
                    bent = dataclasses.replace(move, chain=chain)
                assert not rules.is_legal(conf, bent)
                if link.effect not in _READS_EXTRAS:
                    with pytest.raises(IllegalMove, match="takes no extra choices"):
                        rules.apply(conf, bent)
                    refused += 1
    assert refused >= 15


def test_replay_refuses_an_upstart_goblin_with_extras(board_a):
    i = next(i for i, m in enumerate(board_a.run.moves)
             if isinstance(m, ActivateEffect) and m.effect == "upstart_draw")
    bent = dataclasses.replace(board_a.run.moves[i], extras=(7,))
    lines = list(trace_lines(board_a.run))
    rec = json.loads(lines[i])
    rec.update(move=str(encode_move(bent)), text=render_move(bent))
    lines[i] = json.dumps(rec, separators=(",", ":"))
    with pytest.raises(MalformedCode, match=f"trace line {i + 1} does not replay"):
        replay_trace(lines, board_a.run.configs[0])
    moves = board_a.run.moves[:i] + (bent,) + board_a.run.moves[i + 1:]
    assert not rules.validate_run(rules.Run(board_a.run.configs, moves))
