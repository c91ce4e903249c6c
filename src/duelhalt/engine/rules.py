"""Legal moves, the transition function, and the restricted card effects.

The fragment implements exactly the mechanics the constructions exercise:
draw with skip flags, normal/flip/special summons with tributes, sets,
activation of the construction cards' effects, equip retargeting, direct
and monster attacks with standard damage, the phase structure, the End
Phase hand limit, and resolution of the two specific chain shapes used by
the scripts (Desert Sunlight answered by Soul Drain; Give and Take copies
chained together).  Everything else is rejected as an illegal move.

Priority model: the turn player holds priority inside a phase.  A Pass
hands the window to the opponent when they have a usable quick effect
(set traps or set quick-play spells); otherwise, and after the opponent
passes, the phase advances.  ``AdvancePhase`` is accepted as an explicit
alias for a Pass that would advance.

Legality has one source.  ``check_legal`` is the only judge: a shared
prelude (game over, player and locators, priority), the forced windows
(opening draws, hand limit, mandatory draw), then the row of the move's
kind in ``_KINDS``: its window, its timing and its check.  ``apply`` is
``check_legal`` followed by the row's apply, and raises IllegalMove only
through ``check_legal``, so ``is_legal(c, m)`` holds exactly when
``apply(c, m)`` returns.  ``legal_moves`` only proposes: it keeps the rows'
candidates that ``check_legal`` accepts, in row order, and makes no test of
its own.
"""

from __future__ import annotations

import itertools
import operator
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from ..carddb import (
    ATTRAFFIC, BAIT_DOLL, CARDS, CITADEL, CLARA, ENDYMION, FILLER, FLINT, FLINT_LOCK,
    MASSIVEMORPH, MIST_BODY, MOD, MOF, MORALE_BOOST, MORPHING_JAR, ODD_EYES, POLE_POSITION,
    PROTECTOR, SOUL_DRAIN, SVD, TEMPLE, VANITY, YATA, Kind, by_id, card_name, is_monster_id,
    is_spell_id, is_trap_id,
)
from ..coding import LOC, NAT, Fixed, Seq
from ..errors import IllegalDeck, IllegalMove
from .config import fast_replace as replace
from .config import (
    ATK,
    DEF,
    EXTRA,
    EXTRADECK,
    FZONE,
    GY,
    HAND,
    HAND_LIMIT,
    MZONE,
    N_MZONES,
    N_SZONES,
    SZONE,
    CardInstance,
    Configuration,
    Loc,
    Phase,
    PlayerState,
    START_LP,
    update_player,
)
from .moves import (
    ActivateEffect,
    AdvancePhase,
    ChangeEquipTarget,
    DeclareAttack,
    DIRECT,
    DiscardToLimit,
    DrawCard,
    FlipSummon,
    Move,
    NormalSummon,
    Pass,
    SetSpellTrap,
)

_COMBO_CAP = 200  # enumeration cap for multi-target effects


class Run:
    """A line of play c_0 m_1 c_1 ... m_n c_n of length n, as a persistent
    parent-pointer node (Driscoll, Sarnak, Sleator and Tarjan, "Making Data
    Structures Persistent", 1989): extending is O(1) and shares the prefix.
    The tuples are built on first read and cached on the node read."""

    __slots__ = ("_parent", "_move", "_conf", "_len", "_configs", "_moves")

    def __init__(self, configs: Iterable[Configuration], moves: Iterable[Move]):
        configs, moves = tuple(configs), tuple(moves)
        n = len(moves)
        if len(configs) != n + 1:
            raise ValueError(f"a run of {n} moves has {n + 1} configurations, not {len(configs)}")
        parent = Run(configs[:1], ()) if n else None
        for k in range(1, n):
            parent = _link(parent, configs[k], moves[k - 1])
        self._parent, self._move, self._conf = parent, moves[-1] if n else None, configs[-1]
        self._len, self._configs, self._moves = n, configs, moves

    def __len__(self) -> int:
        return self._len

    def last(self) -> Configuration:
        return self._conf

    def extend(self, conf: Configuration, move: Move) -> "Run":
        """The run one transition on: the explorer's step, once per transition."""
        return _link(self, conf, move)

    @property
    def configs(self) -> tuple[Configuration, ...]:
        if self._configs is None:
            self._configs = tuple(self.since(0))
        return self._configs

    @property
    def moves(self) -> tuple[Move, ...]:
        if self._moves is None:
            self._moves = tuple(move for _c, move, _n in self.steps())
        return self._moves

    def _from(self, n: int) -> list["Run"]:
        """The nodes of c_n ... c_len, walking back only to c_n."""
        if n < 0:
            raise ValueError(f"a run has no configuration c_{n}")
        node, nodes = self, []
        while node is not None and node._len >= n:
            nodes.append(node)
            node = node._parent
        return nodes[::-1]

    def since(self, n: int) -> list[Configuration]:
        """The configurations c_n ... c_len; none when the run is shorter."""
        return [node._conf for node in self._from(n)]

    def steps(self, n: int = 0) -> Iterator[tuple[Configuration, Move, Configuration]]:
        """The transitions after c_n, in order, as (before, move, after)."""
        nodes = self._from(n)
        return ((a._conf, b._move, b._conf) for a, b in zip(nodes, nodes[1:]))


def _link(parent: Run, conf: Configuration, move: Move) -> Run:
    """The node one transition after parent.  Lines and trace replays link
    here, so ``Run.extend`` counts only the explorer's transitions."""
    run = object.__new__(Run)
    run._parent, run._move, run._conf, run._len = parent, move, conf, parent._len + 1
    run._configs = run._moves = None
    return run


# --- construction -------------------------------------------------------


def initial_configuration(deck1, deck2, order1, order2) -> Configuration:
    """Pre-game state: full decks in the given orders, nothing drawn."""
    deck1.validate()
    deck2.validate()
    piles = []
    extras = []
    for deck, order in ((deck1, order1), (deck2, order2)):
        if sorted(order) != list(range(len(deck.main))):
            raise IllegalDeck("order is not a permutation of the main deck")
        piles.append(tuple(deck.main[i] for i in order))
        extras.append(tuple(deck.extra))
    p0 = PlayerState(deck=piles[0], extra_deck=extras[0])
    p1 = PlayerState(deck=piles[1], extra_deck=extras[1])
    return Configuration(players=(p0, p1))


def identity_order(deck) -> tuple[int, ...]:
    return tuple(range(len(deck.main)))


# --- continuous-effect queries ------------------------------------------
#
# Each query reads the configuration as it stands, in one pass over the zones
# it needs: nothing is cached on a configuration, since runs, plan caches and
# transposition tables keep configurations alive.


def _controls_faceup(conf: Configuration, p: int, cid: int) -> Optional[Loc]:
    """The first of p's zones holding a face-up, unnegated cid."""
    ps = conf.players[p]
    for kind, zones in ((SZONE, ps.spelltraps), (FZONE, (ps.field_zone,)),
                        (MZONE, ps.monsters), (EXTRA, (ps.extra_zone,))):
        for i, inst in enumerate(zones):
            if inst is not None and inst.card == cid and inst.face_up and not inst.negated:
                return (p, kind, i)
    return None


_BASE_ATK = {spec.id: spec.stats.atk if spec.stats else 0 for spec in CARDS}
_EQUIP_ATK = {MASSIVEMORPH: 2000, FLINT: -300}


def _equip_scan(conf: Configuration) -> tuple[dict[Loc, int], bool]:
    """One scan of both players' spell/trap zones: the ATK the face-up
    equips add to each monster they are on, and whether a face-up Pole
    Position is in force."""
    mods: dict[Loc, int] = {}
    pole = False
    for ps in conf.players:
        for st in ps.spelltraps:
            if st is None or not st.face_up:
                continue
            if st.card in _EQUIP_ATK and st.equipped_to is not None:
                mods[st.equipped_to] = mods.get(st.equipped_to, 0) + _EQUIP_ATK[st.card]
            elif st.card == POLE_POSITION and not st.negated:
                pole = True
    return mods, pole


def current_atk(conf: Configuration, loc: Loc, inst: CardInstance) -> int:
    return max(_BASE_ATK.get(inst.card, 0) + _equip_scan(conf)[0].get(loc, 0), 0)


def _pole_shielded(conf: Configuration) -> list[Loc]:
    """The face-up monsters of the top ATK while Pole Position is up: the
    ones spells cannot touch.  O(S + M) for S spell/traps and M monsters."""
    mods, pole = _equip_scan(conf)
    if not pole:
        return []
    top, shielded = -1, []
    for loc, m in conf.iter_monsters():
        if m.face_up:
            atk = max(_BASE_ATK.get(m.card, 0) + mods.get(loc, 0), 0)
            if atk > top:
                top, shielded = atk, [loc]
            elif atk == top:
                shielded.append(loc)
    return shielded


def _pole_protected(conf: Configuration, loc: Loc, inst: CardInstance) -> bool:
    """Spell immunity for the highest-ATK face-up monsters under Pole Position."""
    return inst.face_up and loc in _pole_shielded(conf)


def _equipped(conf: Configuration, loc: Loc, cid: int) -> bool:
    """Whether a face-up cid is equipped to the monster at loc."""
    return any(st is not None and st.equipped_to == loc and st.card == cid and st.face_up
               for ps in conf.players for st in ps.spelltraps)


def _effect_draw_blocked(conf: Configuration, p: int) -> bool:
    """True when p cannot draw outside their own Draw Phase."""
    opp = 1 - p
    if _controls_faceup(conf, opp, PROTECTOR) is not None:
        return True
    if _controls_faceup(conf, opp, ATTRAFFIC) is not None:
        return True
    return False


def _special_summon_blocked(conf: Configuration, p: int) -> bool:
    return _controls_faceup(conf, 1 - p, VANITY) is not None


def _soul_drain_up(conf: Configuration) -> bool:
    return any(st is not None and st.card == SOUL_DRAIN and st.face_up and not st.negated
               for ps in conf.players for st in ps.spelltraps)


def _citadel_loc(conf: Configuration) -> Optional[Loc]:
    for p in (0, 1):
        fz = conf.players[p].field_zone
        if fz is not None and fz.card == CITADEL and fz.face_up:
            return (p, FZONE, 0)
    return None


def spell_counters(conf: Configuration) -> int:
    loc = _citadel_loc(conf)
    if loc is None:
        return 0
    return conf.instance_at(loc).counters


# --- the frame, and moving a recorded line onto a new one -----------------

_STAMPS = ("set_turn", "face_since", "summoned_turn")


def transport(confs: Iterable[Configuration], start: Configuration,
              onto: Configuration, numeric: bool = False) -> list[Configuration]:
    """The configurations of a line recorded from start, moved onto the
    start onto, which agrees with start outside the frame.

    The frame is what the rules read only against a few thresholds, or a
    line may leave alone:
    - the counters on P1's face-up Magical Citadel and P2's LP;
    - the turn, with each stamp (``set_turn``, ``face_since``,
      ``summoned_turn``) at or after start's turn;
    - P2's deck, hand and graveyard.
    The image T(c) of a recorded c adds onto's differences over start to
    the counters, P2's LP, the turn and each stamp at or after start's
    turn; a stamp before it (a past one) of a card changed since start is
    read off the same slot of onto; and P2's piles are onto's when start's
    differ from them.  Records c shares with start are onto's own and
    every other one is copied once per call, so T(start) = onto and a step
    costs a few ``fast_replace`` copies.  With numeric set the caller
    vouches that start and onto differ only in the counters and P2's LP,
    as the cycle table's starts do, and only those are moved.

    Lemma (the frame rule of separation logic, Reynolds, LICS 2002): for a
    move m made at c while P1 is the turn player, apply(T(c), m) is
    defined exactly when apply(c, m) is, and then equals T(apply(c, m)),
    under the guard that each of the engine's reads of a frame field below
    names.  A read answers alike at c and T(c) under its guard; every other
    use of a frame field adds to it or copies it, which commutes with T.
    - The counters: Endymion's 6-counter check and -6.  Guard: the
      counters move by 0, or the line summons no Endymion.  A spell's +1
      commutes.
    - P2's LP: the terminal tests' ``== 0`` (``_terminal``,
      ``is_winning_state``), ``_adjust_lp``'s clamp at 0 and, when P2
      pays it, Soul Drain's 1000 LP.  Guard: the LP moves by 0, or P2's LP
      stays positive all along the line and its image and, where P2 pays
      for Soul Drain, at least 1000.  Gains and damage commute.
    - The turn: ``turn == 0`` (the opening windows, ``_apply_draw``,
      ``_apply_pass``, ``_advance_phase``), ``turn == 1`` and ``!= 1``
      (``_start_turn``'s first draw, the turn-1 attack ban), ``turn >= 1``
      (``_deck_out_pending``) and the parity ``_start_turn`` makes the
      turn player from.  Guard: start and onto are at turn 2 or later and
      the turn moves by an even number.
    - The stamps, compared only with the turn: ``set_turn == turn`` (a
      trap or quick-play spell set this turn, ``_activation_timing_ok``,
      ``_chk_bait_doll``), ``face_since >= turn`` and ``set_turn == turn``
      (``_chk_flip``) and ``summoned_turn == turn`` (Yata's bounce in
      ``_end_phase_events``).  A stamp at or after start's turn moves with
      the turn and one before it stays below it, so each answers alike; a
      written stamp is the turn.  A past stamp of a changed card is the one
      its slot had at start, since only Creature Swap moves a card with its
      stamps to another slot.  Guard: the line plays no Creature Swap.
    - P2's piles: every draw, discard, send to the graveyard and return to
      the hand changes them.  Guard: a line that changes them moves only
      onto equal piles.  The reads that change nothing are a draw from an
      empty deck (P2 draws by Book of Eclipse's End Phase and by Morphing
      Jar), Morphing Jar's discard of an empty hand, the checks and
      candidates of P2's set cards that P2's answer to a Pass runs
      (``_has_quick_move``), and a card activated from P2's graveyard
      (``_effect_card``).  Guard: P2's deck and hand are empty at start
      exactly when at onto, and a line that meets a set card of P2's or
      activates from P2's graveyard moves only onto equal piles.  The
      opening windows read both hands (turn >= 2), the hand limit and
      deck-out read the turn player's, P1's, and so does every other read.
    Outside any move, ``is_initial`` reads the turn and both LP totals.
    ``unframed`` takes this frame out of a start, and ``line_frame`` reads
    a recorded line's guards.
    """
    since, dt = start.turn, onto.turn - start.turn
    was, now = start.players, onto.players
    dl = now[1].lp - was[1].lp
    cit = was[0].field_zone
    dc = (now[0].field_zone.counters - cit.counters
          if cit is not None and cit.card == CITADEL and cit.face_up else 0)
    memo: dict[int, object] = {id(was[p]): now[p] for p in (0, 1)}
    if numeric:
        out = []
        for c in confs:
            p1, p2 = c.players
            fz = p1.field_zone
            if dc and fz.card == CITADEL and fz.face_up:
                p1 = replace(p1, field_zone=replace(fz, counters=fz.counters + dc))
            got = memo.get(id(p2))
            if got is None:
                got = memo[id(p2)] = replace(p2, lp=p2.lp + dl)
            out.append(replace(c, players=(p1, got)))
        return out
    piles = {} if _piles(was[1]) == _piles(now[1]) else dict(zip(_PILES, _piles(now[1])))
    for p in (0, 1):
        memo[id(was[p].monsters)] = now[p].monsters
        memo[id(was[p].spelltraps)] = now[p].spelltraps

    def card(inst, at_start, at_onto, dc=0):
        """The image of the card in a slot; at_start, at_onto: the slot's
        card at start and at onto."""
        if inst is at_start:
            return at_onto
        if inst is None:
            return None
        got = memo.get(id(inst))
        if got is None:
            changes = {}
            for f in _STAMPS:
                v = getattr(inst, f)
                w = v + dt if v >= since else getattr(at_onto, f) if v >= 0 else v
                if w != v:
                    changes[f] = w
            if dc and inst.card == CITADEL and inst.face_up:
                changes["counters"] = inst.counters + dc
            got = memo[id(inst)] = replace(inst, **changes) if changes else inst
        return got

    def zones(cards, at_start, at_onto):
        got = memo.get(id(cards))
        if got is None:
            img = tuple(map(card, cards, at_start, at_onto))
            got = memo[id(cards)] = cards if all(map(operator.is_, img, cards)) else img
        return got

    def player(ps, p):
        got = memo.get(id(ps))
        if got is None:
            w, o = was[p], now[p]
            changes = {"monsters": zones(ps.monsters, w.monsters, o.monsters),
                       "spelltraps": zones(ps.spelltraps, w.spelltraps, o.spelltraps),
                       "extra_zone": card(ps.extra_zone, w.extra_zone, o.extra_zone),
                       "field_zone": card(ps.field_zone, w.field_zone, o.field_zone,
                                          0 if p else dc)}
            if p:
                changes["lp"] = ps.lp + dl
                changes.update(piles)
            got = memo[id(ps)] = replace(ps, **changes)
        return got

    return [replace(c, turn=c.turn + dt,
                    players=(player(c.players[0], 0), player(c.players[1], 1)))
            for c in confs]


_PILES = ("deck", "hand", "gy")


def _piles(ps: PlayerState) -> tuple:
    return ps.deck, ps.hand, ps.gy


def unframed(conf: Configuration) -> Configuration:
    """conf with the frame of ``transport`` taken out, but for the counters:
    of the turn only its parity, each stamp at or after the turn as its
    distance from it and each past one as -2, P2's LP 0, and of P2's piles
    only whether the deck and the hand are empty.  Starts with equal images
    differ only in the frame, by an even number of turns."""
    turn = conf.turn

    def card(inst):
        if inst is None:
            return None
        changes = {}
        for f in _STAMPS:
            v = getattr(inst, f)
            w = v - turn if v >= turn else -2 if v >= 0 else v
            if w != v:
                changes[f] = w
        return replace(inst, **changes) if changes else inst

    def player(ps):
        return replace(ps, monsters=tuple(map(card, ps.monsters)),
                       spelltraps=tuple(map(card, ps.spelltraps)),
                       extra_zone=card(ps.extra_zone), field_zone=card(ps.field_zone))

    p1, p2 = conf.players
    p2 = replace(player(p2), lp=0, deck=(FILLER,) if p2.deck else (),
                 hand=(FILLER,) if p2.hand else (), gy=())
    return replace(conf, turn=turn % 2, players=(player(p1), p2))


def line_frame(steps: Sequence[tuple[Configuration, Move, Configuration]]
               ) -> Optional[tuple[int, bool]]:
    """What a recorded line asks of the frame it is moved onto, read from
    its (before, move, after) steps: None when ``transport``'s lemma does
    not cover it (a start before turn 2, a move made while P2 is the turn
    player, a Creature Swap), else P2's lowest LP along it and whether its
    piles may move: the line leaves them as they are, meets no set card
    of P2's and activates nothing from P2's graveyard."""
    if not steps or steps[0][0].turn < 2:
        return None
    piles = _piles(steps[0][0].players[1])
    low, free = steps[0][0].players[1].lp, True
    for conf, move, nxt in steps:
        if conf.active != 0:
            return None
        links = (move, *move.chain) if isinstance(move, ActivateEffect) else ()
        if any(a.effect == "creature_swap" for a in links):
            return None
        low = min(low, nxt.players[1].lp)
        free = free and _piles(nxt.players[1]) == piles and not any(
            a.source[:2] == (1, GY) for a in links) and not any(
            st is not None and not st.face_up for st in conf.players[1].spelltraps)
    return low, free


def _temple_available(conf: Configuration, p: int) -> bool:
    # while the temple is up, traps may fire the turn they were set; the
    # counter loop leans on this several times per turn
    return _controls_faceup(conf, p, TEMPLE) is not None


# --- zone plumbing -------------------------------------------------------
#
# A helper that changes one player takes that player's other changes as
# keywords, so that a move rewriting a player twice copies it, and the
# configuration, once.


def _set_slot(conf: Configuration, loc: Loc, inst: Optional[CardInstance],
              **more) -> Configuration:
    p, kind, idx = loc
    ps = conf.players[p]
    if kind == MZONE:
        zones = list(ps.monsters)
        zones[idx] = inst
        return update_player(conf, p, monsters=tuple(zones), **more)
    if kind == SZONE:
        zones = list(ps.spelltraps)
        zones[idx] = inst
        return update_player(conf, p, spelltraps=tuple(zones), **more)
    if kind == FZONE:
        return update_player(conf, p, field_zone=inst, **more)
    if kind == EXTRA:
        return update_player(conf, p, extra_zone=inst, **more)
    raise IllegalMove(f"bad zone in locator {loc}")


def _to_gy(conf: Configuration, loc: Loc) -> Configuration:
    """The card at loc sent to its controller's graveyard."""
    ps = conf.players[loc[0]]
    return _set_slot(conf, loc, None, gy=ps.gy + (conf.instance_at(loc).card,))


def _hand_without(ps: PlayerState, cid: int) -> tuple[int, ...]:
    hand = list(ps.hand)
    if cid not in hand:
        raise IllegalMove(f"{card_name(cid)} is not in hand")
    hand.remove(cid)
    return tuple(hand)


def _remove_hand(conf: Configuration, p: int, cid: int, **more) -> Configuration:
    return update_player(conf, p, hand=_hand_without(conf.players[p], cid), **more)


def _discard(conf: Configuration, p: int, cid: int) -> Configuration:
    return _remove_hand(conf, p, cid, gy=conf.players[p].gy + (cid,))


def _add_hand(conf: Configuration, p: int, cid: int, **more) -> Configuration:
    ps = conf.players[p]
    return update_player(conf, p, hand=tuple(sorted(ps.hand + (cid,))), **more)


def _gy_to_hand(conf: Configuration, p: int, idx: int) -> Configuration:
    gy = conf.players[p].gy
    return _add_hand(conf, p, gy[idx], gy=gy[:idx] + gy[idx + 1:])


def _adjust_lp(conf: Configuration, p: int, delta: int) -> Configuration:
    ps = conf.players[p]
    return update_player(conf, p, lp=max(0, ps.lp + delta))


def _cleanup_dependents(conf: Configuration, gone: Loc) -> Configuration:
    """Destroy the cards equipped to a zone: one copy of each player that
    controls any."""
    for p, ps in enumerate(conf.players):
        zones = ps.spelltraps + (ps.field_zone,)
        hit = [i for i, st in enumerate(zones) if st is not None and st.equipped_to == gone]
        if hit:
            kept = [None if i in hit else st for i, st in enumerate(zones)]
            conf = update_player(conf, p, spelltraps=tuple(kept[:N_SZONES]),
                                 field_zone=kept[N_SZONES],
                                 gy=ps.gy + tuple(zones[i].card for i in hit))
    return conf


def _leave_field(conf: Configuration, loc: Loc, to: str) -> Configuration:
    """Move a monster off the field to its controller's gy or hand, after
    its equips."""
    card = conf.instance_at(loc).card
    conf = _cleanup_dependents(conf, loc)
    ps = conf.players[loc[0]]
    if to == "hand":
        return _set_slot(conf, loc, None, hand=tuple(sorted(ps.hand + (card,))))
    return _set_slot(conf, loc, None, gy=ps.gy + (card,))


def _set_monsters(conf: Configuration,
                  placed: list[tuple[Loc, Optional[CardInstance]]]) -> Configuration:
    """conf with each (loc, inst) of placed in its monster zone: one copy of
    each player placed to."""
    for p in sorted({loc[0] for loc, _inst in placed}):
        zones = list(conf.players[p].monsters) + [conf.players[p].extra_zone]
        for (q, kind, i), inst in placed:
            if q == p:
                zones[N_MZONES if kind == EXTRA else i] = inst
        conf = update_player(conf, p, monsters=tuple(zones[:N_MZONES]),
                             extra_zone=zones[N_MZONES])
    return conf


def _face_up(inst: CardInstance, position: int, turn: int) -> CardInstance:
    return replace(inst, face_up=True, position=position, face_since=turn, summoned_turn=turn)


def _flip_up(conf: Configuration, loc: Loc, position: int) -> Configuration:
    return _set_slot(conf, loc, _face_up(conf.instance_at(loc), position, conf.turn))


def _draw_cards(conf: Configuration, p: int, n: int, by_effect: bool) -> Configuration:
    if by_effect and _effect_draw_blocked(conf, p):
        return conf
    ps = conf.players[p]
    take = min(n, len(ps.deck))
    drawn, rest = ps.deck[:take], ps.deck[take:]
    return update_player(conf, p, deck=rest, hand=tuple(sorted(ps.hand + drawn)))


# --- flip effects --------------------------------------------------------


def _resolve_flip_trigger(
    conf: Configuration, loc: Loc, choice: Optional[Loc]
) -> Configuration:
    inst = conf.instance_at(loc)
    if inst is None or not inst.face_up or inst.negated or inst.card == FILLER:
        return conf
    p = loc[0]
    if inst.card == MORPHING_JAR:
        for q in (0, 1):
            ps = conf.players[q]
            gy = ps.gy + ps.hand
            conf = update_player(conf, q, hand=(), gy=gy)
        for q in (0, 1):
            conf = _draw_cards(conf, q, 5, by_effect=True)
        return conf
    if inst.card in (MOF, MOD):
        if choice is None:
            return conf
        _chk_recovery(conf, p, inst.card, choice)
        return _gy_to_hand(conf, p, choice[2])
    return conf


def _chk_recovery(conf: Configuration, p: int, card: int, choice: Loc) -> None:
    """The one judge of a flip recovery, whether a flip summon or Desert
    Sunlight's flip choices make it: Magician of Faith takes a spell,
    Mask of Darkness a trap, from its controller's graveyard."""
    cp, kind, idx = choice
    gy = conf.players[p].gy
    _require(cp == p and kind == GY and 0 <= idx < len(gy), "bad recovery target")
    if card == MOF:
        _require(is_spell_id(gy[idx]), "Magician of Faith recovers spells only")
    else:
        _require(is_trap_id(gy[idx]), "Mask of Darkness recovers traps only")


def _flip_up_phase(conf: Configuration, p: int) -> tuple[Configuration, list[int]]:
    """Flip all of p's face-down monsters face-up in defense, in one copy of
    p; no triggers yet."""
    monsters = conf.players[p].monsters
    flipped = [i for i, inst in enumerate(monsters) if inst is not None and not inst.face_up]
    return _set_monsters(conf, [((p, MZONE, i), _face_up(monsters[i], DEF, conf.turn))
                                for i in flipped]), flipped


def _run_flip_triggers(
    conf: Configuration, p: int, zones: list[int], choices: dict[int, Optional[Loc]]
) -> Configuration:
    for i in zones:
        conf = _resolve_flip_trigger(conf, (p, MZONE, i), choices.get(i))
    return conf


# --- effect handlers ------------------------------------------------------
#
# check(conf, p, source, targets, extras) raises IllegalMove;
# resolve(conf, p, source, targets, extras) -> Configuration.
# candidates(conf, p, source) yields (targets, extras) pairs for the
# enumerator (a bounded representative family for multi-choice effects).


def _gy_locs(conf: Configuration, p: int, pred) -> list[Loc]:
    out = []
    for idx, cid in enumerate(conf.players[p].gy):
        if pred(cid):
            out.append((p, GY, idx))
    return out


def _first_free(zones: tuple[Optional[CardInstance], ...]) -> Optional[int]:
    return next((i for i, inst in enumerate(zones) if inst is None), None)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise IllegalMove(msg)


def _no_targets(what: str) -> Callable:
    """The check of an effect that takes no targets."""
    msg = f"{what} takes no targets"

    def check(conf, p, source, targets, extras):
        _require(not targets, msg)

    return check


def _no_change(conf, p, source, targets, extras):
    """The resolve of a card that only sets up a continuous effect: the
    activation wrapper places the card and pays its cost, and the rule
    queries read the effect off the board."""
    return conf


@cache
def _send_from_gy(to: str) -> Callable:
    """The resolve that sends the targeted graveyard cards to the bottom of
    their owner's deck (to="deck") or banishes them (to="banished")."""
    def resolve(conf, p, source, targets, extras):
        for q in (0, 1):
            idxs = sorted(t[2] for t in targets if t[0] == q)
            if not idxs:
                continue
            ps = conf.players[q]
            moved = tuple(ps.gy[i] for i in idxs)
            gy = tuple(cid for i, cid in enumerate(ps.gy) if i not in idxs)
            if to == "deck":
                conf = update_player(conf, q, gy=gy, deck=ps.deck + moved)
            else:
                conf = update_player(conf, q, gy=gy, banished=tuple(sorted(ps.banished + moved)))
        return conf

    return resolve


def _gy_targets(lo: int, hi: int, count_msg: str, to: str, own: bool = False,
                offer: Optional[int] = None) -> tuple[Callable, Callable, Callable]:
    """The (check, resolve, candidates) row of an effect that targets lo..hi
    graveyard cards and sends them on with _send_from_gy(to).

    ``own`` limits the targets to the activating player's graveyard; the
    candidates are the target sets of lo..offer cards (offer defaults to hi).
    """
    where_msg = "targets must be your graveyard cards" if own else "targets must be graveyard cards"
    sizes = range(lo, (hi if offer is None else offer) + 1)

    def check(conf, p, source, targets, extras):
        _require(lo <= len(targets) <= hi, count_msg)
        seen = set()
        for t in targets:
            _require((t[0] == p or not own) and t[1] == GY, where_msg)
            _require(0 <= t[2] < len(conf.players[t[0]].gy), "graveyard index out of range")
            _require(t not in seen, "duplicate target")
            seen.add(t)

    def candidates(conf, p, source):
        locs = [(q, GY, i) for q in ((p,) if own else (0, 1))
                for i in range(len(conf.players[q].gy))]
        combos = itertools.chain.from_iterable(itertools.combinations(locs, k) for k in sizes)
        for combo in itertools.islice(combos, _COMBO_CAP):
            yield combo, ()

    return check, _send_from_gy(to), candidates


def _chk_equip(count_msg: str, target_msg: str) -> Callable:
    """The check of an equip that targets 1 face-up monster."""
    def check(conf, p, source, targets, extras):
        _require(len(targets) == 1, count_msg)
        inst = conf.instance_at(targets[0])
        _require(inst is not None and inst.face_up and targets[0][1] in (MZONE, EXTRA),
                 target_msg)

    return check


def _res_equip(conf, p, source, targets, extras):
    inst = conf.instance_at(source)
    return _set_slot(conf, source, replace(inst, equipped_to=targets[0]))


def _cand_equip(conf, p, source):
    for loc, inst in conf.iter_monsters():
        if inst.face_up:
            yield (loc,), ()


def _chk_double_summon(conf, p, source, targets, extras):
    _require(not targets and not extras, "Double Summon takes no targets")


def _res_double_summon(conf, p, source, targets, extras):
    return replace(conf, normal_summon_allowance=conf.normal_summon_allowance + 1)


def _chk_gmc(conf, p, source, targets, extras):
    _require(1 <= len(targets) <= 2, "Gold Moon Coin gives 1 or 2 cards")
    hand = list(conf.players[p].hand)
    if source[1] == HAND and source[2] in hand:
        hand.remove(source[2])  # the activated copy is already leaving
    for t in targets:
        _require(t[0] == p and t[1] == HAND, "targets must be your hand cards")
        cid = t[2]
        _require(cid in hand, "card not in hand")
        hand.remove(cid)
        spec = by_id(cid)
        _require(spec.is_spell or spec.is_trap, "only spells/traps can be given")


def _res_gmc(conf, p, source, targets, extras):
    for t in targets:
        conf = _remove_hand(conf, p, t[2])
        conf = _add_hand(conf, 1 - p, t[2])
    return conf


def _cand_gmc(conf, p, source):
    cards = sorted({c for c in conf.players[p].hand if c != FILLER and not by_id(c).is_monster})
    for c in cards:
        yield ((p, HAND, c),), ()
    for pair_ in itertools.islice(itertools.combinations(cards, 2), _COMBO_CAP):
        yield tuple((p, HAND, c) for c in pair_), ()


def _res_rain_of_mercy(conf, p, source, targets, extras):
    conf = _adjust_lp(conf, 0, 1000)
    return _adjust_lp(conf, 1, 1000)


def _chk_upstart(conf, p, source, targets, extras):
    _require(not targets, "Upstart Goblin takes no targets")
    _require(len(conf.players[p].deck) >= 1, "no card to draw")
    _require(not _effect_draw_blocked(conf, p), "drawing outside the Draw Phase is blocked")


def _res_upstart(conf, p, source, targets, extras):
    conf = _draw_cards(conf, p, 1, by_effect=True)
    return _adjust_lp(conf, 1 - p, 1000)


def _chk_mst(conf, p, source, targets, extras):
    _require(len(targets) == 1, "Mystical Space Typhoon targets 1 spell/trap")
    t = targets[0]
    inst = conf.instance_at(t)
    _require(inst is not None and t[1] in (SZONE, FZONE), "target must be a spell/trap on the field")


def _res_mst(conf, p, source, targets, extras):
    t = targets[0]
    inst = conf.instance_at(t)
    if inst is None:
        return conf
    return _to_gy(conf, t)


def _cand_mst(conf, p, source):
    for loc, _inst in conf.iter_spelltraps():
        yield (loc,), ()


def _chk_pot_desires(conf, p, source, targets, extras):
    _require(not targets, "Pot of Desires takes no targets")
    _require(len(conf.players[p].deck) >= 12, "need 10 to banish plus 2 to draw")
    _require(not _effect_draw_blocked(conf, p), "drawing outside the Draw Phase is blocked")


def _res_pot_desires(conf, p, source, targets, extras):
    ps = conf.players[p]
    banished, rest = ps.deck[:10], ps.deck[10:]
    conf = update_player(
        conf, p, deck=rest, banished=tuple(sorted(ps.banished + banished))
    )
    return _draw_cards(conf, p, 2, by_effect=True)


def _chk_pot_duality(conf, p, source, targets, extras):
    _require(len(extras) == 1 and 0 <= extras[0] < 3, "choose one of the top 3")
    _require(len(conf.players[p].deck) >= 3, "need 3 cards to excavate")


def _res_pot_duality(conf, p, source, targets, extras):
    ps = conf.players[p]
    top, rest = list(ps.deck[:3]), ps.deck[3:]
    chosen = top.pop(extras[0])
    return _add_hand(conf, p, chosen, deck=rest + tuple(top))


def _chk_offerings(conf, p, source, targets, extras):
    _require(len(targets) == 1, "Offerings to the Doomed targets 1 face-up monster")
    t = targets[0]
    inst = conf.instance_at(t)
    _require(inst is not None and t[1] in (MZONE, EXTRA) and inst.face_up,
             "target must be a face-up monster")
    _require(not _pole_protected(conf, t, inst), "target is protected from spells")


def _res_offerings(conf, p, source, targets, extras):
    t = targets[0]
    if conf.instance_at(t) is not None:
        conf = _leave_field(conf, t, "gy")
    skip = list(conf.skip_draw)
    skip[p] = True
    return replace(conf, skip_draw=tuple(skip))


def _cand_offerings(conf, p, source):
    shielded = _pole_shielded(conf)
    for loc, inst in conf.iter_monsters():
        if inst.face_up and loc not in shielded:
            yield (loc,), ()


def _chk_bait_doll(conf, p, source, targets, extras):
    _require(len(targets) == 1, "Bait Doll targets 1 set card")
    t = targets[0]
    inst = conf.instance_at(t)
    _require(inst is not None and t[1] == SZONE and not inst.face_up,
             "target must be a set spell/trap")
    st_spec = by_id(inst.card)
    if st_spec.is_trap and inst.set_turn == conf.turn:
        _require(_temple_available(conf, t[0]), "trap was set this turn")


def _res_bait_doll(conf, p, source, targets, extras):
    t = targets[0]
    inst = conf.instance_at(t)
    if inst is not None and not inst.face_up and is_trap_id(inst.card):
        # the forced trap resolves as if its controller had activated it
        eff = by_id(inst.card).effects[0]
        inner_targets, inner_extras = _unpack_forced(extras)
        EFFECTS[eff][0](conf, t[0], t, inner_targets, inner_extras)
        conf = _resolve_activation(conf, t[0], eff, t, inner_targets, inner_extras)
    # Bait Doll shuffles itself into its owner's deck after resolving.
    ps = conf.players[p]
    conf = update_player(conf, p, deck=ps.deck + (BAIT_DOLL,))
    return conf


# A forced trap's own targets and extras ride in Bait Doll's extras.
_FORCED = Fixed(Seq(LOC), Seq(NAT))


def _pack_forced(targets: tuple[Loc, ...], extras: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_FORCED.flat((targets, extras)))


def _unpack_forced(flat: tuple[int, ...]) -> tuple[tuple[Loc, ...], tuple[int, ...]]:
    if not flat:
        return (), ()
    try:
        return _FORCED.read(flat)
    except ValueError:
        raise IllegalMove("malformed forced-effect choices") from None


def _res_boe(conf, p, source, targets, extras):
    # Pole Position is judged against the board as it stands at each flip.
    # A flip takes a monster below the top ATK out of the running, so the
    # shield can move only when cards watching its zone leave for the
    # graveyard; until then the flips are written together.
    shielded = _pole_shielded(conf)
    turned = []
    for loc, inst in list(conf.iter_monsters()):
        if not inst.face_up:
            continue
        if inst.card != FILLER and by_id(inst.card).kind == Kind.LINK_MONSTER:
            continue
        if loc in shielded:
            continue
        turned.append((loc, replace(inst, face_up=False, position=DEF, negated=False,
                                    face_since=conf.turn)))
        cleaned = _cleanup_dependents(conf, loc)
        if cleaned is not conf:
            conf, turned = _set_monsters(cleaned, turned), []
            shielded = _pole_shielded(conf)
    return replace(_set_monsters(conf, turned), boe_pending=True)


def _chk_soul_drain(conf, p, source, targets, extras):
    _require(not targets, "Soul Drain takes no targets")
    _require(conf.players[p].lp >= 1000, "cannot pay 1000 LP")


def _res_desert_sunlight(conf, p, source, targets, extras):
    # direct activation: flips and triggers; the activation wrapper routes
    # the card to the graveyard before this runs (see _resolve_activation)
    conf, zones = _flip_up_phase(conf, p)
    choices = _decode_flip_choices(p, extras)
    return _run_flip_triggers(conf, p, zones, choices)


def _decode_flip_choices(p: int, extras: tuple[int, ...]) -> dict[int, Optional[Loc]]:
    # extras: flat (zone, 1 + gy_index | 0) pairs
    _require(len(extras) % 2 == 0, "flip choices come in (zone, choice) pairs")
    choices: dict[int, Optional[Loc]] = {}
    for i in range(0, len(extras), 2):
        zone, enc = extras[i], extras[i + 1]
        choices[zone] = None if enc == 0 else (p, GY, enc - 1)
    return choices


def flip_choice_extras(pairs: Iterable[tuple[int, Optional[int]]]) -> tuple[int, ...]:
    """Helper for scripts: (zone, gy_index_or_None) pairs -> extras."""
    flat: list[int] = []
    for zone, gy_idx in pairs:
        flat.append(zone)
        flat.append(0 if gy_idx is None else gy_idx + 1)
    return tuple(flat)


def _res_gift_card(conf, p, source, targets, extras):
    return _adjust_lp(conf, 1 - p, 3000)


def _chk_mse(conf, p, source, targets, extras):
    _require(len(targets) == 1, "Magical Stone Excavation recovers 1 spell")
    t = targets[0]
    _require(t[0] == p and t[1] == GY, "recover from your graveyard")
    gy = conf.players[p].gy
    _require(0 <= t[2] < len(gy) and is_spell_id(gy[t[2]]), "target must be a spell")
    _require(len(extras) == 2, "discard exactly 2 cards")
    hand = list(conf.players[p].hand)
    src_cid = source[2] if source[1] == HAND else None
    if src_cid is not None:
        hand.remove(src_cid)
    for cid in extras:
        _require(cid in hand, "discard cards must be in hand")
        hand.remove(cid)


def _res_mse(conf, p, source, targets, extras):
    for cid in extras:
        conf = _discard(conf, p, cid)
    # indices shift after the discards: the target index refers to the
    # graveyard as it was at activation, before this card's own discards.
    return _gy_to_hand(conf, p, targets[0][2])


def _chk_creature_swap(conf, p, source, targets, extras):
    _require(len(targets) == 2, "Creature Swap takes one monster from each player")
    mine, theirs = targets
    _require(mine[0] == p and mine[1] in (MZONE, EXTRA), "first target must be yours")
    _require(theirs[0] == 1 - p and theirs[1] in (MZONE, EXTRA), "second target must be theirs")
    _require(conf.instance_at(mine) is not None, "no monster at your target")
    _require(conf.instance_at(theirs) is not None, "no monster at their target")
    # a swapped monster lands in a main zone of its new controller
    _require(theirs[1] == MZONE or _first_free(conf.players[1 - p].monsters) is not None,
             "opponent has no free main zone")
    _require(mine[1] == MZONE or _first_free(conf.players[p].monsters) is not None,
             "no free main zone")


def _res_creature_swap(conf, p, source, targets, extras):
    mine, theirs = targets
    a = conf.instance_at(mine)
    b = conf.instance_at(theirs)
    conf = _set_slot(conf, mine, None)
    conf = _set_slot(conf, theirs, None)
    za = _first_free(conf.players[1 - p].monsters)
    conf = _set_slot(conf, (1 - p, MZONE, za), a)
    zb = _first_free(conf.players[p].monsters)
    conf = _set_slot(conf, (p, MZONE, zb), b)
    # each equip follows the monster it was on, all moved in one pass
    moved = {mine: (1 - p, MZONE, za), theirs: (p, MZONE, zb)}
    for sloc, st in list(conf.iter_spelltraps()):
        if st.equipped_to in moved:
            conf = _set_slot(conf, sloc, replace(st, equipped_to=moved[st.equipped_to]))
    return conf


def _chk_poly(conf, p, source, targets, extras):
    _require(len(targets) == 2, "fusion uses the two listed materials")
    cids = []
    for t in targets:
        if t[1] == HAND:
            _require(t[0] == p and t[2] in conf.players[p].hand, "material not in hand")
            cids.append(t[2])
        else:
            inst = conf.instance_at(t)
            _require(inst is not None and t[0] == p, "material must be yours")
            cids.append(inst.card)
    _require(sorted(cids) == sorted([ODD_EYES, ENDYMION]),
             "Starving Venemy Dragon needs Odd-Eyes Pendulum Dragon and Endymion")
    _require(SVD in conf.players[p].extra_deck, "fusion monster not in the extra deck")
    _require(conf.players[p].extra_zone is None, "extra monster zone occupied")
    _require(not _special_summon_blocked(conf, p), "special summons are blocked")


def _res_poly(conf, p, source, targets, extras):
    for t in sorted(targets, key=lambda t: (t[1] != HAND, t)):
        if t[1] == HAND:
            conf = _discard(conf, p, t[2])
        else:
            conf = _leave_field(conf, t, "gy")
    ed = list(conf.players[p].extra_deck)
    ed.remove(SVD)
    conf = update_player(conf, p, extra_deck=tuple(ed))
    inst = CardInstance(SVD, face_up=True, position=ATK, summoned_turn=conf.turn,
                        face_since=conf.turn)
    return _set_slot(conf, (p, EXTRA, 0), inst)


def _res_raigeki(conf, p, source, targets, extras):
    # Pole Position is judged against the board as it stands at each
    # destruction, as Book of Eclipse judges it at each flip
    shielded = _pole_shielded(conf)
    for loc, _inst in list(conf.iter_monsters()):
        if loc[0] == 1 - p and loc not in shielded:
            cleaned = _cleanup_dependents(conf, loc)
            watched, conf = cleaned is not conf, _leave_field(cleaned, loc, "gy")
            if watched:
                shielded = _pole_shielded(conf)
    return conf


def _chk_give_and_take(conf, p, source, targets, extras):
    _require(len(targets) == 1, "target 1 monster in your graveyard")
    t = targets[0]
    _require(t[0] == p and t[1] == GY, "target must be in your graveyard")
    gy = conf.players[p].gy
    _require(0 <= t[2] < len(gy) and is_monster_id(gy[t[2]]), "target must be a monster")
    _require(len(extras) == 1 and 0 <= extras[0] < N_MZONES, "pick an opponent zone")
    _require(conf.players[1 - p].monsters[extras[0]] is None, "opponent zone occupied")
    _require(not _special_summon_blocked(conf, p), "special summons are blocked")


def _summon_from_gy_to_opp(conf, p, t, zone, face_up):
    gy = conf.players[p].gy
    cid = gy[t[2]]
    conf = update_player(conf, p, gy=gy[: t[2]] + gy[t[2] + 1 :])
    inst = CardInstance(
        cid,
        face_up=face_up,
        position=DEF,
        set_turn=conf.turn,
        face_since=conf.turn,
        summoned_turn=conf.turn,
    )
    return _set_slot(conf, (1 - p, MZONE, zone), inst)


def _res_give_and_take(conf, p, source, targets, extras):
    return _summon_from_gy_to_opp(conf, p, targets[0], extras[0], face_up=True)


def _res_reverse_reuse(conf, p, source, targets, extras):
    return _summon_from_gy_to_opp(conf, p, targets[0], extras[0], face_up=False)


def _cand_gy_monster_to_opp(conf, p, source):
    zone = _first_free(conf.players[1 - p].monsters)
    if zone is None:
        return
    for loc in _gy_locs(conf, p, is_monster_id)[:20]:
        yield (loc,), (zone,)


def _chk_endymion_summon(conf, p, source, targets, extras):
    loc = _citadel_loc(conf)
    _require(loc is not None and loc[0] == p, "needs your face-up Magical Citadel")
    _require(conf.instance_at(loc).counters >= 6, "needs 6 spell counters")
    if source[1] == HAND:
        _require(ENDYMION in conf.players[p].hand, "Endymion not in hand")
    elif source[1] == GY:
        gy = conf.players[p].gy
        _require(0 <= source[2] < len(gy) and gy[source[2]] == ENDYMION,
                 "Endymion not at that graveyard position")
        _require(not _soul_drain_up(conf), "graveyard effects are locked")
    else:
        raise IllegalMove("Endymion is summoned from hand or graveyard")
    _require(len(extras) >= 1 and 0 <= extras[0] < N_MZONES, "pick a main zone")
    _require(conf.players[p].monsters[extras[0]] is None, "zone occupied")
    _require(not _special_summon_blocked(conf, p), "special summons are blocked")
    if len(extras) > 1 and extras[1] > 0:
        idx = extras[1] - 1
        gy = conf.players[p].gy
        _require(0 <= idx < len(gy), "recycle index out of range")
        _require(is_spell_id(gy[idx]), "Endymion recycles a spell")


def _res_endymion_summon(conf, p, source, targets, extras):
    cloc = _citadel_loc(conf)
    citadel = conf.instance_at(cloc)
    conf = _set_slot(conf, cloc, replace(citadel, counters=citadel.counters - 6))
    if source[1] == HAND:
        conf = _remove_hand(conf, p, ENDYMION)
    else:
        gy = conf.players[p].gy
        conf = update_player(conf, p, gy=gy[: source[2]] + gy[source[2] + 1 :])
    inst = CardInstance(ENDYMION, face_up=True, position=ATK,
                        summoned_turn=conf.turn, face_since=conf.turn)
    conf = _set_slot(conf, (p, MZONE, extras[0]), inst)
    if len(extras) > 1 and extras[1] > 0:
        idx = extras[1] - 1
        if source[1] == GY and source[2] < idx:
            idx -= 1
        gy = conf.players[p].gy
        if 0 <= idx < len(gy) and is_spell_id(gy[idx]):
            conf = _gy_to_hand(conf, p, idx)
    return conf


def _cand_endymion(conf, p, source):
    zone = _first_free(conf.players[p].monsters)
    if zone is None:
        return
    yield (), (zone, 0)
    for idx, cid in enumerate(conf.players[p].gy):
        if is_spell_id(cid):
            yield (), (zone, idx + 1)
            break


def _chk_clara_link(conf, p, source, targets, extras):
    _require(CLARA in conf.players[p].extra_deck, "link monster not in the extra deck")
    _require(conf.players[p].extra_zone is None, "extra monster zone occupied")
    _require(len(targets) == 1, "link summon uses 1 material")
    t = targets[0]
    inst = conf.instance_at(t)
    _require(inst is not None and t[0] == p and inst.face_up, "material must be your face-up monster")
    _require(inst.card != FILLER and by_id(inst.card).stats.level == 1,
             "material must be level 1")
    _require(not _special_summon_blocked(conf, p), "special summons are blocked")


def _res_clara_link(conf, p, source, targets, extras):
    conf = _leave_field(conf, targets[0], "gy")
    ed = list(conf.players[p].extra_deck)
    ed.remove(CLARA)
    conf = update_player(conf, p, extra_deck=tuple(ed))
    inst = CardInstance(CLARA, face_up=True, position=ATK,
                        summoned_turn=conf.turn, face_since=conf.turn)
    return _set_slot(conf, (p, EXTRA, 0), inst)


def _chk_svd_negate(conf, p, source, targets, extras):
    marker = "svd_negate"
    _require(marker not in conf.opt_used, "once per turn")
    inst = conf.instance_at(source)
    _require(inst is not None and inst.card == SVD and inst.face_up and not inst.negated,
             "Starving Venemy Dragon must be face-up")
    _require(len(targets) == 1, "negate 1 opponent monster")
    t = targets[0]
    tinst = conf.instance_at(t)
    _require(tinst is not None and t[0] == 1 - p and tinst.face_up,
             "target must be an opponent face-up monster")


def _res_svd_negate(conf, p, source, targets, extras):
    t = targets[0]
    tinst = conf.instance_at(t)
    conf = _set_slot(conf, t, replace(tinst, negated=True))
    return replace(conf, opt_used=conf.opt_used | {"svd_negate"})


def _cand_svd_negate(conf, p, source):
    for loc, inst in conf.iter_monsters():
        if loc[0] == 1 - p and inst.face_up:
            yield (loc,), ()


# Flint's check is Mist Body's, messages included.
_chk_mist_body = _chk_equip("Mist Body equips 1 face-up monster",
                            "equip target must be a face-up monster")

EFFECTS: dict[str, tuple[Callable, Callable, Optional[Callable]]] = {
    "double_summon_extra": (_chk_double_summon, _res_double_summon, None),
    "pob_return_two": _gy_targets(2, 2, "Pot of Benevolence returns exactly 2 cards",
                                  to="deck"),
    "gmc_gift": (_chk_gmc, _res_gmc, _cand_gmc),
    "soul_release_banish": _gy_targets(1, 5, "Soul Release banishes 1-5 cards",
                                       to="banished"),
    "rain_of_mercy_gain": (_no_targets("Rain of Mercy"), _res_rain_of_mercy, None),
    "upstart_draw": (_chk_upstart, _res_upstart, None),
    "mst_destroy": (_chk_mst, _res_mst, _cand_mst),
    "pot_desires": (_chk_pot_desires, _res_pot_desires, None),
    "pot_duality": (_chk_pot_duality, _res_pot_duality, None),
    "offerings_destroy_skip": (_chk_offerings, _res_offerings, _cand_offerings),
    "citadel_counters": (_no_targets("field spell"), _no_change, None),
    "temple_trap_allowance": (_no_targets("Temple of the Kings"), _no_change, None),
    "bait_doll_force": (_chk_bait_doll, _res_bait_doll, None),
    "boe_flip_all": (_no_targets("Book of Eclipse"), _res_boe, None),
    "soul_drain_gy_lock": (_chk_soul_drain, _no_change, None),
    "desert_sunlight_flip_up": (_no_targets("Desert Sunlight"), _res_desert_sunlight, None),
    "tornado_recycle": _gy_targets(1, 5, "Localized Tornado shuffles 1-5 cards",
                                   to="deck", own=True, offer=1),
    "massivemorph_boost": (_chk_equip("Massivemorph targets 1 face-up monster",
                                      "target must be a face-up monster"),
                           _res_equip, _cand_equip),
    "pole_position_immunity": (_no_targets("Pole Position"), _no_change, None),
    "gift_card_gain": (_no_targets("Gift Card"), _res_gift_card, None),
    "morale_boost_gain": (_no_targets("Morale Boost"), _no_change, None),
    "mist_body_shield": (_chk_mist_body, _res_equip, _cand_equip),
    "mse_discard_recover": (_chk_mse, _res_mse, None),
    "attraffic_control": (_no_targets("Attraffic Control"), _no_change, None),
    "creature_swap": (_chk_creature_swap, _res_creature_swap, None),
    "polymerization_fuse": (_chk_poly, _res_poly, None),
    "flint_lockdown": (_chk_equip("Flint equips 1 face-up monster",
                                  "equip target must be a face-up monster"),
                       _res_equip, _cand_equip),
    "raigeki_wipe": (_no_targets("Raigeki"), _res_raigeki, None),
    "give_and_take": (_chk_give_and_take, _res_give_and_take, _cand_gy_monster_to_opp),
    "reverse_reuse": (_chk_give_and_take, _res_reverse_reuse, _cand_gy_monster_to_opp),
    "endymion_counter_summon": (_chk_endymion_summon, _res_endymion_summon, _cand_endymion),
    "clara_link_summon": (_chk_clara_link, _res_clara_link, None),
    "svd_negate": (_chk_svd_negate, _res_svd_negate, _cand_svd_negate),
}

_CHAIN_PATTERNS = (
    frozenset({"desert_sunlight_flip_up", "soul_drain_gy_lock"}),
    frozenset({"give_and_take"}),
)


def make_bait_doll_move(player, source, ds_loc, flip_extras):
    """Bait Doll activation carrying the forced trap's flip choices."""
    return ActivateEffect(
        player,
        "bait_doll_force",
        source,
        targets=(ds_loc,),
        extras=_pack_forced((), flip_extras),
    )


# --- activation wrapper ---------------------------------------------------


def _effect_card(conf: Configuration, p: int, effect: str, source: Loc) -> int:
    """Which card is being activated, validating the source locator."""
    if source[1] == HAND:
        cid = source[2]
        if cid == FILLER or cid not in conf.players[p].hand or source[0] != p:
            raise IllegalMove("source card not in hand")
        return cid
    if source[1] in (SZONE, FZONE, MZONE, EXTRA):
        inst = conf.instance_at(source)
        if inst is None:
            raise IllegalMove("no card at the source zone")
        return inst.card
    if source[1] == GY:
        gy = conf.players[source[0]].gy
        if not 0 <= source[2] < len(gy):
            raise IllegalMove("bad graveyard source")
        return gy[source[2]]
    if source[1] == EXTRADECK:
        if source[2] not in conf.players[p].extra_deck:
            raise IllegalMove("card not in the extra deck")
        return source[2]
    raise IllegalMove("bad source locator")


def _activation_timing_ok(conf: Configuration, p: int, effect: str, source: Loc) -> bool:
    cid = _effect_card(conf, p, effect, source)
    if cid == FILLER:
        return False
    spec = by_id(cid)
    if effect not in spec.effects:
        return False
    main = conf.phase in (Phase.MAIN1, Phase.MAIN2)
    own_turn = conf.active == p
    if effect in ("endymion_counter_summon", "clara_link_summon", "svd_negate",
                  "polymerization_fuse"):
        return own_turn and main
    if source[1] == HAND:
        if spec.kind == Kind.QUICKPLAY_SPELL:
            return own_turn and conf.phase != Phase.DRAW
        if spec.is_spell:
            return own_turn and main
        return False  # traps never activate from hand
    if source[1] == SZONE or source[1] == FZONE:
        inst = conf.instance_at(source)
        if inst is None:
            return False
        if inst.face_up:
            return False  # continuous cards do not re-activate
        if spec.is_trap:
            if inst.set_turn == conf.turn and not _temple_available(conf, p):
                return False
            return True  # any phase, any turn, at a priority window
        if spec.kind == Kind.QUICKPLAY_SPELL:
            if inst.set_turn == conf.turn:
                return False
            return conf.phase != Phase.DRAW
        if spec.is_spell:
            return own_turn and main
    return False


_NON_CARDPLAY = {"endymion_counter_summon", "clara_link_summon", "svd_negate"}


def _resolve_activation(
    conf: Configuration, p: int, effect: str, source: Loc,
    targets: tuple[Loc, ...], extras: tuple[int, ...],
) -> Configuration:
    cid = _effect_card(conf, p, effect, source)
    spec = by_id(cid)
    chk, res, _cand = EFFECTS[effect]
    if effect in _NON_CARDPLAY:
        # monster-effect activations move their own cards
        return res(conf, p, source, targets, extras)
    from_hand = source[1] == HAND

    # costs and placement at activation; a spell activation adds a counter
    # to a face-up Magical Citadel, in the copy of p that takes the card
    # from p's hand when the citadel is p's
    if effect == "soul_drain_gy_lock":
        conf = _adjust_lp(conf, p, -1000)
    more = {}
    cloc = _citadel_loc(conf) if spec.is_spell else None
    if cloc is not None:
        cit = conf.instance_at(cloc)
        cit = replace(cit, counters=cit.counters + 1)
        if from_hand and cloc[0] == p:
            more["field_zone"] = cit
        else:
            conf = _set_slot(conf, cloc, cit)
    src = source
    if from_hand:
        # check_legal made sure a lasting spell has its zone free
        if spec.kind in (Kind.CONTINUOUS_SPELL, Kind.EQUIP_SPELL):
            src = (p, SZONE, _first_free(conf.players[p].spelltraps))
        elif spec.kind == Kind.FIELD_SPELL:
            src = (p, FZONE, 0)
        if src is source:
            conf = _remove_hand(conf, p, cid, **more)
        else:
            conf = _set_slot(conf, src, CardInstance(cid, face_up=True, face_since=conf.turn),
                             hand=_hand_without(conf.players[p], cid), **more)
    elif effect == "desert_sunlight_flip_up":
        # the spent trap reaches the graveyard before its flip triggers
        return res(_to_gy(conf, source), p, source, targets, extras)
    else:
        inst = conf.instance_at(source)
        if inst is not None and not inst.face_up:
            conf = _set_slot(conf, source, replace(inst, face_up=True, face_since=conf.turn))
    conf = res(conf, p, src, targets, extras)

    # normal/quick-play cards go to the graveyard after resolving
    if spec.kind in (Kind.NORMAL_SPELL, Kind.QUICKPLAY_SPELL, Kind.NORMAL_TRAP):
        if effect == "bait_doll_force":
            pass  # shuffles itself into the deck instead
        elif from_hand:
            conf = update_player(conf, p, gy=conf.players[p].gy + (cid,))
        else:
            inst = conf.instance_at(src)
            if inst is not None and inst.card == cid:
                conf = _to_gy(conf, src)
    return conf


# --- terminality / win detection -----------------------------------------


def _deck_out_pending(conf: Configuration) -> bool:
    ps = conf.players[conf.active]
    return (
        conf.turn >= 1
        and conf.phase == Phase.DRAW
        and not conf.draw_done
        and len(ps.deck) == 0
    )


def _terminal(conf: Configuration) -> bool:
    return conf.players[0].lp == 0 or conf.players[1].lp == 0 or _deck_out_pending(conf)


def is_winning_state(conf: Configuration, p: int) -> bool:
    opp = 1 - p
    if conf.players[opp].lp == 0 and conf.players[p].lp > 0:
        return True
    return conf.active == opp and _deck_out_pending(conf)


# --- legality --------------------------------------------------------------


def _prelude(conf: Configuration, p: int, locs: tuple[Loc, ...] = ()
             ) -> Optional[tuple[tuple[type, ...], bool, str]]:
    """The checks every move of p passes first, then the forced window: one
    that allows some move types only (the opening draws, the pass to turn
    1, the hand limit and the mandatory draw).  Gives (those types, whether
    the window alone accepts them, the message for any other type), or None
    outside a forced window."""
    if _terminal(conf):
        raise IllegalMove("game over")
    if p not in (0, 1):
        raise IllegalMove("bad player")
    for loc in locs:
        if loc[0] not in (0, 1):
            raise IllegalMove("a locator names no player")
    if conf.priority != p:
        raise IllegalMove("not this player's priority window")
    if conf.turn == 0:
        want0 = len(conf.players[0].hand) < 5
        want1 = len(conf.players[1].hand) < 5
        if want0 or want1:
            return ((DrawCard,) if p == (0 if want0 else 1) else (), True,
                    "opening hands are drawn first")
        return ((Pass, AdvancePhase) if p == 0 else (), True, "opening complete; advance to turn 1")
    if conf.phase == Phase.END and p == conf.active and len(conf.players[p].hand) > HAND_LIMIT:
        return (DiscardToLimit,), False, "must discard down to the hand limit"
    if conf.phase == Phase.DRAW and not conf.draw_done:
        # an empty deck here has already ended the game
        return (DrawCard,) if p == conf.active else (), True, "the draw is mandatory"
    return None


def _passes(check: Callable, conf: Configuration, move: Move) -> bool:
    try:
        check(conf, move)
        return True
    except IllegalMove:
        return False


# --- move kinds: the check, apply and candidates of each _KINDS row ---------


def _no_check(conf: Configuration, move: Move) -> None:
    pass


def _apply_draw(conf: Configuration, move: DrawCard) -> Configuration:
    conf2 = _draw_cards(conf, move.player, 1, by_effect=False)
    if conf.turn != 0:
        return replace(conf2, draw_done=True)
    if len(conf2.players[0].hand) == 5 and len(conf2.players[1].hand) < 5:
        return replace(conf2, priority=1)
    if len(conf2.players[1].hand) == 5:
        return replace(conf2, priority=0)
    return conf2


def _chk_discard(conf: Configuration, move: DiscardToLimit) -> None:
    hand = list(conf.players[move.player].hand)
    if len(move.cards) != len(hand) - HAND_LIMIT:
        raise IllegalMove("discard exactly down to six")
    for cid in move.cards:
        if cid not in hand:
            raise IllegalMove("discard cards must be in hand")
        hand.remove(cid)


def _apply_discard(conf: Configuration, move: DiscardToLimit) -> Configuration:
    for cid in move.cards:
        conf = _discard(conf, move.player, cid)
    return conf


def _cand_discard(conf: Configuration, p: int) -> Iterable[Move]:
    hand = sorted(conf.players[p].hand)
    combos = itertools.combinations(hand, len(hand) - HAND_LIMIT)
    for combo in itertools.islice(combos, _COMBO_CAP):
        yield DiscardToLimit(p, combo)


# the tributes each normal-summonable monster takes: none up to level 4,
# one up to level 6, two above
_SUMMON_TRIBUTES = {spec.id: (spec.stats.level > 4) + (spec.stats.level > 6) for spec in CARDS
                    if spec.is_monster and spec.kind not in (Kind.LINK_MONSTER, Kind.FUSION_MONSTER)}


def _chk_summon(conf: Configuration, move: NormalSummon) -> None:
    if move.card == FILLER:
        raise IllegalMove("the opponent's proxy fillers are inert")
    need = _SUMMON_TRIBUTES.get(move.card)
    if need is None:
        raise IllegalMove("not a normal-summonable monster")
    ps = conf.players[move.player]
    if move.card not in ps.hand:
        raise IllegalMove("card not in hand")
    tributes = move.tributes
    if len(tributes) != need:
        raise IllegalMove(f"needs exactly {need} tribute(s)")
    if need > 1 and len(set(tributes)) != need:
        raise IllegalMove("duplicate tribute zones")
    for z in tributes:
        if not (0 <= z < N_MZONES) or ps.monsters[z] is None:
            raise IllegalMove("tribute zone is empty")
    if not (0 <= move.zone < N_MZONES):
        raise IllegalMove("bad summon zone")
    if ps.monsters[move.zone] is not None and move.zone not in tributes:
        raise IllegalMove("summon zone occupied")


def _apply_summon(conf: Configuration, move: NormalSummon) -> Configuration:
    p = move.player
    conf2 = conf
    for z in move.tributes:
        conf2 = _leave_field(conf2, (p, MZONE, z), "gy")
    inst = CardInstance(
        move.card,
        face_up=move.face_up,
        position=ATK if move.face_up else DEF,
        set_turn=conf.turn if not move.face_up else -1,
        face_since=conf.turn,
        summoned_turn=conf.turn if move.face_up else -1,
    )
    conf2 = _set_slot(conf2, (p, MZONE, move.zone), inst,
                      hand=_hand_without(conf2.players[p], move.card))
    return replace(conf2, normal_summons_used=conf2.normal_summons_used + 1)


def _cand_summon(conf: Configuration, p: int) -> Iterable[Move]:
    """Each summonable hand monster into each free zone, or with the
    tributes it takes into each zone those free."""
    ps = conf.players[p]
    empties = [i for i, m in enumerate(ps.monsters) if m is None]
    occupied = [i for i, m in enumerate(ps.monsters) if m is not None]
    for cid in sorted(set(ps.hand)):
        need = _SUMMON_TRIBUTES.get(cid)
        if need is None:
            continue
        for tribs in itertools.combinations(occupied, need):
            for z in sorted(set(empties).union(tribs)):
                yield NormalSummon(p, cid, z, True, tribs)
                yield NormalSummon(p, cid, z, False, tribs)


def _chk_set(conf: Configuration, move: SetSpellTrap) -> None:
    p = move.player
    if move.card == FILLER or move.card not in conf.players[p].hand:
        raise IllegalMove("card not in hand")
    spec = by_id(move.card)
    if spec.is_monster:
        raise IllegalMove("monsters are set with NormalSummon")
    if spec.kind == Kind.FIELD_SPELL:
        if move.zone != -1 or conf.players[p].field_zone is not None:
            raise IllegalMove("field zone unavailable")
    else:
        if not (0 <= move.zone < N_SZONES):
            raise IllegalMove("bad spell/trap zone")
        if conf.players[p].spelltraps[move.zone] is not None:
            raise IllegalMove("zone occupied")


def _apply_set(conf: Configuration, move: SetSpellTrap) -> Configuration:
    p = move.player
    inst = CardInstance(move.card, face_up=False, set_turn=conf.turn, face_since=conf.turn)
    loc = (p, FZONE, 0) if move.zone == -1 else (p, SZONE, move.zone)
    return _set_slot(conf, loc, inst, hand=_hand_without(conf.players[p], move.card))


def _cand_set(conf: Configuration, p: int) -> Iterable[Move]:
    """Each hand spell or trap: a field spell into the field zone, the rest
    into the first free spell/trap zone."""
    ps = conf.players[p]
    first_free = [i for i, s in enumerate(ps.spelltraps) if s is None][:1]
    for cid in sorted(set(ps.hand)):
        if is_monster_id(cid):
            continue
        for zone in ((-1,) if by_id(cid).kind == Kind.FIELD_SPELL else first_free):
            yield SetSpellTrap(p, cid, zone)


def _chk_flip(conf: Configuration, move: FlipSummon) -> None:
    p = move.player
    inst = conf.players[p].monsters[move.zone] if 0 <= move.zone < N_MZONES else None
    if inst is None or inst.face_up:
        raise IllegalMove("no face-down monster there")
    if inst.face_since >= conf.turn or inst.set_turn == conf.turn:
        raise IllegalMove("cannot flip the turn it was set or turned face-down")
    if move.recover is not None and inst.card not in (MOF, MOD):
        raise IllegalMove("this monster has no recovery choice")
    if move.recover is not None:
        _chk_recovery(conf, p, inst.card, move.recover)


def _apply_flip(conf: Configuration, move: FlipSummon) -> Configuration:
    loc = (move.player, MZONE, move.zone)
    return _resolve_flip_trigger(_flip_up(conf, loc, ATK), loc, move.recover)


def _cand_flip(conf: Configuration, p: int) -> Iterable[Move]:
    """Each face-down monster, and a recovery magician with each graveyard
    card when it may flip at all (a refused plain flip refuses them all)."""
    ps = conf.players[p]
    for i, inst in enumerate(ps.monsters):
        if inst is None or inst.face_up:
            continue
        plain = FlipSummon(p, i)
        yield plain
        if inst.card in (MOF, MOD) and _passes(_chk_flip, conf, plain):
            for idx in range(len(ps.gy)):
                yield FlipSummon(p, i, (p, GY, idx))


def _chk_retarget(conf: Configuration, move: ChangeEquipTarget) -> None:
    p = move.player
    eq = conf.instance_at(move.equip)
    if eq is None or eq.card != FLINT or not eq.face_up or move.equip[0] != p:
        raise IllegalMove("you must control the face-up Flint")
    if eq.equipped_to is None:
        raise IllegalMove("Flint is not equipped")
    tgt = conf.instance_at(move.new_target)
    if tgt is None or not tgt.face_up or move.new_target[0] != p:
        raise IllegalMove("new target must be your face-up monster")
    if move.new_target == eq.equipped_to:
        raise IllegalMove("already equipped there")
    cur = conf.instance_at(eq.equipped_to)
    if tgt.card != FLINT_LOCK and (cur is None or cur.card != FLINT_LOCK):
        raise IllegalMove("a Flint Lock must move the equip")


def _apply_retarget(conf: Configuration, move: ChangeEquipTarget) -> Configuration:
    p = move.player
    eq = conf.instance_at(move.equip)
    tgt = conf.instance_at(move.new_target)
    conf2 = _set_slot(conf, move.equip, replace(eq, equipped_to=move.new_target))
    # the gain fires when a Flint Lock pulls the equip onto itself;
    # parking it back on another monster is free
    if tgt.card == FLINT_LOCK and _controls_faceup(conf2, p, MORALE_BOOST) is not None:
        conf2 = _adjust_lp(conf2, p, 1000)
    return conf2


def _cand_retarget(conf: Configuration, p: int) -> Iterable[Move]:
    """Each Flint onto each of p's monsters."""
    for sloc, st in conf.iter_spelltraps():
        if st.card == FLINT:
            for mloc, _m in conf.iter_monsters():
                if mloc[0] == p:
                    yield ChangeEquipTarget(p, sloc, mloc)


def _attack_key(loc: Loc) -> int:
    return loc[1] * 16 + loc[2] + (256 if loc[1] == EXTRA else 0)


def _chk_attack(conf: Configuration, move: DeclareAttack) -> None:
    p = move.player
    att = conf.instance_at(move.attacker)
    if att is None or move.attacker[0] != p or not att.face_up:
        raise IllegalMove("attacker must be your face-up monster")
    if _attack_key(move.attacker) in conf.attacked:
        raise IllegalMove("this monster already attacked")
    if _equipped(conf, move.attacker, FLINT):
        raise IllegalMove("Flint stops the equipped monster from attacking")
    if move.target == DIRECT:
        opp_has = conf.players[1 - p].monster_count() > 0
        if opp_has and _controls_faceup(conf, p, ATTRAFFIC) is None:
            raise IllegalMove("opponent controls monsters")
        return
    tgt = conf.instance_at(move.target)
    if tgt is None or move.target[0] != 1 - p or move.target[1] not in (MZONE, EXTRA):
        raise IllegalMove("attack target must be an opponent monster")


def _cand_attack(conf: Configuration, p: int) -> Iterable[Move]:
    """Each of p's monsters, directly and at each opponent monster."""
    for mloc, _m in conf.iter_monsters():
        if mloc[0] != p:
            continue
        yield DeclareAttack(p, mloc, DIRECT)
        for tloc, _t in conf.iter_monsters():
            if tloc[0] == 1 - p:
                yield DeclareAttack(p, mloc, tloc)


def _chk_timely(conf: Configuration, move: ActivateEffect) -> None:
    if move.effect not in EFFECTS:
        raise IllegalMove(f"unknown effect {move.effect!r}")
    if not _activation_timing_ok(conf, move.player, move.effect, move.source):
        raise IllegalMove("activation timing is wrong")


def _chk_activate(conf: Configuration, move: ActivateEffect) -> Optional[Configuration]:
    p = move.player
    if move.chain:
        effects = frozenset({move.effect} | {l.effect for l in move.chain})
        if not any(effects <= pat for pat in _CHAIN_PATTERNS):
            raise IllegalMove("unsupported chain construction")
        for link in move.chain:
            if not _activation_timing_ok(conf, p, link.effect, link.source):
                raise IllegalMove("chain link timing is wrong")
            EFFECTS[link.effect][0](conf, p, link.source, link.targets, link.extras)
    EFFECTS[move.effect][0](conf, p, move.source, move.targets, move.extras)
    # a continuous, equip or field spell from the hand stays on the field
    if move.source[1] == HAND:
        kind = by_id(move.source[2]).kind
        if kind in (Kind.CONTINUOUS_SPELL, Kind.EQUIP_SPELL) and _first_free(conf.players[p].spelltraps) is None:
            raise IllegalMove("no free spell/trap zone")
        if kind == Kind.FIELD_SPELL and conf.players[p].field_zone is not None:
            raise IllegalMove("field zone occupied")
    if move.effect == "bait_doll_force" or (move.extras or move.chain) and any(
            link.effect == "desert_sunlight_flip_up" and link.extras for link in (move, *move.chain)):
        # a forced trap's check and the flip choices read the board as the
        # chain resolves: they are checked by resolving it, and apply takes
        # the result
        return _apply_activate(conf, move)
    return None


def _apply_activate(conf: Configuration, move: ActivateEffect) -> Configuration:
    conf2 = conf
    # the chain resolves last link first
    for a in (*reversed(move.chain), move):
        conf2 = _resolve_activation(conf2, move.player, a.effect, a.source, a.targets, a.extras)
    if conf.priority != conf.active:
        conf2 = replace(conf2, priority=conf.active)
    return conf2


# the effects each card lists that have an EFFECTS row
_ACTIVATABLE = {spec.id: tuple(e for e in spec.effects if e in EFFECTS) for spec in CARDS}


def _set_card_sources(conf: Configuration, p: int) -> list[tuple[str, Loc]]:
    return [(effect, (p, SZONE, i)) for i, inst in enumerate(conf.players[p].spelltraps)
            if inst is not None and not inst.face_up for effect in _ACTIVATABLE[inst.card]]


def _activation_sources(conf: Configuration, p: int) -> list[tuple[str, Loc]]:
    """(effect, source) pairs: the hand, set cards, Endymion in the
    graveyard, the extra deck and the dragon in the extra monster zone."""
    ps = conf.players[p]
    sources = [(effect, (p, HAND, cid))
               for cid in sorted(set(ps.hand)) for effect in _ACTIVATABLE.get(cid, ())]
    sources += _set_card_sources(conf, p)
    sources += [("endymion_counter_summon", (p, GY, idx))
                for idx, cid in enumerate(ps.gy) if cid == ENDYMION]
    sources += [(effect, (p, EXTRADECK, cid))
                for cid in set(ps.extra_deck) for effect in _ACTIVATABLE[cid]]
    if ps.extra_zone is not None and ps.extra_zone.card == SVD:
        sources.append(("svd_negate", (p, EXTRA, 0)))
    return sources


def _cand_activate(conf: Configuration, p: int,
                   sources: Optional[list[tuple[str, Loc]]] = None) -> Iterable[Move]:
    """The effect rows' candidates from the (effect, source) pairs, all of
    p's by default, built only for the effects whose timing is right now."""
    for effect, source in _activation_sources(conf, p) if sources is None else sources:
        if not _activation_timing_ok(conf, p, effect, source):
            continue
        cand = EFFECTS[effect][2]
        combos = cand(conf, p, source) if cand else [((), ())]
        for targets, extras in itertools.islice(combos, _COMBO_CAP):
            yield ActivateEffect(p, effect, source, tuple(targets), tuple(extras))


def _has_quick_move(conf: Configuration, p: int) -> bool:
    """Whether p, whose turn it is not, can activate a set card now (the
    only cards timely on the other player's turn): the window a Pass hands
    over.  The search stops at the first activation that passes."""
    return any(_passes(_chk_activate, conf, mv)
               for mv in _cand_activate(conf, p, _set_card_sources(conf, p)))


def _chk_advance(conf: Configuration, move: AdvancePhase) -> None:
    if _has_quick_move(conf, 1 - move.player):
        raise IllegalMove("opponent has a response window; pass instead")


def _apply_pass(conf: Configuration, move: Pass) -> Configuration:
    p = move.player
    if conf.turn != 0 and p == conf.active and _has_quick_move(conf, 1 - p):
        return replace(conf, priority=1 - p)
    # advancing hands priority back to the turn player
    return _advance_phase(conf)


def _apply_attack(conf: Configuration, move: DeclareAttack) -> Configuration:
    p = move.player
    att_loc = move.attacker
    att = conf.instance_at(att_loc)
    conf = replace(conf, attacked=conf.attacked | {_attack_key(att_loc)})
    atk = current_atk(conf, att_loc, att)

    if move.target == DIRECT:
        conf = _adjust_lp(conf, 1 - p, -atk)
        if att.card == YATA and atk > 0:
            skip = list(conf.skip_draw)
            skip[1 - p] = True
            conf = replace(conf, skip_draw=tuple(skip))
        return conf

    tgt_loc = move.target
    tgt = conf.instance_at(tgt_loc)
    if not tgt.face_up:
        conf = _flip_up(conf, tgt_loc, DEF)
        conf = _resolve_flip_trigger(conf, tgt_loc, None)
        tgt = conf.instance_at(tgt_loc)
        if tgt is None:
            return conf

    def_spec = by_id(tgt.card) if tgt.card != FILLER else None
    mist = _equipped(conf, tgt_loc, MIST_BODY)
    if tgt.position == ATK:
        tval = current_atk(conf, tgt_loc, tgt)
        if atk > tval:
            conf = _adjust_lp(conf, 1 - p, -(atk - tval))
            if not mist:
                conf = _leave_field(conf, tgt_loc, "gy")
            if att.card == YATA and atk - tval > 0:
                skip = list(conf.skip_draw)
                skip[1 - p] = True
                conf = replace(conf, skip_draw=tuple(skip))
        elif atk < tval:
            conf = _adjust_lp(conf, p, -(tval - atk))
            conf = _leave_field(conf, att_loc, "gy")
        else:
            if not mist:
                conf = _leave_field(conf, tgt_loc, "gy")
            conf = _leave_field(conf, att_loc, "gy")
    else:
        dval = def_spec.stats.def_ if def_spec is not None and def_spec.stats else 0
        if atk > dval:
            if not mist:
                conf = _leave_field(conf, tgt_loc, "gy")
        elif atk < dval:
            conf = _adjust_lp(conf, p, -(dval - atk))
    return conf


def _advance_phase(conf: Configuration) -> Configuration:
    if conf.turn == 0:
        return _start_turn(conf, 1)
    if conf.phase == Phase.END:
        return _start_turn(conf, conf.turn + 1)
    nxt = Phase(int(conf.phase) + 1)
    conf = replace(conf, phase=nxt, priority=conf.active)
    if nxt == Phase.END:
        conf = _end_phase_events(conf)
    return conf


def _start_turn(conf: Configuration, turn: int) -> Configuration:
    active = (turn + 1) % 2  # player 0 takes odd turns
    # the starting player skips the first draw; a skipped draw is used up
    skip = conf.skip_draw
    skipped = turn != 1 and skip[active]
    if skipped:
        skip = (False, skip[1]) if active == 0 else (skip[0], False)
    return replace(
        conf,
        turn=turn,
        active=active,
        phase=Phase.DRAW,
        priority=active,
        normal_summons_used=0,
        normal_summon_allowance=1,
        skip_draw=skip,
        draw_done=turn == 1 or skipped,
        temple_used=False,
        boe_pending=False,
        attacked=frozenset(),
        opt_used=frozenset(),
        end_resolved=False,
    )


def _end_phase_events(conf: Configuration) -> Configuration:
    active = conf.active
    opp = 1 - active
    if conf.boe_pending:
        flipped = 0
        for i, inst in enumerate(conf.players[opp].monsters):
            if inst is not None and not inst.face_up:
                conf = _flip_up(conf, (opp, MZONE, i), DEF)
                conf = _resolve_flip_trigger(conf, (opp, MZONE, i), None)
                flipped += 1
        if flipped:
            conf = _draw_cards(conf, opp, flipped, by_effect=True)
    # spirit bounce: Yata returns to hand if summoned or flipped up this turn
    for loc, inst in list(conf.iter_monsters()):
        if inst.card == YATA and inst.face_up and inst.summoned_turn == conf.turn:
            conf = _leave_field(conf, loc, "hand")
    return replace(conf, boe_pending=False, end_resolved=True)


# --- the move table ----------------------------------------------------------


class MoveKind(NamedTuple):
    """A row of _KINDS.  The window, ``phases`` (the mover's own-turn
    phases, None: any; refused with ``phase_msg``) then ``when``'s
    (condition(conf, p), message) pairs, gates check_legal and, once per
    kind, the candidates.  ``timely(conf, move)`` is a move's own window,
    and ``candidates(conf, p)`` yields moves inside it only.  ``check``
    raises IllegalMove, or returns the next configuration when it had to
    resolve the move; ``apply`` runs on accepted moves only."""

    phases: Optional[frozenset[Phase]]
    phase_msg: str
    check: Callable[[Configuration, Move], Optional[Configuration]]
    apply: Callable[[Configuration, Move], Configuration]
    candidates: Optional[Callable[[Configuration, int], Iterable[Move]]]
    when: tuple[tuple[Callable[[Configuration, int], bool], str], ...] = ()
    locators: Callable[[Move], tuple[Loc, ...]] = lambda move: ()
    timely: Optional[Callable[[Configuration, Move], None]] = None


_MAIN = frozenset({Phase.MAIN1, Phase.MAIN2})

# in the order legal_moves offers them
_KINDS: dict[type, MoveKind] = {
    # a draw is made in a forced window only
    DrawCard: MoveKind(frozenset(), "no draw available now",
                       _no_check, _apply_draw, lambda conf, p: (DrawCard(p),)),
    DiscardToLimit: MoveKind(frozenset({Phase.END}), "hand is within the limit",
                             _chk_discard, _apply_discard, _cand_discard,
                             ((lambda conf, p: len(conf.players[p].hand) > HAND_LIMIT,
                               "hand is within the limit"),)),
    NormalSummon: MoveKind(_MAIN, "normal summons happen in your main phase",
                           _chk_summon, _apply_summon, _cand_summon,
                           ((lambda conf, p: conf.normal_summons_used < conf.normal_summon_allowance,
                             "no normal summons left this turn"),)),
    SetSpellTrap: MoveKind(_MAIN, "sets happen in your main phase",
                           _chk_set, _apply_set, _cand_set),
    FlipSummon: MoveKind(_MAIN, "flip summons happen in your main phase",
                         _chk_flip, _apply_flip, _cand_flip,
                         locators=lambda mv: () if mv.recover is None else (mv.recover,)),
    ChangeEquipTarget: MoveKind(_MAIN, "retargets happen in your main phase",
                                _chk_retarget, _apply_retarget, _cand_retarget,
                                locators=lambda mv: (mv.equip, mv.new_target)),
    ActivateEffect: MoveKind(None, "", _chk_activate, _apply_activate, _cand_activate,
                             locators=lambda mv: tuple(loc for a in (mv, *mv.chain)
                                                       for loc in (a.source, *a.targets)),
                             timely=_chk_timely),
    DeclareAttack: MoveKind(frozenset({Phase.BATTLE}), "attacks happen in your battle phase",
                            _chk_attack, _apply_attack, _cand_attack,
                            ((lambda conf, p: conf.turn != 1,
                              "the starting player cannot attack on turn 1"),
                             (lambda conf, p: _controls_faceup(conf, 1 - p, ATTRAFFIC) is None,
                              "your monsters cannot declare attacks")),
                            locators=lambda mv: (mv.attacker,) + ((mv.target,) if mv.target != DIRECT else ())),
    AdvancePhase: MoveKind(frozenset(Phase), "only the turn player advances phases",
                           _chk_advance, lambda conf, move: _advance_phase(conf), None),
    Pass: MoveKind(None, "", _no_check, _apply_pass, lambda conf, p: (Pass(p),)),
}


def _refusal(conf: Configuration, p: int, what: type, kind: MoveKind,
             forced: Optional[tuple[tuple[type, ...], bool, str]]) -> Optional[str]:
    """The message the window refuses a move of this type and kind with,
    or None."""
    if forced is not None:
        allowed, decides, msg = forced
        if what not in allowed:
            return msg
        if decides:
            return None
    if kind.phases is not None and (p != conf.active or conf.phase not in kind.phases):
        return kind.phase_msg
    for cond, msg in kind.when:
        if not cond(conf, p):
            return msg
    return None


def check_legal(conf: Configuration, move: Move) -> Optional[Configuration]:
    """The only judge of legality: the prelude, the window, then the move
    kind's timing and check.  Raises IllegalMove; returns the next
    configuration when judging the move meant resolving it, else None."""
    what = type(move)
    kind = _KINDS.get(what)
    if kind is None:
        raise IllegalMove(f"unhandled move {move!r}")
    p = move.player
    forced = _prelude(conf, p, kind.locators(move))
    msg = _refusal(conf, p, what, kind, forced)
    if msg is not None:
        raise IllegalMove(msg)
    if forced is not None and forced[1]:
        return None
    if kind.timely is not None:
        kind.timely(conf, move)
    return kind.check(conf, move)


def is_legal(conf: Configuration, move: Move) -> bool:
    return _passes(check_legal, conf, move)


def apply(conf: Configuration, move: Move) -> Configuration:
    """The transition function: deterministic, pure; raises IllegalMove
    through check_legal only."""
    nxt = check_legal(conf, move)
    return _KINDS[type(move)].apply(conf, move) if nxt is None else nxt


def legal_moves(conf: Configuration, p: int) -> list[Move]:
    """The kinds' candidates that check_legal accepts, in table order and
    without repeats.  The prelude and the window depend on the player and
    the move type alone (candidates name board locators only), so they are
    asked once per kind.  Subset-valued targets get a bounded
    representative family."""
    try:
        forced = _prelude(conf, p)
    except IllegalMove:
        return []
    accepted = forced is not None and forced[1]
    out: dict[Move, None] = {}
    for what, kind in _KINDS.items():
        if kind.candidates is None or _refusal(conf, p, what, kind, forced) is not None:
            continue
        for mv in kind.candidates(conf, p):
            try:
                if not accepted:
                    kind.check(conf, mv)
            except IllegalMove:
                continue
            out[mv] = None
    return list(out)


# --- run validation ----------------------------------------------------------


def transition_ok(conf: Configuration, nxt: Configuration, move: Move) -> bool:
    """The predicate t: the move is legal and produces exactly nxt."""
    try:
        return apply(conf, move) == nxt
    except IllegalMove:
        return False


def is_initial(conf: Configuration) -> bool:
    if conf.turn != 0 or conf.phase != Phase.DRAW or conf.lp != (START_LP, START_LP):
        return False
    for p in (0, 1):
        ps = conf.players[p]
        if ps.hand or ps.gy or ps.banished or ps.field_zone or ps.extra_zone:
            return False
        if any(m is not None for m in ps.monsters) or any(s is not None for s in ps.spelltraps):
            return False
        if not 40 <= len(ps.deck) <= 60:
            return False
    return True


def validate_run(run: Run) -> bool:
    if not is_initial(run.configs[0]):
        return False
    return all(transition_ok(conf, nxt, move) for conf, move, nxt in run.steps())


def can_act(run: Run) -> bool:
    """The predicate I: Player 1 has a real choice or it is their turn."""
    conf = run.last()
    if conf.active == 0:
        return True
    return any(not isinstance(m, Pass) for m in legal_moves(conf, 0))
