"""Legal moves, the transition function, and the restricted card effects.

The trusted kernel, with ``config``, ``moves``, ``coding``, ``carddb``, ``errors``
and ``trace``: all that a checker of runs, witnesses and traces needs or imports.
Outside it, and checked by it: ``frame``, the strategies and the scripts.

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

An effect's rules live in its ``EFFECTS`` row, one ``Effect`` record, and
no effect is named outside the table, the chain patterns, Bait Doll's move
and the dragon's own handlers.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

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
    ChainLink,
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
    The tuples are built on first read and cached on the node read.

    A node may stand for a whole line linked at once: any object with a
    length, ``moves()``, ``last()`` and ``confs()`` (its moves, its end,
    and the configurations after each of its moves, which a moved line
    builds when first asked).  The node keeps the line's end as its
    configuration.  ``since``, ``configs`` and ``steps``, and through them
    ``validate_run`` and a trace, read the configurations before it off
    ``confs()``, ``steps`` only once it reaches the node; ``moves`` and
    ``moves_after`` read ``moves()`` alone."""

    __slots__ = ("_parent", "_move", "_conf", "_len", "_configs", "_moves")

    def __init__(self, configs: Iterable[Configuration], moves: Iterable[Move]):
        configs, moves = tuple(configs), tuple(moves)
        n = len(moves)
        if len(configs) != n + 1:
            raise ValueError(f"a run of {n} moves has {n + 1} configurations, not {len(configs)}")
        parent = Run(configs[:1], ()) if n else None
        for k in range(1, n):
            parent = link(parent, configs[k], moves[k - 1])
        self._parent, self._move, self._conf = parent, moves[-1] if n else None, configs[-1]
        self._len, self._configs, self._moves = n, configs, moves

    def __len__(self) -> int:
        return self._len

    def last(self) -> Configuration:
        return self._conf

    def extend(self, conf, move: Optional[Move] = None) -> "Run":
        """The run one transition on, or, given a line alone, on by the
        whole line as one node: the explorer's step, once per node."""
        return link(self, conf, move)

    @property
    def configs(self) -> tuple[Configuration, ...]:
        if self._configs is None:
            self._configs = tuple(self.since(0))
        return self._configs

    @property
    def moves(self) -> tuple[Move, ...]:
        if self._moves is None:
            self._moves = self.moves_after(0)
        return self._moves

    def _after(self, n: int) -> tuple[list["Run"], "Run"]:
        """The nodes that hold the moves after c_n, oldest first, walking
        back only to c_n, and the node before them."""
        if n < 0:
            raise ValueError(f"a run has no configuration c_{n}")
        node, nodes = self, []
        while node._len > n:
            nodes.append(node)
            node = node._parent
        return nodes[::-1], node

    def since(self, n: int) -> list[Configuration]:
        """The configurations c_n ... c_len; none when the run is shorter."""
        if n > self._len:
            return []
        nodes, before = self._after(n)
        skip = n - before._len  # c_n and the moves before it inside nodes[0]
        out = [nodes[0]._line.confs()[skip - 1] if skip else before._conf]
        for node in nodes:
            if node.__class__ is Run:
                out.append(node._conf)
            else:
                out += node._line.confs()[skip:]
                skip = 0
        return out

    def moves_after(self, n: int) -> tuple[Move, ...]:
        """The moves m_n+1 ... m_len, off the nodes alone; none when the
        run is shorter."""
        nodes, before = self._after(n)
        skip, out = n - before._len, []
        for node in nodes:
            if node.__class__ is Run:
                out.append(node._move)
            else:
                out += node._line.moves()[skip:]
                skip = 0
        return tuple(out)

    def steps(self, n: int = 0) -> Iterator[tuple[Configuration, Move, Configuration]]:
        """The transitions after c_n, in order, as (before, move, after):
        nothing is walked before the first is read, and a line node's
        configurations are read as the steps reach it."""
        if n > self._len:
            return
        nodes, before = self._after(n)
        skip = n - before._len
        conf = nodes[0]._line.confs()[skip - 1] if skip else before._conf
        for node in nodes:
            if node.__class__ is Run:
                pairs = ((node._move, node._conf),)
            else:
                line = node._line
                pairs = zip(line.moves()[skip:], line.confs()[skip:])
                skip = 0
            for move, nxt in pairs:
                yield conf, move, nxt
                conf = nxt


class _Linked(Run):
    """A node that stands for a whole line: its configuration is the
    line's end, and the line is read for the positions before it."""

    __slots__ = ("_line",)


def link(parent: Run, conf, move: Optional[Move] = None) -> Run:
    """The node one transition after parent, or, given a line alone, the
    node for the whole line after it (none for an empty one), uncounted:
    lines and trace replays link here, so ``Run.extend`` counts the
    explorer's steps."""
    if move is None:
        if not len(conf):
            return parent
        run = object.__new__(_Linked)
        run._line, run._conf, run._len = conf, conf.last(), parent._len + len(conf)
    else:
        run = object.__new__(Run)
        run._conf, run._len = conf, parent._len + 1
    run._parent, run._move, run._configs, run._moves = parent, move, None, None
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
    return (_controls_faceup(conf, 1 - p, PROTECTOR) is not None
            or _controls_faceup(conf, 1 - p, ATTRAFFIC) is not None)


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


def _trap_ready(conf: Configuration, p: int, inst: CardInstance) -> bool:
    """Whether p's set trap may fire: it was set before this turn, or p's
    Temple of the Kings is up, which the counter loop leans on several
    times per turn."""
    return inst.set_turn != conf.turn or _controls_faceup(conf, p, TEMPLE) is not None


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


def _skip_draw(conf: Configuration, p: int) -> Configuration:
    skip = list(conf.skip_draw)
    skip[p] = True
    return replace(conf, skip_draw=tuple(skip))


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
    if inst.card in (MOF, MOD) and choice is not None:
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


# --- effect handlers ------------------------------------------------------
#
# An effect's rules live in its EFFECTS row, one Effect record: its check,
# resolve and candidates, and the facts the activation path reads instead of
# naming the effect.


def _no_change(conf, p, source, targets, extras):
    """The resolve of a card that only sets up a continuous effect: the
    activation wrapper places the card, and the rule queries read the
    effect off the board."""
    return conf


class Effect(NamedTuple):
    check: Callable[..., None]  # (conf, p, source, targets, extras), raises IllegalMove
    resolve: Callable[..., Configuration] = _no_change  # (conf, p, source, targets, extras)
    # (conf, p, source) -> (targets, extras) pairs for the enumerator, a
    # bounded family for multi-choice effects; None: the one pair ((), ())
    candidates: Optional[Callable[..., Iterable]] = None
    reads_extras: bool = False  # else a move, chain link or forced trap carries none
    gy_first: bool = False  # the spent card reaches the graveyard before resolving
    skips_gy: bool = False  # the spent card makes no trip to the graveyard
    # judged by resolving it when it carries at least this many extras (None:
    # never), as a forced trap's check and flip choices read the chain's board
    resolve_checks: Optional[int] = None
    zones: tuple[int, ...] = ()  # activated from these too: GY, EXTRA (the extra monster zone)
    moves_stamps: bool = False  # a card moves with its stamps to another slot
    reads_counters: bool = False  # checks the counters against a threshold


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
                offer: Optional[int] = None) -> Effect:
    """The row of an effect that targets lo..hi graveyard cards and sends
    them on with _send_from_gy(to).

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

    return Effect(check, _send_from_gy(to), candidates)


def _one_target(count_msg: str, target_msg: str, fits: Callable,
                also: Optional[tuple[Callable, str]] = None,
                scan: Optional[Callable] = None) -> tuple[Callable, Optional[Callable]]:
    """The check and candidates of an effect that targets 1 card: an
    occupied locator where fits(p, loc, inst) holds (else target_msg), then
    also's (holds(conf, loc, inst), message).  The candidates are the cards
    scan(conf) yields that pass both; None without a scan."""
    holds, also_msg = also or (None, "")

    def check(conf, p, source, targets, extras):
        _require(len(targets) == 1, count_msg)
        loc = targets[0]
        inst = conf.instance_at(loc)
        _require(inst is not None and fits(p, loc, inst), target_msg)
        _require(holds is None or holds(conf, loc, inst), also_msg)

    def candidates(conf, p, source):
        for loc, inst in scan(conf):
            if fits(p, loc, inst) and (holds is None or holds(conf, loc, inst)):
                yield (loc,), ()

    return check, candidates if scan else None


def _face_up_monster(p, loc, inst):
    return inst.face_up and loc[1] in (MZONE, EXTRA)


def _res_equip(conf, p, source, targets, extras):
    inst = conf.instance_at(source)
    return _set_slot(conf, source, replace(inst, equipped_to=targets[0]))


def _equip(count_msg: str, target_msg: str) -> Effect:
    """The row of an equip that targets 1 face-up monster."""
    check, candidates = _one_target(count_msg, target_msg, _face_up_monster,
                                    scan=Configuration.iter_monsters)
    return Effect(check, _res_equip, candidates)


def _chk_draw(what: str, need: int, short_msg: str) -> Callable:
    """The check of a card that takes no targets and draws from a deck of
    at least need cards."""
    def check(conf, p, source, targets, extras):
        _require(not targets, f"{what} takes no targets")
        _require(len(conf.players[p].deck) >= need, short_msg)
        _require(not _effect_draw_blocked(conf, p), "drawing outside the Draw Phase is blocked")

    return check


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


def _res_upstart(conf, p, source, targets, extras):
    conf = _draw_cards(conf, p, 1, by_effect=True)
    return _adjust_lp(conf, 1 - p, 1000)


_chk_mst, _cand_mst = _one_target(
    "Mystical Space Typhoon targets 1 spell/trap", "target must be a spell/trap on the field",
    lambda p, loc, inst: loc[1] in (SZONE, FZONE), scan=Configuration.iter_spelltraps)


def _res_mst(conf, p, source, targets, extras):
    return _to_gy(conf, targets[0])


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


_chk_offerings, _cand_offerings = _one_target(
    "Offerings to the Doomed targets 1 face-up monster", "target must be a face-up monster",
    _face_up_monster, (lambda conf, loc, inst: not _pole_protected(conf, loc, inst),
                       "target is protected from spells"),
    scan=Configuration.iter_monsters)


def _res_offerings(conf, p, source, targets, extras):
    return _skip_draw(_leave_field(conf, targets[0], "gy"), p)


_chk_bait_doll = _one_target(
    "Bait Doll targets 1 set card", "target must be a set spell/trap",
    lambda p, loc, inst: loc[1] == SZONE and not inst.face_up,
    (lambda conf, loc, inst: not by_id(inst.card).is_trap or _trap_ready(conf, loc[0], inst),
     "trap was set this turn"))[0]


def _res_bait_doll(conf, p, source, targets, extras):
    t = targets[0]
    inst = conf.instance_at(t)
    if inst is not None and not inst.face_up and is_trap_id(inst.card):
        # the forced trap resolves as if its controller had activated it
        forced = ChainLink(by_id(inst.card).effects[0], t, *_unpack_forced(extras))
        _chk_link(conf, t[0], forced)
        conf = _resolve_activation(conf, t[0], forced)
    # Bait Doll shuffles itself into its owner's deck after resolving.
    return update_player(conf, p, deck=conf.players[p].deck + (BAIT_DOLL,))


# A forced trap's own targets and extras ride in Bait Doll's extras.
_FORCED = Fixed(Seq(LOC), Seq(NAT))


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


def _res_soul_drain(conf, p, source, targets, extras):
    # the 1000-LP cost; the lock itself is read off the board
    return _adjust_lp(conf, p, -1000)


def _res_desert_sunlight(conf, p, source, targets, extras):
    """All of p's face-down monsters flipped face-up in defense, in one copy
    of p, then their flip triggers with the choices in extras: flat (zone,
    1 + graveyard index | 0) pairs.  The spent trap is in the graveyard by
    now (the row's gy_first)."""
    _require(len(extras) % 2 == 0, "flip choices come in (zone, choice) pairs")
    choices = {extras[i]: None if extras[i + 1] == 0 else (p, GY, extras[i + 1] - 1)
               for i in range(0, len(extras), 2)}
    monsters = conf.players[p].monsters
    flipped = [i for i, inst in enumerate(monsters) if inst is not None and not inst.face_up]
    conf = _set_monsters(conf, [((p, MZONE, i), _face_up(monsters[i], DEF, conf.turn))
                                for i in flipped])
    for i in flipped:
        conf = _resolve_flip_trigger(conf, (p, MZONE, i), choices.get(i))
    return conf


def flip_choice_extras(pairs: Iterable[tuple[int, Optional[int]]]) -> tuple[int, ...]:
    """Helper for scripts: (zone, gy_index_or_None) pairs -> extras."""
    return tuple(x for zone, gy_idx in pairs for x in (zone, 0 if gy_idx is None else gy_idx + 1))


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
    if source[1] == HAND:
        hand.remove(source[2])
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
    a, b = conf.instance_at(mine), conf.instance_at(theirs)
    conf = _set_monsters(conf, [(mine, None), (theirs, None)])
    moved = {mine: (1 - p, MZONE, _first_free(conf.players[1 - p].monsters)),
             theirs: (p, MZONE, _first_free(conf.players[p].monsters))}
    conf = _set_monsters(conf, [(moved[mine], a), (moved[theirs], b)])
    # each equip follows the monster it was on, all moved in one pass
    for sloc, st in list(conf.iter_spelltraps()):
        if st.equipped_to in moved:
            conf = _set_slot(conf, sloc, replace(st, equipped_to=moved[st.equipped_to]))
    return conf


def _summon(conf: Configuration, cid: int, loc: Loc, **more) -> Configuration:
    """cid special summoned face-up in attack position at loc."""
    inst = CardInstance(cid, face_up=True, position=ATK, summoned_turn=conf.turn,
                        face_since=conf.turn)
    return _set_slot(conf, loc, inst, **more)


def _chk_from_extra(conf: Configuration, p: int, cid: int, what: str) -> None:
    _require(cid in conf.players[p].extra_deck, f"{what} monster not in the extra deck")
    _require(conf.players[p].extra_zone is None, "extra monster zone occupied")


def _summon_from_extra(conf: Configuration, p: int, cid: int) -> Configuration:
    ed = list(conf.players[p].extra_deck)
    ed.remove(cid)
    return _summon(conf, cid, (p, EXTRA, 0), extra_deck=tuple(ed))


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
    _chk_from_extra(conf, p, SVD, "fusion")
    _require(not _special_summon_blocked(conf, p), "special summons are blocked")


def _res_poly(conf, p, source, targets, extras):
    for t in sorted(targets, key=lambda t: (t[1] != HAND, t)):
        if t[1] == HAND:
            conf = _discard(conf, p, t[2])
        else:
            conf = _leave_field(conf, t, "gy")
    return _summon_from_extra(conf, p, SVD)


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


def _gy_monster_to_opp(face_up: bool) -> Effect:
    """The row of Give and Take (face_up) and Reverse Reuse: a monster from
    your graveyard summoned in defense to the opponent's main zone
    extras[0]."""
    def check(conf, p, source, targets, extras):
        _require(len(targets) == 1, "target 1 monster in your graveyard")
        t = targets[0]
        _require(t[0] == p and t[1] == GY, "target must be in your graveyard")
        gy = conf.players[p].gy
        _require(0 <= t[2] < len(gy) and is_monster_id(gy[t[2]]), "target must be a monster")
        _require(len(extras) == 1 and 0 <= extras[0] < N_MZONES, "pick an opponent zone")
        _require(conf.players[1 - p].monsters[extras[0]] is None, "opponent zone occupied")
        _require(not _special_summon_blocked(conf, p), "special summons are blocked")

    def resolve(conf, p, source, targets, extras):
        gy, i = conf.players[p].gy, targets[0][2]
        conf = update_player(conf, p, gy=gy[:i] + gy[i + 1:])
        inst = CardInstance(gy[i], face_up=face_up, position=DEF, set_turn=conf.turn,
                            face_since=conf.turn, summoned_turn=conf.turn)
        return _set_slot(conf, (1 - p, MZONE, extras[0]), inst)

    def candidates(conf, p, source):
        zone = _first_free(conf.players[1 - p].monsters)
        if zone is not None:
            gy = conf.players[p].gy
            for loc in [(p, GY, i) for i, cid in enumerate(gy) if is_monster_id(cid)][:20]:
                yield (loc,), (zone,)

    return Effect(check, resolve, candidates, reads_extras=True)


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
    ps = conf.players[p]
    cit = ps.field_zone  # the check found p's face-up Magical Citadel there
    more = ({"hand": _hand_without(ps, ENDYMION)} if source[1] == HAND
            else {"gy": ps.gy[:source[2]] + ps.gy[source[2] + 1:]})
    conf = _summon(conf, ENDYMION, (p, MZONE, extras[0]),
                   field_zone=replace(cit, counters=cit.counters - 6), **more)
    if len(extras) > 1 and extras[1] > 0:
        idx = extras[1] - 1
        # the check found a spell there, one place back if Endymion left
        # the graveyard from before it
        conf = _gy_to_hand(conf, p, idx - 1 if source[1] == GY and source[2] < idx else idx)
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


_chk_clara_material = _one_target(
    "link summon uses 1 material", "material must be your face-up monster",
    lambda p, loc, inst: loc[0] == p and inst.face_up,
    (lambda conf, loc, inst: inst.card != FILLER and by_id(inst.card).stats.level == 1,
     "material must be level 1"))[0]


def _chk_clara_link(conf, p, source, targets, extras):
    _chk_from_extra(conf, p, CLARA, "link")
    _chk_clara_material(conf, p, source, targets, extras)
    _require(not _special_summon_blocked(conf, p), "special summons are blocked")


def _res_clara_link(conf, p, source, targets, extras):
    return _summon_from_extra(_leave_field(conf, targets[0], "gy"), p, CLARA)


_chk_svd_target, _cand_svd_negate = _one_target(
    "negate 1 opponent monster", "target must be an opponent face-up monster",
    lambda p, loc, inst: loc[0] == 1 - p and _face_up_monster(p, loc, inst),
    scan=Configuration.iter_monsters)


def _chk_svd_negate(conf, p, source, targets, extras):
    _require("svd_negate" not in conf.opt_used, "once per turn")
    inst = conf.instance_at(source)
    _require(inst is not None and inst.card == SVD and inst.face_up and not inst.negated,
             "Starving Venemy Dragon must be face-up")
    _chk_svd_target(conf, p, source, targets, extras)


def _res_svd_negate(conf, p, source, targets, extras):
    t = targets[0]
    tinst = conf.instance_at(t)
    conf = _set_slot(conf, t, replace(tinst, negated=True))
    return replace(conf, opt_used=conf.opt_used | {"svd_negate"})


EFFECTS: dict[str, Effect] = {
    "double_summon_extra": Effect(_no_targets("Double Summon"), _res_double_summon),
    "pob_return_two": _gy_targets(2, 2, "Pot of Benevolence returns exactly 2 cards",
                                  to="deck"),
    "gmc_gift": Effect(_chk_gmc, _res_gmc, _cand_gmc),
    "soul_release_banish": _gy_targets(1, 5, "Soul Release banishes 1-5 cards",
                                       to="banished"),
    "rain_of_mercy_gain": Effect(_no_targets("Rain of Mercy"), _res_rain_of_mercy),
    "upstart_draw": Effect(_chk_draw("Upstart Goblin", 1, "no card to draw"), _res_upstart),
    "mst_destroy": Effect(_chk_mst, _res_mst, _cand_mst),
    "pot_desires": Effect(_chk_draw("Pot of Desires", 12, "need 10 to banish plus 2 to draw"),
                          _res_pot_desires),
    "pot_duality": Effect(_chk_pot_duality, _res_pot_duality, reads_extras=True),
    "offerings_destroy_skip": Effect(_chk_offerings, _res_offerings, _cand_offerings),
    "citadel_counters": Effect(_no_targets("field spell")),
    "temple_trap_allowance": Effect(_no_targets("Temple of the Kings")),
    "bait_doll_force": Effect(_chk_bait_doll, _res_bait_doll, reads_extras=True, skips_gy=True,
                              resolve_checks=0),
    "boe_flip_all": Effect(_no_targets("Book of Eclipse"), _res_boe),
    "soul_drain_gy_lock": Effect(_chk_soul_drain, _res_soul_drain),
    "desert_sunlight_flip_up": Effect(_no_targets("Desert Sunlight"), _res_desert_sunlight,
                                      reads_extras=True, gy_first=True, resolve_checks=1),
    "tornado_recycle": _gy_targets(1, 5, "Localized Tornado shuffles 1-5 cards",
                                   to="deck", own=True, offer=1),
    "massivemorph_boost": _equip("Massivemorph targets 1 face-up monster",
                                 "target must be a face-up monster"),
    "pole_position_immunity": Effect(_no_targets("Pole Position")),
    "gift_card_gain": Effect(_no_targets("Gift Card"), _res_gift_card),
    "morale_boost_gain": Effect(_no_targets("Morale Boost")),
    "mist_body_shield": _equip("Mist Body equips 1 face-up monster",
                               "equip target must be a face-up monster"),
    "mse_discard_recover": Effect(_chk_mse, _res_mse, reads_extras=True),
    "attraffic_control": Effect(_no_targets("Attraffic Control")),
    "creature_swap": Effect(_chk_creature_swap, _res_creature_swap, moves_stamps=True),
    "polymerization_fuse": Effect(_chk_poly, _res_poly),
    "flint_lockdown": _equip("Flint equips 1 face-up monster",
                             "equip target must be a face-up monster"),
    "raigeki_wipe": Effect(_no_targets("Raigeki"), _res_raigeki),
    "give_and_take": _gy_monster_to_opp(face_up=True),
    "reverse_reuse": _gy_monster_to_opp(face_up=False),
    "endymion_counter_summon": Effect(_chk_endymion_summon, _res_endymion_summon, _cand_endymion,
                                      reads_extras=True, zones=(GY,), reads_counters=True),
    "clara_link_summon": Effect(_chk_clara_link, _res_clara_link),
    "svd_negate": Effect(_chk_svd_negate, _res_svd_negate, _cand_svd_negate, zones=(EXTRA,)),
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
        extras=(0, len(flip_extras)) + tuple(flip_extras),  # _FORCED: no targets, then the extras
    )


# --- activation wrapper ---------------------------------------------------


def _effect_card(conf: Configuration, p: int, source: Loc) -> int:
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
    cid = _effect_card(conf, p, source)
    if cid == FILLER:
        return False
    spec = by_id(cid)
    if effect not in spec.effects:
        return False
    main = conf.phase in (Phase.MAIN1, Phase.MAIN2)
    own_turn = conf.active == p
    if spec.is_monster:  # a monster's effect: its owner's main phase only
        return own_turn and main and (source[1] not in (GY, EXTRA)
                                      or source[1] in EFFECTS[effect].zones)
    if source[1] == HAND:
        if spec.kind == Kind.QUICKPLAY_SPELL:
            return own_turn and conf.phase != Phase.DRAW
        if spec.is_spell:
            return own_turn and main
        return False  # traps never activate from hand
    if source[1] == SZONE or source[1] == FZONE:
        inst = conf.instance_at(source)
        if inst is None or inst.face_up:
            return False  # continuous cards do not re-activate
        if spec.is_trap:  # any phase, any turn, at a priority window
            return _trap_ready(conf, p, inst)
        if spec.kind == Kind.QUICKPLAY_SPELL:
            return inst.set_turn != conf.turn and conf.phase != Phase.DRAW
        if spec.is_spell:
            return own_turn and main
    return False


def _resolve_activation(conf: Configuration, p: int,
                        link: Union[ActivateEffect, ChainLink]) -> Configuration:
    """One activation of p's, a move or a chain link, resolved: its card
    played, its effect resolved and a spent normal card sent on."""
    source, targets, extras = link.source, link.targets, link.extras
    cid = _effect_card(conf, p, source)
    spec = by_id(cid)
    row = EFFECTS[link.effect]
    if spec.is_monster:  # a monster's effect moves the card itself, and none is played
        return row.resolve(conf, p, source, targets, extras)
    from_hand = source[1] == HAND

    # placement at activation; a spell activation adds a counter to a
    # face-up Magical Citadel, in the copy of p that takes the card from
    # p's hand when the citadel is p's
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
    elif row.gy_first:
        return row.resolve(_to_gy(conf, source), p, source, targets, extras)
    else:
        inst = conf.instance_at(source)
        if inst is not None and not inst.face_up:
            conf = _set_slot(conf, source, replace(inst, face_up=True, face_since=conf.turn))
    conf = row.resolve(conf, p, src, targets, extras)

    # normal/quick-play cards go to the graveyard after resolving
    if not row.skips_gy and spec.kind in (Kind.NORMAL_SPELL, Kind.QUICKPLAY_SPELL,
                                          Kind.NORMAL_TRAP):
        if from_hand:
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


def _chk_link(conf: Configuration, p: int, link: Union[ActivateEffect, ChainLink]) -> bool:
    """The check of one activation, a move, a chain link or a forced trap,
    which carries extras only if its effect reads them; whether the chain
    is then judged by resolving it."""
    row = EFFECTS[link.effect]
    if link.extras and not row.reads_extras:
        raise IllegalMove("this effect takes no extra choices")
    row.check(conf, p, link.source, link.targets, link.extras)
    return row.resolve_checks is not None and len(link.extras) >= row.resolve_checks


def _chk_activate(conf: Configuration, move: ActivateEffect) -> Optional[Configuration]:
    p = move.player
    resolved = False
    if move.chain:
        effects = frozenset({move.effect} | {l.effect for l in move.chain})
        if not any(effects <= pat for pat in _CHAIN_PATTERNS):
            raise IllegalMove("unsupported chain construction")
        for link in move.chain:
            if not _activation_timing_ok(conf, p, link.effect, link.source):
                raise IllegalMove("chain link timing is wrong")
            resolved |= _chk_link(conf, p, link)
    resolved |= _chk_link(conf, p, move)
    # a continuous, equip or field spell from the hand stays on the field
    if move.source[1] == HAND:
        kind = by_id(move.source[2]).kind
        if kind in (Kind.CONTINUOUS_SPELL, Kind.EQUIP_SPELL) and _first_free(conf.players[p].spelltraps) is None:
            raise IllegalMove("no free spell/trap zone")
        if kind == Kind.FIELD_SPELL and conf.players[p].field_zone is not None:
            raise IllegalMove("field zone occupied")
    if resolved:
        # judged by resolving the chain (Effect.resolve_checks); apply takes
        # the result
        return _apply_activate(conf, move)
    return None


def _apply_activate(conf: Configuration, move: ActivateEffect) -> Configuration:
    conf2 = conf
    # the chain resolves last link first
    for a in (*reversed(move.chain), move):
        conf2 = _resolve_activation(conf2, move.player, a)
    if conf.priority != conf.active:
        conf2 = replace(conf2, priority=conf.active)
    return conf2


# the effects each card lists that have an EFFECTS row, and of the cards
# with effects also activated from the graveyard or the extra monster zone
_ACTIVATABLE = {spec.id: tuple(e for e in spec.effects if e in EFFECTS) for spec in CARDS}
_FROM_GY, _FROM_EXTRA = ({cid: tuple(e for e in effects if zone in EFFECTS[e].zones)
                          for cid, effects in _ACTIVATABLE.items()
                          if any(zone in EFFECTS[e].zones for e in effects)} for zone in (GY, EXTRA))


def _set_card_sources(conf: Configuration, p: int) -> list[tuple[str, Loc]]:
    return [(effect, (p, SZONE, i)) for i, inst in enumerate(conf.players[p].spelltraps)
            if inst is not None and not inst.face_up for effect in _ACTIVATABLE[inst.card]]


def _activation_sources(conf: Configuration, p: int) -> list[tuple[str, Loc]]:
    """(effect, source) pairs: the hand, set cards, the graveyard, the extra
    deck and the extra monster zone."""
    ps = conf.players[p]
    sources = [(effect, (p, HAND, cid))
               for cid in sorted(set(ps.hand)) for effect in _ACTIVATABLE.get(cid, ())]
    sources += _set_card_sources(conf, p)
    sources += [(effect, (p, GY, idx))
                for idx, cid in enumerate(ps.gy) if cid in _FROM_GY for effect in _FROM_GY[cid]]
    sources += [(effect, (p, EXTRADECK, cid))
                for cid in set(ps.extra_deck) for effect in _ACTIVATABLE[cid]]
    if ps.extra_zone is not None and ps.extra_zone.card in _FROM_EXTRA:
        sources += [(effect, (p, EXTRA, 0)) for effect in _FROM_EXTRA[ps.extra_zone.card]]
    return sources


def _cand_activate(conf: Configuration, p: int,
                   sources: Optional[list[tuple[str, Loc]]] = None) -> Iterable[Move]:
    """The effect rows' candidates from the (effect, source) pairs, all of
    p's by default, built only for the effects whose timing is right now."""
    for effect, source in _activation_sources(conf, p) if sources is None else sources:
        if not _activation_timing_ok(conf, p, effect, source):
            continue
        cand = EFFECTS[effect].candidates
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
            conf = _skip_draw(conf, 1 - p)
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
                conf = _skip_draw(conf, 1 - p)
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


def replay_witness(run: Run, moves: Iterable[Move]) -> Run:
    """run extended by each of moves in turn, each applied: a witness played out."""
    for mv in moves:
        run = run.extend(apply(run.last(), mv), mv)
    return run


def can_act(run: Run) -> bool:
    """The predicate I: Player 1 has a real choice or it is their turn."""
    conf = run.last()
    if conf.active == 0:
        return True
    return any(not isinstance(m, Pass) for m in legal_moves(conf, 0))
