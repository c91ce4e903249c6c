"""Game state: card instances, per-player zones, configurations, codecs.

A Configuration is one immutable snapshot of everything the referee needs
to adjudicate transitions.  The opponent's deck is a column of indistinct
filler placeholders, so the snapshot coincides with Player 1's knowledge
of the game and the integer codec below is canonical: equal configurations
yield equal codes and ``decode(encode(c)) == c``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from ..carddb import CARDS, FILLER, by_id, card_name, is_monster_id
from ..coding import seq_decode, seq_encode
from ..errors import MalformedCode

START_LP = 8000
HAND_LIMIT = 6
N_MZONES = 5
N_SZONES = 5

ATK = 0
DEF = 1


class Phase(enum.IntEnum):
    DRAW = 0
    STANDBY = 1
    MAIN1 = 2
    BATTLE = 3
    MAIN2 = 4
    END = 5


# Zone kinds for locators: (player, zone_kind, index).
MZONE = 0
SZONE = 1
FZONE = 2
EXTRA = 3  # extra monster zone (one slot per player in this fragment)
HAND = 4   # index = card id
GY = 5     # index = position in graveyard list
EXTRADECK = 8

Loc = tuple[int, int, int]


def _memo_hash(cls):
    """The dataclass-made hash of cls, memoized in the instance dict.

    Records are immutable and the win checker, the plan cache and the
    transposition table hash them over and over, so each record hashes its
    fields once.  A new configuration shares the players and cards it did
    not change, so hashing it reuses their memos.  ``fast_replace`` builds
    every changed record without the memo, so a memo never outlives a copy.
    Equality stays the dataclass-made field comparison.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = field_hash(self)
        return h

    cls.__hash__ = __hash__
    return cls


@_memo_hash
@dataclass(frozen=True)
class CardInstance:
    card: int
    face_up: bool = True
    position: int = ATK
    equipped_to: Optional[Loc] = None
    negated: bool = False
    counters: int = 0
    set_turn: int = -1          # turn the card was set (spells/traps and monsters)
    face_since: int = -1        # turn of the last face change (flip-summon timing)
    summoned_turn: int = -1     # turn of summon/flip-up (spirit bounce)

    @property
    def name(self) -> str:
        return card_name(self.card)


@_memo_hash
@dataclass(frozen=True)
class PlayerState:
    deck: tuple[int, ...] = ()
    hand: tuple[int, ...] = ()
    monsters: tuple[Optional[CardInstance], ...] = (None,) * N_MZONES
    extra_zone: Optional[CardInstance] = None
    spelltraps: tuple[Optional[CardInstance], ...] = (None,) * N_SZONES
    field_zone: Optional[CardInstance] = None
    gy: tuple[int, ...] = ()
    banished: tuple[int, ...] = ()
    extra_deck: tuple[int, ...] = ()
    lp: int = START_LP

    def monster_count(self) -> int:
        n = sum(1 for m in self.monsters if m is not None)
        return n + (1 if self.extra_zone is not None else 0)


@_memo_hash
@dataclass(frozen=True)
class Configuration:
    players: tuple[PlayerState, PlayerState]
    turn: int = 0
    active: int = 0
    phase: Phase = Phase.DRAW
    priority: int = 0
    normal_summons_used: int = 0
    normal_summon_allowance: int = 1
    skip_draw: tuple[bool, bool] = (False, False)
    draw_done: bool = False
    temple_used: bool = False
    boe_pending: bool = False
    attacked: frozenset[int] = frozenset()       # attacker monster-zone keys
    opt_used: frozenset[str] = frozenset()       # once-per-turn effect markers
    end_resolved: bool = False                   # end-phase auto events done

    @property
    def lp(self) -> tuple[int, int]:
        return (self.players[0].lp, self.players[1].lp)

    def player(self, p: int) -> PlayerState:
        return self.players[p]

    def instance_at(self, loc: Loc) -> Optional[CardInstance]:
        p, kind, idx = loc
        ps = self.players[p]
        if kind == MZONE:
            return ps.monsters[idx] if 0 <= idx < N_MZONES else None
        if kind == SZONE:
            return ps.spelltraps[idx] if 0 <= idx < N_SZONES else None
        if kind == FZONE:
            return ps.field_zone
        if kind == EXTRA:
            return ps.extra_zone
        return None

    def iter_monsters(self) -> Iterator[tuple[Loc, CardInstance]]:
        for p in (0, 1):
            ps = self.players[p]
            for i, inst in enumerate(ps.monsters):
                if inst is not None:
                    yield (p, MZONE, i), inst
            if ps.extra_zone is not None:
                yield (p, EXTRA, 0), ps.extra_zone

    def iter_spelltraps(self) -> Iterator[tuple[Loc, CardInstance]]:
        for p in (0, 1):
            ps = self.players[p]
            for i, inst in enumerate(ps.spelltraps):
                if inst is not None:
                    yield (p, SZONE, i), inst
            if ps.field_zone is not None:
                yield (p, FZONE, 0), ps.field_zone

    def card_census(self) -> dict[int, int]:
        """Global card-id multiset across every zone of both players.

        Cards move between sides (gifts, swaps, summons to the opponent's
        field), so conservation is asserted on this global count.
        """
        census: dict[int, int] = {}

        def add(cid: int) -> None:
            census[cid] = census.get(cid, 0) + 1

        for p in (0, 1):
            ps = self.players[p]
            for cid in ps.deck + ps.hand + ps.gy + ps.banished + ps.extra_deck:
                add(cid)
            for inst in ps.monsters + ps.spelltraps + (ps.field_zone, ps.extra_zone):
                if inst is not None:
                    add(inst.card)
        return census

    def validate(self) -> None:
        for p in (0, 1):
            ps = self.players[p]
            if ps.lp < 0:
                raise MalformedCode("negative life points")
            if len(ps.monsters) != N_MZONES or len(ps.spelltraps) != N_SZONES:
                raise MalformedCode("bad zone widths")
            for inst in ps.monsters + (ps.extra_zone,):
                if inst is not None and not is_monster_id(inst.card):
                    raise MalformedCode("non-monster in a monster zone")
            for inst in ps.spelltraps:
                if inst is not None and is_monster_id(inst.card):
                    raise MalformedCode("monster in a spell/trap zone")
            if ps.field_zone is not None:
                spec = by_id(ps.field_zone.card)
                if spec.kind.value != "field spell":
                    raise MalformedCode("non-field card in the field zone")


# --- integer codec -------------------------------------------------------
#
# A configuration flattens to a list of naturals with explicit length
# prefixes, then goes through the shared sequence code.  Card ids are
# shifted by 1 so 0 can mark an empty slot.

_CODEC_VERSION = 1


def _flat_instance(inst: Optional[CardInstance]) -> list[int]:
    if inst is None:
        return [0]
    eq = inst.equipped_to if inst.equipped_to is not None else None
    out = [
        1,
        inst.card + 1,
        1 if inst.face_up else 0,
        inst.position,
        1 if inst.negated else 0,
        inst.counters,
        inst.set_turn + 1,
        inst.face_since + 1,
        inst.summoned_turn + 1,
    ]
    if eq is None:
        out.append(0)
    else:
        out.extend([1, eq[0], eq[1], eq[2]])
    return out


class _Cursor:
    def __init__(self, vals: tuple[int, ...]):
        self.vals = vals
        self.i = 0

    def take(self) -> int:
        if self.i >= len(self.vals):
            raise MalformedCode("truncated configuration code")
        v = self.vals[self.i]
        self.i += 1
        return v

    def take_list(self) -> list[int]:
        n = self.take()
        return [self.take() for _ in range(n)]

    def done(self) -> bool:
        return self.i == len(self.vals)


def _read_instance(cur: _Cursor) -> Optional[CardInstance]:
    present = cur.take()
    if present == 0:
        return None
    if present != 1:
        raise MalformedCode("bad instance marker")
    card = cur.take() - 1
    face_up = cur.take() == 1
    position = cur.take()
    negated = cur.take() == 1
    counters = cur.take()
    set_turn = cur.take() - 1
    face_since = cur.take() - 1
    summoned_turn = cur.take() - 1
    eq_flag = cur.take()
    equipped_to = None
    if eq_flag == 1:
        equipped_to = (cur.take(), cur.take(), cur.take())
    elif eq_flag != 0:
        raise MalformedCode("bad equip marker")
    if card != FILLER and not (0 <= card < len(CARDS)):
        raise MalformedCode("unknown card id")
    if position not in (ATK, DEF):
        raise MalformedCode("bad battle position")
    if counters < 0:
        raise MalformedCode("negative counters")
    return CardInstance(
        card=card,
        face_up=face_up,
        position=position,
        equipped_to=equipped_to,
        negated=negated,
        counters=counters,
        set_turn=set_turn,
        face_since=face_since,
        summoned_turn=summoned_turn,
    )


def encode_configuration(conf: Configuration) -> int:
    flat: list[int] = [
        _CODEC_VERSION,
        conf.turn,
        conf.active,
        int(conf.phase),
        conf.priority,
        conf.normal_summons_used,
        conf.normal_summon_allowance,
        1 if conf.skip_draw[0] else 0,
        1 if conf.skip_draw[1] else 0,
        1 if conf.draw_done else 0,
        1 if conf.temple_used else 0,
        1 if conf.boe_pending else 0,
        1 if conf.end_resolved else 0,
    ]
    att = sorted(conf.attacked)
    flat.append(len(att))
    flat.extend(att)
    opt = sorted(conf.opt_used)
    flat.append(len(opt))
    for marker in opt:
        bs = marker.encode("ascii")
        flat.append(len(bs))
        flat.extend(bs)
    for p in (0, 1):
        ps = conf.players[p]
        flat.append(ps.lp)
        for col in (ps.deck, ps.hand, ps.gy, ps.banished, ps.extra_deck):
            flat.append(len(col))
            flat.extend(c + 1 for c in col)
        for inst in ps.monsters:
            flat.extend(_flat_instance(inst))
        flat.extend(_flat_instance(ps.extra_zone))
        for inst in ps.spelltraps:
            flat.extend(_flat_instance(inst))
        flat.extend(_flat_instance(ps.field_zone))
    return seq_encode(flat)


def decode_configuration(code: int) -> Configuration:
    try:
        vals = seq_decode(code)
    except ValueError as exc:
        raise MalformedCode(str(exc)) from None
    cur = _Cursor(vals)
    if cur.take() != _CODEC_VERSION:
        raise MalformedCode("unknown codec version")
    turn = cur.take()
    active = cur.take()
    phase_v = cur.take()
    priority = cur.take()
    nsu = cur.take()
    allowance = cur.take()
    skip0 = cur.take() == 1
    skip1 = cur.take() == 1
    draw_done = cur.take() == 1
    temple_used = cur.take() == 1
    boe_pending = cur.take() == 1
    end_resolved = cur.take() == 1
    if active not in (0, 1) or priority not in (0, 1) or phase_v > 5:
        raise MalformedCode("bad header fields")
    attacked = frozenset(cur.take_list())
    n_opt = cur.take()
    opt: list[str] = []
    for _ in range(n_opt):
        n = cur.take()
        try:
            opt.append(bytes(cur.take() for _ in range(n)).decode("ascii"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise MalformedCode(str(exc)) from None
    players = []
    for _p in (0, 1):
        lp = cur.take()
        cols = []
        for _ in range(5):
            cols.append(tuple(c - 1 for c in cur.take_list()))
        deck, hand, gy, banished, extra_deck = cols
        monsters = tuple(_read_instance(cur) for _ in range(N_MZONES))
        extra_zone = _read_instance(cur)
        spelltraps = tuple(_read_instance(cur) for _ in range(N_SZONES))
        field_zone = _read_instance(cur)
        for col in cols:
            for c in col:
                if c != FILLER and not (0 <= c < len(CARDS)):
                    raise MalformedCode("unknown card id in a pile")
        players.append(
            PlayerState(
                deck=deck,
                hand=hand,
                monsters=monsters,
                extra_zone=extra_zone,
                spelltraps=spelltraps,
                field_zone=field_zone,
                gy=gy,
                banished=banished,
                extra_deck=extra_deck,
                lp=lp,
            )
        )
    if not cur.done():
        raise MalformedCode("trailing data in configuration code")
    conf = Configuration(
        players=(players[0], players[1]),
        turn=turn,
        active=active,
        phase=Phase(phase_v),
        priority=priority,
        normal_summons_used=nsu,
        normal_summon_allowance=allowance,
        skip_draw=(skip0, skip1),
        draw_done=draw_done,
        temple_used=temple_used,
        boe_pending=boe_pending,
        attacked=attacked,
        opt_used=frozenset(opt),
        end_resolved=end_resolved,
    )
    conf.validate()
    return conf


def fast_replace(obj, **changes):
    """dataclasses.replace without the ceremony; hot path of apply()."""
    new = object.__new__(type(obj))
    d = new.__dict__
    d.update(obj.__dict__)
    d.pop("_hash", None)
    d.update(changes)
    return new


def update_player(conf: Configuration, p: int, **changes) -> Configuration:
    ps = fast_replace(conf.players[p], **changes)
    players = (ps, conf.players[1]) if p == 0 else (conf.players[0], ps)
    return fast_replace(conf, players=players)
