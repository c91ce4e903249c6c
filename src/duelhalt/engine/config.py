"""Game state: card instances, per-player zones, configurations, codecs.

A Configuration is one immutable snapshot of everything the referee needs
to adjudicate transitions.  The opponent's deck is a column of indistinct
filler placeholders, so the snapshot coincides with Player 1's knowledge
of the game.  Its integer code follows the layouts declared once below,
one per record, through ``coding``'s field kinds: equal configurations
yield equal codes, ``decode(encode(c)) == c``, and a code is accepted only
in the form ``encode`` writes, so ``encode(decode(n)) == n`` too.  As
consecutive configurations share most of their players and cards,
``encode_configuration`` reuses the digits it wrote for those very records
of the configuration it encoded last, and keeps no other records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from ..carddb import FILLER, by_id, card_name, is_monster_id
from ..coding import FLAG, LOC, NAT, TEXT, Fixed, Int, Maybe, Record, Seq, Set
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
        """What the code's layout does not state: which cards each zone holds."""
        for ps in self.players:
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


# --- integer codec: each record's layout, in code order.  Card ids are
# shifted by 1, and so are the turn stamps, whose "never" is -1.

_kept = _now = {}  # entries by id: of the configuration encoded last, of the one being encoded


class _Reused(Record):
    """A record whose digits are reused while the configuration encoded last
    holds the very same record.  An entry is (record, its digits, the entries
    written inside it): it holds its record, so no other can take that id,
    and a reused player brings its cards along."""

    def digits(self, record):
        entry = _kept.get(id(record))
        if entry is None:
            n = len(_now)
            entry = (record, Record.digits(self, record), list(_now.items())[n:])
        _now.update(entry[2])
        _now[id(record)] = entry
        return entry[1]


_CARD = Int(shift=1, lo=0, hi=FILLER)
_TURN = Int(shift=1)
_SLOT = Maybe(_Reused(CardInstance, [
    ("card", _CARD), ("face_up", FLAG), ("position", Int(hi=DEF)), ("negated", FLAG),
    ("counters", NAT), ("set_turn", _TURN), ("face_since", _TURN), ("summoned_turn", _TURN),
    ("equipped_to", Maybe(LOC))]))
_PILE = Seq(_CARD)
_PLAYER = _Reused(PlayerState, [
    ("lp", NAT), ("deck", _PILE), ("hand", _PILE), ("gy", _PILE), ("banished", _PILE),
    ("extra_deck", _PILE), ("monsters", Fixed(*[_SLOT] * N_MZONES)), ("extra_zone", _SLOT),
    ("spelltraps", Fixed(*[_SLOT] * N_SZONES)), ("field_zone", _SLOT)])
_CONFIGURATION = Record(Configuration, [
    ("turn", NAT), ("active", Int(hi=1)), ("phase", Int(hi=Phase.END, make=Phase)),
    ("priority", Int(hi=1)), ("normal_summons_used", NAT), ("normal_summon_allowance", NAT),
    ("skip_draw", Fixed(FLAG, FLAG)), ("draw_done", FLAG), ("temple_used", FLAG),
    ("boe_pending", FLAG), ("end_resolved", FLAG), ("attacked", Set(NAT)),
    ("opt_used", Set(TEXT)), ("players", Fixed(_PLAYER, _PLAYER))], version=1)


def encode_configuration(conf: Configuration) -> int:
    global _kept, _now
    _now = {}
    code = _CONFIGURATION.encode(conf)
    _kept = _now
    return code


def decode_configuration(code: int) -> Configuration:
    conf = _CONFIGURATION.decode(code)
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
