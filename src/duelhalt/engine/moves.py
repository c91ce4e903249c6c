"""Move types, integer coding, and rendering.

Every move knows its mover.  A move's code pairs its type's tag with the
sequence code of its fields, in the layout each type declares once in
``_CODES``; decoding reads the same layout strictly, so a whole run can be
replayed from integers alone and every move has exactly one code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..carddb import card_name
from ..coding import FLAG, LOC, NAT, TEXT, Int, Maybe, Record, Seq, pair, unpair
from ..errors import MalformedCode
from .config import Loc

DIRECT = (9, 9, 9)  # attack-target sentinel


@dataclass(frozen=True)
class ChainLink:
    effect: str
    source: Loc
    targets: tuple[Loc, ...] = ()
    extras: tuple[int, ...] = ()


@dataclass(frozen=True)
class DrawCard:
    player: int


@dataclass(frozen=True)
class NormalSummon:
    player: int
    card: int
    zone: int
    face_up: bool = True
    tributes: tuple[int, ...] = ()


@dataclass(frozen=True)
class SetSpellTrap:
    player: int
    card: int
    zone: int  # S/T index, or -1 for the field zone


@dataclass(frozen=True)
class ActivateEffect:
    player: int
    effect: str
    source: Loc
    targets: tuple[Loc, ...] = ()
    extras: tuple[int, ...] = ()
    chain: tuple[ChainLink, ...] = ()


@dataclass(frozen=True)
class FlipSummon:
    player: int
    zone: int
    recover: Optional[Loc] = None  # flip-effect choice, if any


@dataclass(frozen=True)
class ChangeEquipTarget:
    player: int
    equip: Loc
    new_target: Loc


@dataclass(frozen=True)
class DeclareAttack:
    player: int
    attacker: Loc
    target: Loc  # DIRECT for a direct attack


@dataclass(frozen=True)
class AdvancePhase:
    player: int


@dataclass(frozen=True)
class DiscardToLimit:
    player: int
    cards: tuple[int, ...] = ()


@dataclass(frozen=True)
class Pass:
    player: int


Move = Union[DrawCard, NormalSummon, SetSpellTrap, ActivateEffect, FlipSummon,
             ChangeEquipTarget, DeclareAttack, AdvancePhase, DiscardToLimit, Pass]

# --- integer codec: a move's code pairs its tag, its record's index in
# _CODES, with the sequence code of its fields in layout order.

_PLAYER = [("player", NAT)]
_EFFECT = [("effect", TEXT), ("source", LOC), ("targets", Seq(LOC)), ("extras", Seq(NAT))]
_CODES = [
    Record(DrawCard, _PLAYER),
    Record(NormalSummon, _PLAYER + [("card", NAT), ("zone", NAT), ("face_up", FLAG),
                                    ("tributes", Seq(NAT))]),
    Record(SetSpellTrap, _PLAYER + [("card", NAT), ("zone", Int(shift=1))]),
    Record(ActivateEffect, _PLAYER + _EFFECT + [("chain", Seq(Record(ChainLink, _EFFECT)))]),
    Record(FlipSummon, _PLAYER + [("zone", NAT), ("recover", Maybe(LOC))]),
    Record(ChangeEquipTarget, _PLAYER + [("equip", LOC), ("new_target", LOC)]),
    Record(DeclareAttack, _PLAYER + [("attacker", LOC), ("target", LOC)]),
    Record(AdvancePhase, _PLAYER),
    Record(DiscardToLimit, _PLAYER + [("cards", Seq(NAT))]),
    Record(Pass, _PLAYER),
]
_TAG_OF = {record.cls: (tag, record) for tag, record in enumerate(_CODES)}


def encode_move(move: Move) -> int:
    tag, record = _TAG_OF[type(move)]
    return pair(tag, record.encode(move))


def decode_move(code: int) -> Move:
    if code < 0:
        raise MalformedCode("move codes are naturals")
    tag, rest = unpair(code)
    if tag >= len(_CODES):
        raise MalformedCode(f"unknown move tag {tag}")
    return _CODES[tag].decode(rest)


def render_move(move: Move) -> str:
    p = f"P{move.player + 1}"
    if isinstance(move, DrawCard):
        return f"{p} draws"
    if isinstance(move, NormalSummon):
        how = "summons" if move.face_up else "sets"
        trib = f" tributing {len(move.tributes)}" if move.tributes else ""
        return f"{p} {how} {card_name(move.card)}{trib}"
    if isinstance(move, SetSpellTrap):
        where = "field zone" if move.zone == -1 else f"S/T {move.zone}"
        return f"{p} sets {card_name(move.card)} ({where})"
    if isinstance(move, ActivateEffect):
        chain = f" chaining {len(move.chain)}" if move.chain else ""
        return f"{p} activates {move.effect}{chain}"
    if isinstance(move, FlipSummon):
        return f"{p} flip summons zone {move.zone}"
    if isinstance(move, ChangeEquipTarget):
        return f"{p} re-equips {move.equip} -> {move.new_target}"
    if isinstance(move, DeclareAttack):
        tgt = "directly" if move.target == DIRECT else f"zone {move.target}"
        return f"{p} attacks {tgt} with {move.attacker}"
    if isinstance(move, AdvancePhase):
        return f"{p} advances phase"
    if isinstance(move, DiscardToLimit):
        return f"{p} discards {len(move.cards)} to hand limit"
    if isinstance(move, Pass):
        return f"{p} passes"
    return repr(move)
