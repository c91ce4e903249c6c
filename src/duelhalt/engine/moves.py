"""Move types, integer coding, and rendering.

Every move knows its mover.  Codes go tag-then-parameters through the
shared pairing/sequence machinery so a whole run can be replayed from
integers alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..carddb import card_name
from ..coding import pair, seq_decode, seq_encode, unpair
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


Move = Union[
    DrawCard,
    NormalSummon,
    SetSpellTrap,
    ActivateEffect,
    FlipSummon,
    ChangeEquipTarget,
    DeclareAttack,
    AdvancePhase,
    DiscardToLimit,
    Pass,
]

_TAGS = [
    DrawCard,
    NormalSummon,
    SetSpellTrap,
    ActivateEffect,
    FlipSummon,
    ChangeEquipTarget,
    DeclareAttack,
    AdvancePhase,
    DiscardToLimit,
    Pass,
]
_TAG_OF = {cls: i for i, cls in enumerate(_TAGS)}


def _flat_loc(loc: Loc) -> list[int]:
    return [loc[0], loc[1], loc[2]]


def _flat_opt_loc(loc: Optional[Loc]) -> list[int]:
    return [0] if loc is None else [1, *_flat_loc(loc)]


def _effect_nums(s: str) -> list[int]:
    bs = s.encode("ascii")
    return [len(bs), *bs]


def encode_move(move: Move) -> int:
    tag = _TAG_OF[type(move)]
    params: list[int] = [move.player]
    if isinstance(move, DrawCard) or isinstance(move, AdvancePhase) or isinstance(move, Pass):
        pass
    elif isinstance(move, NormalSummon):
        params += [move.card, move.zone, 1 if move.face_up else 0,
                   len(move.tributes), *move.tributes]
    elif isinstance(move, SetSpellTrap):
        params += [move.card, move.zone + 1]
    elif isinstance(move, ActivateEffect):
        params += _effect_nums(move.effect)
        params += _flat_loc(move.source)
        params.append(len(move.targets))
        for t in move.targets:
            params += _flat_loc(t)
        params.append(len(move.extras))
        params += list(move.extras)
        params.append(len(move.chain))
        for link in move.chain:
            params += _effect_nums(link.effect)
            params += _flat_loc(link.source)
            params.append(len(link.targets))
            for t in link.targets:
                params += _flat_loc(t)
            params.append(len(link.extras))
            params += list(link.extras)
    elif isinstance(move, FlipSummon):
        params += [move.zone, *_flat_opt_loc(move.recover)]
    elif isinstance(move, ChangeEquipTarget):
        params += _flat_loc(move.equip) + _flat_loc(move.new_target)
    elif isinstance(move, DeclareAttack):
        params += _flat_loc(move.attacker) + _flat_loc(move.target)
    elif isinstance(move, DiscardToLimit):
        params += [len(move.cards), *move.cards]
    return pair(tag, seq_encode(params))


class _R:
    def __init__(self, vals):
        self.vals = list(vals)
        self.i = 0

    def take(self):
        if self.i >= len(self.vals):
            raise MalformedCode("truncated move code")
        v = self.vals[self.i]
        self.i += 1
        return v

    def loc(self) -> Loc:
        return (self.take(), self.take(), self.take())

    def effect(self) -> str:
        n = self.take()
        try:
            return bytes(self.take() for _ in range(n)).decode("ascii")
        except (ValueError, UnicodeDecodeError) as exc:
            raise MalformedCode(str(exc)) from None


def decode_move(code: int) -> Move:
    if code < 0:
        raise MalformedCode("move codes are naturals")
    tag, rest = unpair(code)
    if not 0 <= tag < len(_TAGS):
        raise MalformedCode(f"unknown move tag {tag}")
    try:
        vals = seq_decode(rest)
    except ValueError as exc:
        raise MalformedCode(str(exc)) from None
    r = _R(vals)
    player = r.take()
    cls = _TAGS[tag]
    if cls is DrawCard or cls is AdvancePhase or cls is Pass:
        return cls(player)
    if cls is NormalSummon:
        card, zone, face = r.take(), r.take(), r.take()
        tributes = tuple(r.take() for _ in range(r.take()))
        return NormalSummon(player, card, zone, face == 1, tributes)
    if cls is SetSpellTrap:
        return SetSpellTrap(player, r.take(), r.take() - 1)
    if cls is ActivateEffect:
        effect = r.effect()
        source = r.loc()
        targets = tuple(r.loc() for _ in range(r.take()))
        extras = tuple(r.take() for _ in range(r.take()))
        links = []
        for _ in range(r.take()):
            eff = r.effect()
            src = r.loc()
            tgts = tuple(r.loc() for _ in range(r.take()))
            exs = tuple(r.take() for _ in range(r.take()))
            links.append(ChainLink(eff, src, tgts, exs))
        return ActivateEffect(player, effect, source, targets, extras, tuple(links))
    if cls is FlipSummon:
        zone = r.take()
        recover = r.loc() if r.take() == 1 else None
        return FlipSummon(player, zone, recover)
    if cls is ChangeEquipTarget:
        return ChangeEquipTarget(player, r.loc(), r.loc())
    if cls is DeclareAttack:
        return DeclareAttack(player, r.loc(), r.loc())
    if cls is DiscardToLimit:
        return DiscardToLimit(player, tuple(r.take() for _ in range(r.take())))
    raise MalformedCode("unreachable move tag")


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
