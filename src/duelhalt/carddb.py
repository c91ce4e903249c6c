"""Card specifications and deck lists for the construction set.

Exactly the cards the two construction decks use, frozen as a snapshot.
Effects are referenced by identifier only; the engine module owns their
semantics.  Lookup is normalized, and known spelling variants resolve to
one spec through aliases.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .errors import DeckParseError, IllegalDeck, UnknownCard


class Kind(enum.Enum):
    NORMAL_MONSTER = "normal monster"
    EFFECT_MONSTER = "effect monster"
    FLIP_MONSTER = "flip monster"
    FUSION_MONSTER = "fusion monster"
    LINK_MONSTER = "link monster"
    NORMAL_SPELL = "normal spell"
    CONTINUOUS_SPELL = "continuous spell"
    EQUIP_SPELL = "equip spell"
    FIELD_SPELL = "field spell"
    QUICKPLAY_SPELL = "quick-play spell"
    NORMAL_TRAP = "normal trap"
    CONTINUOUS_TRAP = "continuous trap"


MONSTER_KINDS = {
    Kind.NORMAL_MONSTER,
    Kind.EFFECT_MONSTER,
    Kind.FLIP_MONSTER,
    Kind.FUSION_MONSTER,
    Kind.LINK_MONSTER,
}
SPELL_KINDS = {
    Kind.NORMAL_SPELL,
    Kind.CONTINUOUS_SPELL,
    Kind.EQUIP_SPELL,
    Kind.FIELD_SPELL,
    Kind.QUICKPLAY_SPELL,
}
TRAP_KINDS = {Kind.NORMAL_TRAP, Kind.CONTINUOUS_TRAP}
EXTRA_DECK_KINDS = {Kind.FUSION_MONSTER, Kind.LINK_MONSTER}


@dataclass(frozen=True)
class Stats:
    atk: int
    def_: int
    level: int


@dataclass(frozen=True)
class CardSpec:
    id: int
    name: str
    kind: Kind
    stats: Optional[Stats] = None
    effects: tuple[str, ...] = ()
    copy_limit: int = 3
    aliases: tuple[str, ...] = ()

    @property
    def is_monster(self) -> bool:
        return self.kind in MONSTER_KINDS

    @property
    def is_spell(self) -> bool:
        return self.kind in SPELL_KINDS

    @property
    def is_trap(self) -> bool:
        return self.kind in TRAP_KINDS


def _norm(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", " ", name.lower()).strip()


_CARD_ROWS = [
    # (name, kind, stats, effects, copy_limit, aliases)
    ("Protector of the Sanctuary", Kind.EFFECT_MONSTER, Stats(800, 1500, 4),
     ("protector_draw_lock",), 1, ()),
    ("Morphing Jar", Kind.FLIP_MONSTER, Stats(700, 600, 2),
     ("morphing_jar_wipe",), 1, ()),
    ("Yata-Garasu", Kind.EFFECT_MONSTER, Stats(200, 100, 2),
     ("yata_spirit_bounce", "yata_draw_skip"), 1, ()),
    ("Vanity's Ruler", Kind.EFFECT_MONSTER, Stats(2400, 1600, 6),
     ("vanity_no_special",), 1, ()),
    ("Endymion, the Master Magician", Kind.EFFECT_MONSTER, Stats(2700, 1700, 7),
     ("endymion_counter_summon", "endymion_recycle"), 1, ()),
    ("Magician of Faith", Kind.FLIP_MONSTER, Stats(300, 400, 1),
     ("mof_recover_spell",), 3, ()),
    ("Mask of Darkness", Kind.FLIP_MONSTER, Stats(900, 400, 2),
     ("mod_recover_trap",), 1, ()),
    ("Double Summon", Kind.NORMAL_SPELL, None, ("double_summon_extra",), 3, ()),
    ("Pot of Benevolence", Kind.NORMAL_SPELL, None, ("pob_return_two",), 3, ()),
    ("Gold Moon Coin", Kind.NORMAL_SPELL, None, ("gmc_gift",), 3, ()),
    ("Soul Release", Kind.NORMAL_SPELL, None, ("soul_release_banish",), 3, ()),
    ("Rain of Mercy", Kind.NORMAL_SPELL, None, ("rain_of_mercy_gain",), 3, ()),
    ("Upstart Goblin", Kind.NORMAL_SPELL, None, ("upstart_draw",), 3, ()),
    ("Mystical Space Typhoon", Kind.QUICKPLAY_SPELL, None, ("mst_destroy",), 1, ()),
    ("Pot of Desires", Kind.NORMAL_SPELL, None, ("pot_desires",), 1, ()),
    ("Pot of Duality", Kind.NORMAL_SPELL, None, ("pot_duality",), 1, ()),
    ("Offerings to the Doomed", Kind.QUICKPLAY_SPELL, None,
     ("offerings_destroy_skip",), 1, ()),
    ("Magical Citadel of Endymion", Kind.FIELD_SPELL, None,
     ("citadel_counters",), 1, ("Magical Cytadel of Endymion",)),
    ("Temple of the Kings", Kind.CONTINUOUS_SPELL, None,
     ("temple_trap_allowance",), 1, ()),
    ("Bait Doll", Kind.NORMAL_SPELL, None, ("bait_doll_force",), 1, ()),
    ("Book of Eclipse", Kind.NORMAL_SPELL, None, ("boe_flip_all",), 1, ()),
    ("Soul Drain", Kind.CONTINUOUS_TRAP, None, ("soul_drain_gy_lock",), 1, ()),
    ("Desert Sunlight", Kind.NORMAL_TRAP, None, ("desert_sunlight_flip_up",), 2, ()),
    ("Localized Tornado", Kind.NORMAL_TRAP, None, ("tornado_recycle",), 3, ()),
    ("Massivemorph", Kind.CONTINUOUS_TRAP, None, ("massivemorph_boost",), 2, ()),
    ("Pole Position", Kind.CONTINUOUS_TRAP, None, ("pole_position_immunity",), 1, ()),
    ("Gift Card", Kind.NORMAL_TRAP, None, ("gift_card_gain",), 2, ()),
    ("Flint Lock", Kind.EFFECT_MONSTER, Stats(1500, 800, 4),
     ("flintlock_retarget",), 2, ()),
    ("Odd-Eyes Pendulum Dragon", Kind.EFFECT_MONSTER, Stats(2500, 2000, 7),
     (), 1, ()),
    ("Clara & Rushka, the Ventriloduo", Kind.LINK_MONSTER, Stats(1000, 0, 1),
     ("clara_link_summon",), 1, ("Clara and Rushka, the Ventriloduo",)),
    ("Starving Venemy Dragon", Kind.FUSION_MONSTER, Stats(2800, 2000, 7),
     ("svd_negate",), 1, ("Venemy Starving Dragon",)),
    ("Morale Boost", Kind.CONTINUOUS_SPELL, None, ("morale_boost_gain",), 1,
     ("Boost Morale",)),
    ("Mist Body", Kind.EQUIP_SPELL, None, ("mist_body_shield",), 1,
     ("Mist Boby",)),
    ("Magical Stone Excavation", Kind.NORMAL_SPELL, None,
     ("mse_discard_recover",), 1, ()),
    ("Attraffic Control", Kind.CONTINUOUS_SPELL, None, ("attraffic_control",), 1, ()),
    ("Creature Swap", Kind.NORMAL_SPELL, None, ("creature_swap",), 1, ()),
    ("Polymerization", Kind.NORMAL_SPELL, None, ("polymerization_fuse",), 1, ()),
    ("Flint", Kind.EQUIP_SPELL, None, ("flint_lockdown",), 1, ()),
    ("Raigeki", Kind.NORMAL_SPELL, None, ("raigeki_wipe",), 1, ()),
    ("Give and Take", Kind.NORMAL_TRAP, None, ("give_and_take",), 3, ()),
    ("Reverse Reuse", Kind.NORMAL_TRAP, None, ("reverse_reuse",), 1, ()),
]

CARDS: tuple[CardSpec, ...] = tuple(
    CardSpec(i, name, kind, stats, effects, limit, aliases)
    for i, (name, kind, stats, effects, limit, aliases) in enumerate(_CARD_ROWS)
)

_BY_NORM: dict[str, CardSpec] = {}
for _spec in CARDS:
    for _n in (_spec.name,) + _spec.aliases:
        _BY_NORM[_norm(_n)] = _spec

_BY_NAME = {spec.name: spec for spec in CARDS}

# Sentinel id for the opponent's filler deck.  Not a CardSpec: the
# constructions work whatever the opponent brought, so the referee models
# their pile as uniform vanilla placeholders that never act.
FILLER = len(CARDS)
FILLER_NAME = "(filler vanilla)"


def lookup(name: str) -> CardSpec:
    """Name -> spec, case- and punctuation-insensitive."""
    spec = _BY_NORM.get(_norm(name))
    if spec is None:
        raise UnknownCard(f"no card named {name!r}")
    return spec


def by_id(card_id: int) -> CardSpec:
    if 0 <= card_id < len(CARDS):
        return CARDS[card_id]
    raise UnknownCard(f"card id {card_id}")


def card_name(card_id: int) -> str:
    if card_id == FILLER:
        return FILLER_NAME
    return by_id(card_id).name


# kind predicates on ids; the filler is a vanilla monster
def is_monster_id(card_id: int) -> bool:
    return card_id == FILLER or by_id(card_id).is_monster


def is_spell_id(card_id: int) -> bool:
    return card_id != FILLER and by_id(card_id).is_spell


def is_trap_id(card_id: int) -> bool:
    return card_id != FILLER and by_id(card_id).is_trap


# the card ids, for the engine, the scripts and the strategies to name
PROTECTOR = _BY_NAME["Protector of the Sanctuary"].id
MORPHING_JAR = _BY_NAME["Morphing Jar"].id
YATA = _BY_NAME["Yata-Garasu"].id
VANITY = _BY_NAME["Vanity's Ruler"].id
ENDYMION = _BY_NAME["Endymion, the Master Magician"].id
MOF = _BY_NAME["Magician of Faith"].id
MOD = _BY_NAME["Mask of Darkness"].id
DBLSUM = _BY_NAME["Double Summon"].id
POB = _BY_NAME["Pot of Benevolence"].id
GMC = _BY_NAME["Gold Moon Coin"].id
SOULREL = _BY_NAME["Soul Release"].id
RAINMERCY = _BY_NAME["Rain of Mercy"].id
UPSTART = _BY_NAME["Upstart Goblin"].id
MST = _BY_NAME["Mystical Space Typhoon"].id
POD = _BY_NAME["Pot of Desires"].id
POTDUAL = _BY_NAME["Pot of Duality"].id
OFFERINGS = _BY_NAME["Offerings to the Doomed"].id
CITADEL = _BY_NAME["Magical Citadel of Endymion"].id
TEMPLE = _BY_NAME["Temple of the Kings"].id
BAIT_DOLL = _BY_NAME["Bait Doll"].id
BOE = _BY_NAME["Book of Eclipse"].id
SOUL_DRAIN = _BY_NAME["Soul Drain"].id
DESERT_SUNLIGHT = _BY_NAME["Desert Sunlight"].id
TORNADO = _BY_NAME["Localized Tornado"].id
MASSIVEMORPH = _BY_NAME["Massivemorph"].id
POLE_POSITION = _BY_NAME["Pole Position"].id
GIFTCARD = _BY_NAME["Gift Card"].id
FLINT_LOCK = _BY_NAME["Flint Lock"].id
ODD_EYES = _BY_NAME["Odd-Eyes Pendulum Dragon"].id
CLARA = _BY_NAME["Clara & Rushka, the Ventriloduo"].id
SVD = _BY_NAME["Starving Venemy Dragon"].id
MORALE_BOOST = _BY_NAME["Morale Boost"].id
MIST_BODY = _BY_NAME["Mist Body"].id
MSE = _BY_NAME["Magical Stone Excavation"].id
ATTRAFFIC = _BY_NAME["Attraffic Control"].id
CREATSWAP = _BY_NAME["Creature Swap"].id
POLY = _BY_NAME["Polymerization"].id
FLINT = _BY_NAME["Flint"].id
RAIGEKI = _BY_NAME["Raigeki"].id
GAT = _BY_NAME["Give and Take"].id
REVREUSE = _BY_NAME["Reverse Reuse"].id


@dataclass(frozen=True)
class DeckList:
    main: tuple[int, ...]
    extra: tuple[int, ...] = ()
    allow_filler: bool = field(default=False, compare=False)

    def validate(self) -> None:
        if not 40 <= len(self.main) <= 60:
            raise IllegalDeck(f"main deck has {len(self.main)} cards, need 40-60")
        if len(self.extra) > 15:
            raise IllegalDeck(f"extra deck has {len(self.extra)} cards, max 15")
        counts = Counter(self.main) + Counter(self.extra)
        for cid, n in counts.items():
            if cid == FILLER:
                if not self.allow_filler:
                    raise IllegalDeck("filler cards are only legal in the opponent proxy deck")
                continue
            spec = by_id(cid)
            if n > spec.copy_limit:
                raise IllegalDeck(f"{spec.name}: {n} copies exceeds limit {spec.copy_limit}")
        for cid in self.main:
            if cid != FILLER and by_id(cid).kind in EXTRA_DECK_KINDS:
                raise IllegalDeck(f"{card_name(cid)} belongs in the extra deck")
        for cid in self.extra:
            if cid == FILLER or by_id(cid).kind not in EXTRA_DECK_KINDS:
                raise IllegalDeck(f"{card_name(cid)} is not an extra-deck card")

    def count(self, name: str) -> int:
        cid = lookup(name).id
        return self.main.count(cid) + self.extra.count(cid)


def _ids(*entries: tuple[int, str]) -> tuple[int, ...]:
    out: list[int] = []
    for n, name in entries:
        out.extend([lookup(name).id] * n)
    return tuple(out)


def deck_a() -> DeckList:
    """The 43-card deck of the first construction."""
    main = _ids(
        (1, "Protector of the Sanctuary"),
        (1, "Morphing Jar"),
        (1, "Yata-Garasu"),
        (1, "Vanity's Ruler"),
        (1, "Endymion, the Master Magician"),
        (3, "Magician of Faith"),
        (1, "Mask of Darkness"),
        (3, "Double Summon"),
        (3, "Pot of Benevolence"),
        (1, "Gold Moon Coin"),
        (3, "Soul Release"),
        (3, "Rain of Mercy"),
        (3, "Upstart Goblin"),
        (1, "Mystical Space Typhoon"),
        (1, "Pot of Desires"),
        (1, "Pot of Duality"),
        (1, "Offerings to the Doomed"),
        (1, "Magical Citadel of Endymion"),
        (1, "Temple of the Kings"),
        (1, "Bait Doll"),
        (1, "Book of Eclipse"),
        (1, "Soul Drain"),
        (2, "Desert Sunlight"),
        (3, "Localized Tornado"),
        (1, "Massivemorph"),
        (1, "Pole Position"),
        (2, "Gift Card"),
    )
    deck = DeckList(main=main)
    deck.validate()
    return deck


def deck_b() -> DeckList:
    """The 48-card deck (46 main + 2 extra) of the second construction."""
    main = _ids(
        (1, "Protector of the Sanctuary"),
        (1, "Morphing Jar"),
        (1, "Yata-Garasu"),
        (1, "Vanity's Ruler"),
        (1, "Endymion, the Master Magician"),
        (2, "Flint Lock"),
        (2, "Magician of Faith"),
        (1, "Odd-Eyes Pendulum Dragon"),
        (1, "Mask of Darkness"),
        (2, "Double Summon"),
        (3, "Pot of Benevolence"),
        (1, "Mystical Space Typhoon"),
        (1, "Morale Boost"),
        (1, "Mist Body"),
        (3, "Gold Moon Coin"),
        (1, "Magical Stone Excavation"),
        (1, "Attraffic Control"),
        (1, "Creature Swap"),
        (1, "Polymerization"),
        (1, "Flint"),
        (1, "Raigeki"),
        (1, "Offerings to the Doomed"),
        (1, "Magical Citadel of Endymion"),
        (1, "Temple of the Kings"),
        (1, "Bait Doll"),
        (1, "Upstart Goblin"),
        (1, "Book of Eclipse"),
        (1, "Soul Drain"),
        (1, "Desert Sunlight"),
        (3, "Localized Tornado"),
        (3, "Give and Take"),
        (1, "Reverse Reuse"),
        (1, "Pole Position"),
        (2, "Massivemorph"),
    )
    extra = _ids(
        (1, "Clara & Rushka, the Ventriloduo"),
        (1, "Starving Venemy Dragon"),
    )
    deck = DeckList(main=main, extra=extra)
    deck.validate()
    return deck


def filler_deck() -> DeckList:
    """Opponent proxy: a deck of 40 indistinct vanilla placeholders."""
    return DeckList(main=(FILLER,) * 40, allow_filler=True)


# --- deck-list text format ---

def parse_decklist(text: str) -> DeckList:
    """Parse ``<count><TAB><name>`` lines under [main] / [extra] headers."""
    main: list[int] = []
    extra: list[int] = []
    section: Optional[list[int]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower() == "[main]":
            section = main
            continue
        if line.lower() == "[extra]":
            section = extra
            continue
        if section is None:
            raise DeckParseError("entry before [main]/[extra] header", lineno)
        parts = raw.split("\t")
        if len(parts) != 2:
            raise DeckParseError("expected '<count><TAB><card name>'", lineno)
        try:
            count = int(parts[0])
        except ValueError:
            raise DeckParseError(f"bad count {parts[0]!r}", lineno) from None
        if count < 1:
            raise DeckParseError("count must be positive", lineno)
        try:
            spec = lookup(parts[1].strip())
        except UnknownCard:
            raise DeckParseError(f"unknown card {parts[1].strip()!r}", lineno) from None
        section.extend([spec.id] * count)
    deck = DeckList(main=tuple(main), extra=tuple(extra))
    try:
        deck.validate()
    except IllegalDeck as exc:
        raise DeckParseError(str(exc)) from None
    return deck


def format_decklist(deck: DeckList) -> str:
    lines = ["[main]"]
    for cid, n in sorted(Counter(deck.main).items()):
        lines.append(f"{n}\t{card_name(cid)}")
    if deck.extra:
        lines.append("[extra]")
        for cid, n in sorted(Counter(deck.extra).items()):
            lines.append(f"{n}\t{card_name(cid)}")
    return "\n".join(lines) + "\n"
