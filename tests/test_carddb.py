import pytest

from duelhalt.carddb import (
    CARDS,
    DeckList,
    Kind,
    deck_a,
    deck_b,
    filler_deck,
    format_decklist,
    lookup,
    parse_decklist,
)
from duelhalt.engine.rules import EFFECTS
from duelhalt.errors import DeckParseError, IllegalDeck, UnknownCard


def test_lookup_exact_and_normalized():
    spec = lookup("Yata-Garasu")
    assert spec.kind == Kind.EFFECT_MONSTER
    assert lookup("yata garasu") is spec
    assert lookup("YATA-GARASU!!") is spec


def test_lookup_alias_spelling_variant():
    assert lookup("Magical Cytadel of Endymion").name == "Magical Citadel of Endymion"


def test_lookup_outside_construction_set():
    with pytest.raises(UnknownCard):
        lookup("Blue-Eyes White Dragon")


def test_names_unique_ids_dense():
    names = [c.name for c in CARDS]
    assert len(set(names)) == len(names)
    assert [c.id for c in CARDS] == list(range(len(CARDS)))


def test_monsters_have_stats_spells_do_not():
    for spec in CARDS:
        if spec.is_monster:
            assert spec.stats is not None, spec.name
        else:
            assert spec.stats is None, spec.name


def test_deck_a_counts():
    deck = deck_a()
    assert len(deck.main) == 43
    assert len(deck.extra) == 0
    assert deck.count("Magician of Faith") == 3
    deck.validate()


def test_deck_b_counts():
    deck = deck_b()
    assert len(deck.main) == 46
    assert len(deck.extra) == 2
    assert len(deck.main) + len(deck.extra) == 48
    assert deck.count("Give and Take") == 3
    extra_names = sorted(lookup_name(cid) for cid in deck.extra)
    assert extra_names == ["Clara & Rushka, the Ventriloduo", "Starving Venemy Dragon"]


def lookup_name(cid):
    return CARDS[cid].name


def test_flint_monster_and_spell_are_distinct():
    lock = lookup("Flint Lock")
    equip = lookup("Flint")
    assert lock.id != equip.id
    assert lock.is_monster and equip.kind == Kind.EQUIP_SPELL


def test_copy_limit_enforced():
    four = tuple([lookup("Magician of Faith").id] * 4)
    deck = DeckList(main=four + deck_a().main[: 40 - 4])
    with pytest.raises(IllegalDeck):
        deck.validate()


def test_deck_size_bounds():
    with pytest.raises(IllegalDeck):
        DeckList(main=deck_a().main[:39]).validate()


def test_decklist_text_roundtrip():
    deck = deck_b()
    text = format_decklist(deck)
    parsed = parse_decklist(text)
    assert sorted(parsed.main) == sorted(deck.main)
    assert sorted(parsed.extra) == sorted(deck.extra)


def test_decklist_parse_errors_carry_line_numbers():
    with pytest.raises(DeckParseError) as err:
        parse_decklist("[main]\n3\tNo Such Card\n")
    assert "line 2" in str(err.value)
    with pytest.raises(DeckParseError):
        parse_decklist("3\tYata-Garasu\n")  # entry before a section header


def test_filler_deck_is_proxy_only():
    filler = filler_deck()
    filler.validate()
    real = DeckList(main=filler.main)
    with pytest.raises(IllegalDeck):
        real.validate()


def test_lookup_roundtrip_every_spec():
    for spec in CARDS:
        assert lookup(spec.name) is spec


# the effects the engine implements outside EFFECTS: flip triggers, End
# Phase events, the draw and summon locks and Flint Lock's retarget move
_PASSIVE = {"endymion_recycle", "flintlock_retarget", "mod_recover_trap", "mof_recover_spell",
            "morphing_jar_wipe", "protector_draw_lock", "vanity_no_special", "yata_draw_skip",
            "yata_spirit_bounce"}


def test_every_listed_effect_is_a_row_or_implemented_elsewhere():
    # a misspelled effect name would leave its card inert, with no error
    listed = {effect for spec in CARDS for effect in spec.effects}
    assert listed - set(EFFECTS) == _PASSIVE


def test_every_effect_row_is_listed_by_a_card():
    listed = {effect for spec in CARDS for effect in spec.effects}
    assert set(EFFECTS) <= listed
