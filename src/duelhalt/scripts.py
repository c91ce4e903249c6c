"""The scripted legal lines: both board setups and the counter loops.

The deck orders are frozen constants.  Every step is validated by the
engine as it is recorded, so a ScriptBroken here always means an effect
encoding changed underneath the line, never a silent divergence.  The
exception is a repeated increment cycle, below.

All scripts speak from Player 1's side; the opponent's forced plays
(cards handed over mid-line) are recorded as ordinary legal moves for
Player 2, tagged only by their position in the line.

``play_cycles`` takes each increment cycle from the line's
``frame.LineTable``, moved under ``frame.transport``'s lemma or applied
and recorded; a strategy passes its own table to the lines it plans, and
any other line gets a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .carddb import (
    ATTRAFFIC, BAIT_DOLL, BOE, CITADEL, CLARA, CREATSWAP, DBLSUM, DESERT_SUNLIGHT, ENDYMION,
    FLINT, FLINT_LOCK, GAT, GIFTCARD, GMC, MASSIVEMORPH, MIST_BODY, MOD, MOF, MORALE_BOOST,
    MORPHING_JAR, MSE, MST, ODD_EYES, OFFERINGS, POB, POD, POLE_POSITION, POLY, POTDUAL,
    PROTECTOR, RAIGEKI, RAINMERCY, REVREUSE, SOULREL, SOUL_DRAIN, SVD, TEMPLE, TORNADO,
    UPSTART, VANITY, YATA, DeckList, by_id, card_name, deck_a, deck_b, filler_deck,
)
from .errors import (
    IllegalMove,
    InsufficientCounters,
    NotLoopReady,
    ScriptBroken,
    ZeroTarget,
)
from .engine import (
    ActivateEffect,
    Configuration,
    DeclareAttack,
    DiscardToLimit,
    DrawCard,
    DIRECT,
    FlipSummon,
    Move,
    NormalSummon,
    Pass,
    Phase,
    Run,
    SetSpellTrap,
    apply,
    initial_configuration,
    link,
)
from .engine.config import EXTRA, FZONE, GY, HAND, HAND_LIMIT, MZONE, SZONE
from .engine.frame import Copies, LineTable, repeats
from .engine.moves import ChainLink
from .engine.rules import flip_choice_extras, identity_order, make_bait_doll_move, spell_counters


@dataclass(frozen=True)
class ScriptResult:
    run: Run
    final: Configuration


class Line:
    """A cursor over a run from a start configuration, or at the end of a
    run it extends: each move is validated by the engine and links one
    node onto the run.  The increment cycles it plays are looked up in, and
    recorded into, the line table it is given (a fresh one by default)."""

    def __init__(self, start: Union[Configuration, Run], lines: Optional[LineTable] = None):
        self.run = start if isinstance(start, Run) else Run((start,), ())
        self.lines = LineTable() if lines is None else lines

    @property
    def conf(self) -> Configuration:
        return self.run.last()

    def do(self, move: Move) -> None:
        """Apply the move and link its result; the kernel's ``_prelude``
        refuses any move from a terminal, so none ends inside a line."""
        try:
            nxt = apply(self.conf, move)
        except IllegalMove as exc:
            raise ScriptBroken(len(self.run), f"{move!r}: {exc}") from exc
        self.run = link(self.run, nxt, move)

    def result(self) -> ScriptResult:
        return ScriptResult(self.run, self.conf)


# --- small locators ---------------------------------------------------------


def _gy_index(conf: Configuration, p: int, cid: int) -> int:
    gy = conf.players[p].gy
    for i in range(len(gy) - 1, -1, -1):
        if gy[i] == cid:
            return i
    raise ScriptBroken(-1, f"card {cid} not in graveyard of P{p+1}")


def _free_szone(conf: Configuration, p: int) -> int:
    for i, inst in enumerate(conf.players[p].spelltraps):
        if inst is None:
            return i
    raise ScriptBroken(-1, "no free spell/trap zone")


def _free_mzone(conf: Configuration, p: int) -> int:
    for i, inst in enumerate(conf.players[p].monsters):
        if inst is None:
            return i
    raise ScriptBroken(-1, "no free monster zone")


def _mzone_of(conf: Configuration, p: int, cid: int, face_up=None) -> int:
    for i, inst in enumerate(conf.players[p].monsters):
        if inst is not None and inst.card == cid:
            if face_up is None or inst.face_up == face_up:
                return i
    raise ScriptBroken(-1, f"monster {cid} not on P{p+1}'s field")


def _szone_of(conf: Configuration, p: int, cid: int) -> int:
    for i, inst in enumerate(conf.players[p].spelltraps):
        if inst is not None and inst.card == cid:
            return i
    raise ScriptBroken(-1, f"spell/trap {cid} not on P{p+1}'s field")


# one Pass per player, shared by every line's phase walks
_PASSES = (Pass(0), Pass(1))


def _pass_until(line: Line, pred) -> None:
    for _ in range(61):
        if pred(line.conf):
            return
        line.do(_PASSES[line.conf.priority])
    raise ScriptBroken(len(line.run), "phase walk did not converge")


def _to_phase(line: Line, phase: Phase) -> None:
    _pass_until(line, lambda c: c.phase == phase)


def _end_turn(line: Line) -> None:
    turn = line.conf.turn
    _pass_until(line, lambda c: c.turn > turn)


def _p1_turn(line: Line, actions, *, discard: tuple[int, ...] = (),
             stop_in_main: bool = False) -> None:
    """One Player 1 turn: draw, main actions, Yata attack, end."""
    conf = line.conf
    if conf.phase == Phase.DRAW and not conf.draw_done and conf.players[0].deck:
        line.do(DrawCard(0))
    _to_phase(line, Phase.MAIN1)
    for act in actions:
        act(line)
    if stop_in_main:
        return
    _yata_attack(line)
    _to_phase(line, Phase.END)
    if discard:
        line.do(DiscardToLimit(0, discard))
    _end_turn(line)


def _p2_turn(line: Line, actions=()) -> None:
    """The rest of the opponent's turn: scripted actions in their main
    phase, else passes, and at the end their first excess cards discarded."""
    _p2_draw(line)
    if actions:
        _to_phase(line, Phase.MAIN1)
        for act in actions:
            act(line)
    _p2_end(line)


def _p2_draw(line: Line) -> None:
    """The opponent's draw, when their turn is at a draw still to be made."""
    conf = line.conf
    assert conf.active == 1, "not the opponent's turn"
    if conf.phase == Phase.DRAW and not conf.draw_done and conf.players[1].deck:
        line.do(DrawCard(1))


def _p2_end(line: Line) -> None:
    """The opponent's passes to the end of their turn, their first excess
    cards discarded at the end."""
    _to_phase(line, Phase.END)
    excess = len(line.conf.players[1].hand) - HAND_LIMIT
    if excess > 0:
        line.do(DiscardToLimit(1, line.conf.players[1].hand[:excess]))
    _end_turn(line)


# action helpers (each returns a callable on the line)


def _summon_yata(line: Line) -> None:
    line.do(NormalSummon(0, YATA, _free_mzone(line.conf, 0), True))


def _yata_attack(line: Line) -> None:
    """Summon the spirit if it is in hand and attack directly with it."""
    if YATA in line.conf.players[0].hand:
        _summon_yata(line)
    _to_phase(line, Phase.BATTLE)
    zone = _mzone_of(line.conf, 0, YATA, face_up=True)
    line.do(DeclareAttack(0, (0, MZONE, zone), DIRECT))


def _set_st(cid, player=0):
    def act(line: Line):
        zone = -1 if by_id(cid).kind.value == "field spell" else _free_szone(line.conf, player)
        line.do(SetSpellTrap(player, cid, zone))
    return act


def _activate(cid, targets=(), extras=(), player=0, zone=HAND):
    """Activate the card's first effect from the hand or its spell/trap zone."""
    def act(line: Line):
        eff = by_id(cid).effects[0]
        idx = cid if zone == HAND else _szone_of(line.conf, player, cid)
        tg = targets(line.conf) if callable(targets) else targets
        ex = extras(line.conf) if callable(extras) else extras
        line.do(ActivateEffect(player, eff, (player, zone, idx), tuple(tg), tuple(ex)))
    return act


def _flip(zone_cid, recover_cid=None):
    def act(line: Line):
        zone = _mzone_of(line.conf, 0, zone_cid, face_up=False)
        recover = None
        if recover_cid is not None:
            recover = (0, GY, _gy_index(line.conf, 0, recover_cid))
        line.do(FlipSummon(0, zone, recover))
    return act


def _double_summon_from_hand(line: Line) -> None:
    line.do(ActivateEffect(0, "double_summon_extra", (0, HAND, DBLSUM)))


# --- deck A ------------------------------------------------------------------


def deck_a_order() -> tuple[int, ...]:
    """Frozen permutation of deck_a's main pile for the scripted line."""
    want = [
        # opening hand
        DBLSUM, PROTECTOR, MORPHING_JAR, SOUL_DRAIN, DESERT_SUNLIGHT,
        # Morphing Jar draw
        YATA, VANITY, DBLSUM, POB, POB,
        # singles
        POB,        # t3
        OFFERINGS,  # t5  (draws skip t7)
        DBLSUM,     # t9
        MOF,        # t11
        MOF,        # t13
        MOD,        # t15
        MASSIVEMORPH,  # t17
        POLE_POSITION,  # t19
        GMC,        # t21
        ENDYMION,   # t23
        BOE,        # t25
        MST,        # t27
        SOULREL,    # t29
        POD,        # t31
        # the ten cards Pot of Desires banishes face-down
        MOF, SOULREL, SOULREL, RAINMERCY, RAINMERCY, RAINMERCY,
        POTDUAL, TORNADO, TORNADO, GIFTCARD,
        # Pot of Desires' two draws
        CITADEL, TEMPLE,
        # tail
        UPSTART,    # t33
        UPSTART,    # drawn by the first Upstart Goblin
        UPSTART,    # t35
        BAIT_DOLL,  # drawn by the second Upstart Goblin
        DESERT_SUNLIGHT,  # t37, held
        GIFTCARD,   # t39, held through the hand-limit discard
        TORNADO,    # t41 (the last card)
    ]
    return _order_for(deck_a(), want)


def _order_for(deck: DeckList, want: list[int]) -> tuple[int, ...]:
    pool = list(deck.main)
    used = [False] * len(pool)
    order = []
    for cid in want:
        for i, c in enumerate(pool):
            if c == cid and not used[i]:
                used[i] = True
                order.append(i)
                break
        else:
            raise ScriptBroken(-1, f"deck order wants a missing copy of {cid}")
    order.extend(i for i in range(len(pool)) if not used[i])
    return tuple(order)


def _opening(line: Line) -> None:
    for _ in range(5):
        line.do(DrawCard(0))
    for _ in range(5):
        line.do(DrawCard(1))
    line.do(Pass(0))


def _turn1(line: Line) -> None:
    _to_phase(line, Phase.MAIN1)
    line.do(NormalSummon(0, PROTECTOR, 0, False))
    _double_summon_from_hand(line)
    line.do(NormalSummon(0, MORPHING_JAR, 1, False))
    line.do(SetSpellTrap(0, SOUL_DRAIN, 0))
    line.do(SetSpellTrap(0, DESERT_SUNLIGHT, 1))
    _end_turn(line)


def _turn2_wipe(line: Line) -> None:
    # opponent's first turn: they draw; in their standby we spring the
    # Desert Sunlight + Soul Drain chain and Morphing Jar wipes the hands
    line.do(DrawCard(1))
    line.do(Pass(1))     # draw-phase window offered to us
    line.do(Pass(0))     # decline; standby begins
    line.do(Pass(1))     # opponent passes standby; our window
    ds_zone = _szone_of(line.conf, 0, DESERT_SUNLIGHT)
    sd_zone = _szone_of(line.conf, 0, SOUL_DRAIN)
    line.do(ActivateEffect(
        0, "desert_sunlight_flip_up", (0, SZONE, ds_zone),
        chain=(ChainLink("soul_drain_gy_lock", (0, SZONE, sd_zone)),),
    ))
    _end_turn(line)


def _t3_lock(line: Line) -> None:
    prot = _mzone_of(line.conf, 0, PROTECTOR)
    line.do(NormalSummon(0, VANITY, prot, True, (prot,)))
    _double_summon_from_hand(line)
    _summon_yata(line)
    for _ in range(3):
        line.do(ActivateEffect(0, "pob_return_two", (0, HAND, POB),
                               targets=((1, GY, 0), (1, GY, 1))))


def _double_then_set(cid: int, flip=()):
    """Flip (monster, recovery) first when given, then activate Double
    Summon, summon the spirit and set cid."""
    def act(line: Line):
        if flip:
            _flip(*flip)(line)
        _double_summon_from_hand(line)
        _summon_yata(line)
        line.do(NormalSummon(0, cid, _free_mzone(line.conf, 0), False))
    return act


def _opening_turns(deck: DeckList, order: tuple[int, ...]) -> Line:
    """Turns 1 to 8, which both setups share: the opening, the hand wipe,
    the draw lock and the skipped draw."""
    line = Line(initial_configuration(deck, filler_deck(), order, identity_order(filler_deck())))
    _opening(line)
    _turn1(line)
    _turn2_wipe(line)
    _p1_turn(line, [_t3_lock])                       # t3
    _p2_turn(line)
    _p1_turn(line, [_activate(OFFERINGS, targets=lambda c: (
        (0, MZONE, _mzone_of(c, 0, MORPHING_JAR)),))])   # t5; skips our t7 draw
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                   # t7 (no draw)
    _p2_turn(line)
    return line


def setup_run_a() -> ScriptResult:
    """Replay of the first construction's whole setup line."""
    line = _opening_turns(deck_a(), deck_a_order())

    def hold(_line):
        pass

    # t9..t15: bank a Double Summon, then roll out the flip monsters,
    # recycling the same Double Summon through each Magician of Faith
    _p1_turn(line, [hold, _summon_yata])             # t9: hold Double Summon
    _p2_turn(line)
    _p1_turn(line, [_double_then_set(MOF)])          # t11
    _p2_turn(line)
    _p1_turn(line, [_double_then_set(MOF, flip=(MOF, DBLSUM))])  # t13
    _p2_turn(line)
    _p1_turn(line, [_double_then_set(MOD, flip=(MOF, DBLSUM))])  # t15
    _p2_turn(line)
    _p1_turn(line, [lambda l: _flip(MOD, None)(l), _summon_yata])  # t17: hold Massivemorph
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                   # t19: hold Pole Position
    _p2_turn(line)
    _p1_turn(line, [_activate(GMC, targets=(
        (0, HAND, MASSIVEMORPH), (0, HAND, POLE_POSITION))), _summon_yata])  # t21
    _p2_turn(line, actions=[_set_st(MASSIVEMORPH, player=1), _set_st(POLE_POSITION, player=1)])
    _p1_turn(line, [_summon_yata])                   # t23: hold Endymion
    _p2_turn(line, actions=[
        _activate(MASSIVEMORPH, zone=SZONE, player=1,
                  targets=lambda c: ((0, MZONE, _mzone_of(c, 0, VANITY)),)),
        _activate(POLE_POSITION, zone=SZONE, player=1),
    ])
    _p1_turn(line, [_summon_yata])                   # t25: hold Book of Eclipse
    _p2_turn(line)
    _p1_turn(line, [_activate(MST, targets=lambda c: (
        (0, SZONE, _szone_of(c, 0, SOUL_DRAIN)),)), _summon_yata])  # t27
    _p2_turn(line)

    def soul_release(line: Line) -> None:
        conf = line.conf
        targets = tuple(
            (0, GY, _gy_index(conf, 0, cid))
            for cid in (PROTECTOR, MORPHING_JAR, SOUL_DRAIN, DESERT_SUNLIGHT, MST)
        )
        line.do(ActivateEffect(0, "soul_release_banish", (0, HAND, SOULREL),
                               targets=targets))

    _p1_turn(line, [soul_release, _summon_yata])     # t29
    _p2_turn(line)

    def pot_of_desires(line: Line) -> None:
        line.do(ActivateEffect(0, "pot_desires", (0, HAND, POD)))
        line.do(SetSpellTrap(0, CITADEL, -1))
        line.do(SetSpellTrap(0, TEMPLE, _free_szone(line.conf, 0)))

    _p1_turn(line, [pot_of_desires, _summon_yata])   # t31
    _p2_turn(line)
    _p1_turn(line, [_activate(UPSTART), _summon_yata])  # t33: draws Upstart #1
    _p2_turn(line)
    _p1_turn(line, [_activate(UPSTART), _summon_yata])  # t35: draws Bait Doll
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                   # t37: hold Desert Sunlight
    _p2_turn(line)
    _p1_turn(line, [_summon_yata], discard=(ENDYMION,))      # t39: hold Gift Card
    _p2_turn(line)

    def finale(line: Line) -> None:
        # the temple lets the freshly set Gift Card fire right away
        line.do(ActivateEffect(0, "temple_trap_allowance",
                               (0, SZONE, _szone_of(line.conf, 0, TEMPLE))))
        gc_zone = _free_szone(line.conf, 0)
        line.do(SetSpellTrap(0, GIFTCARD, gc_zone))
        line.do(ActivateEffect(0, "gift_card_gain", (0, SZONE, gc_zone)))
        line.do(SetSpellTrap(0, TORNADO, _free_szone(line.conf, 0)))
        line.do(ActivateEffect(0, "citadel_counters", (0, FZONE, 0)))

    _p1_turn(line, [finale], stop_in_main=True)      # t41: the board is reached
    return line.result()


# --- the counter loops -------------------------------------------------------


def _require_loop_ready(conf: Configuration, need_counters: int = 0) -> None:
    p1 = conf.players[0]
    if conf.active != 0 or conf.priority != 0 or conf.phase not in (Phase.MAIN1, Phase.MAIN2):
        raise NotLoopReady("needs Player 1's main phase")
    fz = p1.field_zone
    if fz is None or fz.card != CITADEL or not fz.face_up:
        raise NotLoopReady("Magical Citadel is not active")
    if need_counters and fz.counters < need_counters:
        raise InsufficientCounters(f"needs {need_counters} counters, have {fz.counters}")
    if need_counters == 0:
        for cid in (BOE, BAIT_DOLL, DESERT_SUNLIGHT):
            if cid not in p1.hand:
                raise NotLoopReady(f"loop card {cid} not in hand")
        if UPSTART not in p1.hand and UPSTART not in p1.gy:
            raise NotLoopReady("Upstart Goblin is out of the loop orbit")
        faces = [m.card for m in p1.monsters if m is not None and m.face_up]
        if faces.count(MOF) < 2 or MOD not in faces:
            raise NotLoopReady("flip monsters are not face-up on the field")


def increment_cycle_moves(line: Line) -> None:
    """Play the four-activation cycle worth +3 counters onto the line."""
    # after Book of Eclipse the flip monsters are face down; Desert
    # Sunlight (forced by Bait Doll) turns them back up and their flip
    # effects restock the hand from the graveyard
    line.do(ActivateEffect(0, "boe_flip_all", (0, HAND, BOE)))
    ds_zone = next((i for i, inst in enumerate(line.conf.players[0].spelltraps)
                    if inst is None), None)
    if ds_zone is None:
        raise NotLoopReady("no free spell/trap zone for Desert Sunlight")
    line.do(SetSpellTrap(0, DESERT_SUNLIGHT, ds_zone))
    p1 = line.conf.players[0]

    # plan the flip recoveries against the graveyard as it will stand when
    # the triggers resolve: Book of Eclipse and Bait Doll have been spent,
    # and Desert Sunlight reaches the graveyard before the triggers fire
    future_gy = list(p1.gy)
    future_gy.append(DESERT_SUNLIGHT)  # the spent trap lands before the triggers
    pairs = []
    zones = sorted(
        i for i, inst in enumerate(p1.monsters)
        if inst is not None and not inst.face_up and inst.card in (MOF, MOD)
    )
    mof_seen = 0
    for z in zones:
        inst = p1.monsters[z]
        if inst.card == MOF:
            want = BOE if mof_seen == 0 else (UPSTART if UPSTART in future_gy else None)
            mof_seen += 1
        else:
            want = DESERT_SUNLIGHT
        if want is None or want not in future_gy:
            pairs.append((z, None))
            continue
        idx = future_gy.index(want)
        pairs.append((z, idx))
        del future_gy[idx]
    extras = flip_choice_extras(pairs)
    line.do(make_bait_doll_move(0, (0, HAND, BAIT_DOLL), (0, SZONE, ds_zone), extras))
    line.do(ActivateEffect(0, "upstart_draw", (0, HAND, UPSTART)))


def increment_cycle(conf: Configuration) -> ScriptResult:
    """One full cycle: counters +3, loop cards back in their orbits."""
    _require_loop_ready(conf)
    line = Line(conf)
    play_cycles(line, 1, 0)
    return line.result()


def _summon_endymion(line: Line) -> int:
    """Summon the magician from the graveyard (-6); returns its zone."""
    conf = line.conf
    zone = _free_mzone(conf, 0)
    offerings = 1 + _gy_index(conf, 0, OFFERINGS) if OFFERINGS in conf.players[0].gy else 0
    line.do(ActivateEffect(0, "endymion_counter_summon", (0, GY, _gy_index(conf, 0, ENDYMION)),
                           extras=(zone, offerings)))
    return zone


def _offer_magician(line: Line, zone: int) -> None:
    """Offerings to the Doomed destroys the magician (+1, skips our draw)."""
    line.do(ActivateEffect(
        0, "offerings_destroy_skip", (0, HAND, OFFERINGS),
        targets=((0, MZONE, zone),),
    ))


def decrement_cycle(conf: Configuration) -> ScriptResult:
    """Summon the magician from the graveyard (-6), destroy it (+1)."""
    line = Line(conf)
    play_cycles(line, 0, 1)
    return line.result()


# Above every compact machine code: codes below tm's overflow base of
# 40,000 need at most about 13,400 increment cycles.
MAX_INCREMENT_CYCLES = 20_000
MAX_DECREMENT_CYCLES = 10_000


def cycle_plan(delta: int, min_decrements: int = 0) -> tuple[int, int]:
    """The cycle composition (a, b) that moves the counters by delta.

    a increment cycles (+3 each) and b decrement cycles (-5 each), with b
    the least value at or above min_decrements such that b = delta (mod 3)
    and 5b >= -delta; then a = (delta + 5b) / 3.
    """
    b = max(min_decrements, -(delta // 5))
    b += (delta - b) % 3
    a = (delta + 5 * b) // 3
    if a > MAX_INCREMENT_CYCLES or b > MAX_DECREMENT_CYCLES:
        # an increment cycle is four moves, a decrement cycle two
        raise NotLoopReady(f"a counter plan of {a} increment and {b} decrement cycles "
                           f"({4 * a + 2 * b} moves) is over the bound of "
                           f"{MAX_INCREMENT_CYCLES} increment and "
                           f"{MAX_DECREMENT_CYCLES} decrement cycles")
    return a, b


# the tag increment cycles are recorded under: increment_cycle_moves reads
# nothing the key of a line table takes out
CYCLE = "increment cycle"


def _played(line: Line, fill: Callable[[Line], None]) -> list:
    """The (before, move, after) steps that fill(line) plays onto the line."""
    start = len(line.run)
    fill(line)
    return list(line.run.steps(start))


def play_cycles(line: Line, a: int, b: int) -> None:
    """Play a increment cycles and then b decrement cycles onto the line.

    Each increment cycle is the line table's cycle from its start: a
    recorded cycle moved there with the same four moves (by ``transport``'s
    lemma, what applying them gives), or else the one
    ``increment_cycle_moves`` plays through the engine, which the table
    records.  A cycle that repeats itself (``frame.repeats``) links the
    rest of the batch as one run node for the line of its copies
    (``frame.Copies``), with no more lookups: the batch's end is built by
    one shift, and the configurations before it when first read.
    """
    for left in range(a, 0, -1):
        start = len(line.run)
        steps = line.lines.line(line.conf, CYCLE, lambda: _played(line, increment_cycle_moves))
        if len(line.run) == start:  # moved onto the start, not played there
            line.run = link(line.run, steps)
        cycle = list(line.run.steps(start))
        if left > 1 and repeats(cycle):
            line.run = link(line.run, Copies(cycle, left - 1))
            break
    for _ in range(b):
        _require_loop_ready(line.conf, need_counters=6)
        p1 = line.conf.players[0]
        if ENDYMION not in p1.gy:
            raise NotLoopReady("Endymion is not parked in the graveyard")
        if OFFERINGS not in p1.gy and OFFERINGS not in p1.hand:
            raise NotLoopReady("Offerings to the Doomed is out of the orbit")
        _offer_magician(line, _summon_endymion(line))


def set_counters(start: Union[Configuration, Run], n: int) -> ScriptResult:
    """Reach exactly n counters via increment/decrement compositions, from
    a configuration or at the end of a run that the result's run extends."""
    if n == 0:
        raise ZeroTarget("counter value 0 is reserved for the empty string")
    if n < 0:
        raise ZeroTarget("counter targets are positive")
    line = Line(start)
    _require_loop_ready(line.conf)
    play_cycles(line, *cycle_plan(n - spell_counters(line.conf)))
    if spell_counters(line.conf) != n:
        raise ScriptBroken(len(line.run), "counter plan missed the target")
    return line.result()


def _negate_protector_if_needed(line: Line) -> None:
    """Second construction: silence their draw warden before the loops."""
    conf = line.conf
    ez = conf.players[0].extra_zone
    if ez is None or ez.card != SVD or not ez.face_up or "svd_negate" in conf.opt_used:
        return
    for i, m in enumerate(conf.players[1].monsters):
        if m is not None and m.card == PROTECTOR and m.face_up and not m.negated:
            line.do(ActivateEffect(0, "svd_negate", (0, EXTRA, 0),
                                   targets=((1, MZONE, i),)))
            return


def turn_tick(conf: Configuration) -> ScriptResult:
    """One sustaining macro turn: counters +1, both draw locks renewed.

    Runs two increment cycles and one decrement, summons and attacks with
    the spirit, and plays through the opponent's answering turn (they pass;
    their draw stays skipped).  Ends at the start of Player 1's next main
    phase.
    """
    line = Line(conf)
    if line.conf.phase == Phase.DRAW:
        _to_phase(line, Phase.MAIN1)
    _negate_protector_if_needed(line)
    _require_loop_ready(line.conf)
    play_cycles(line, 2, 1)
    _yata_attack(line)
    _end_turn(line)
    _p2_turn(line)
    if line.conf.phase == Phase.DRAW:
        _to_phase(line, Phase.MAIN1)
    return line.result()


# --- deck B -------------------------------------------------------------------


def deck_b_order() -> tuple[int, ...]:
    want = [
        DBLSUM, PROTECTOR, MORPHING_JAR, SOUL_DRAIN, DESERT_SUNLIGHT,
        YATA, VANITY, DBLSUM, POB, POB,
        POB,        # t3
        OFFERINGS,  # t5 (skips t7)
        FLINT_LOCK,  # t9
        FLINT_LOCK,  # t11
        MST,        # t13: Soul Drain goes early to free its zone
        MSE,        # t15
        MOF,        # t17
        MASSIVEMORPH,  # t19
        MORALE_BOOST,  # t21
        MIST_BODY,  # t23
        GAT,        # t25
        GAT,        # t27
        GAT,        # t29
        REVREUSE,   # t31
        ATTRAFFIC,  # t33
        CREATSWAP,  # t35
        GMC,        # t37
        ENDYMION,   # t39
        ODD_EYES,   # t41
        POLY,       # t43
        MASSIVEMORPH,  # t45
        FLINT,      # t47
        GMC,        # t49
        POLE_POSITION,  # t51
        GMC,        # t53
        RAIGEKI,    # t55
        CITADEL,    # t57
        TEMPLE,     # t59
        MOF,        # t61
        MOD,        # t63
        UPSTART,    # t65
        BOE,        # t67
        BAIT_DOLL,  # t69
        TORNADO,    # t71
        TORNADO,    # t73
        TORNADO,    # t75 (the last card)
    ]
    return _order_for(deck_b(), want)


def setup_run_b() -> ScriptResult:
    """Replay of the second construction's whole setup line."""
    line = _opening_turns(deck_b(), deck_b_order())
    _p1_turn(line, [_summon_yata])                    # t9: hold Flint Lock
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                    # t11: hold Flint Lock
    _p2_turn(line)
    _p1_turn(line, [_activate(MST, targets=lambda c: (
        (0, SZONE, _szone_of(c, 0, SOUL_DRAIN)),)), _summon_yata])  # t13
    _p2_turn(line)

    def mse(line: Line) -> None:
        line.do(ActivateEffect(
            0, "mse_discard_recover", (0, HAND, MSE),
            targets=((0, GY, _gy_index(line.conf, 0, DBLSUM)),),
            extras=(FLINT_LOCK, FLINT_LOCK),
        ))

    _p1_turn(line, [mse, _summon_yata])               # t15
    _p2_turn(line)

    _p1_turn(line, [_double_then_set(MOF)])           # t17
    _p2_turn(line)
    _p1_turn(line, [_set_st(MASSIVEMORPH), lambda l: _flip(MOF, DBLSUM)(l),
                    _summon_yata])                    # t19
    _p2_turn(line)
    _p1_turn(line, [_activate(MASSIVEMORPH, zone=SZONE, targets=lambda c: (
        (0, MZONE, _mzone_of(c, 0, MOF, face_up=True)),)), _summon_yata])  # t21
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                    # t23: hold Mist Body
    _p2_turn(line)
    _p1_turn(line, [_set_st(GAT), _summon_yata])      # t25
    _p2_turn(line)
    _p1_turn(line, [_set_st(GAT), _summon_yata])      # t27
    _p2_turn(line)
    _p1_turn(line, [_set_st(GAT), _summon_yata])      # t29
    _p2_turn(line)
    _p1_turn(line, [_set_st(REVREUSE), _summon_yata])  # t31
    _p2_turn(line)

    def attraffic_and_link(line: Line) -> None:
        # link first so the spent continuous trap frees its zone
        mof = _mzone_of(line.conf, 0, MOF, face_up=True)
        line.do(ActivateEffect(0, "clara_link_summon", (0, 8, CLARA),
                               targets=((0, MZONE, mof),)))
        line.do(ActivateEffect(0, "attraffic_control", (0, HAND, ATTRAFFIC)))
        _summon_yata(line)

    _p1_turn(line, [attraffic_and_link])              # t33
    _p2_turn(line)

    def board_give(line: Line) -> None:
        # Reverse Reuse plants our Magician on their side, Creature Swap
        # trades it for the ventriloquist pair, then all three Give and
        # Takes chain to rebuild their board from our graveyard
        conf = line.conf
        line.do(ActivateEffect(
            0, "reverse_reuse", (0, SZONE, _szone_of(conf, 0, REVREUSE)),
            targets=((0, GY, _gy_index(conf, 0, MOF)),), extras=(0,),
        ))
        conf = line.conf
        line.do(ActivateEffect(
            0, "creature_swap", (0, HAND, CREATSWAP),
            targets=((0, EXTRA, 0), (1, MZONE, 0)),
        ))
        conf = line.conf
        gy = conf.players[0].gy
        monsters = sorted(
            (i for i, c in enumerate(gy) if c in (PROTECTOR, FLINT_LOCK)),
        )
        base, l1, l2 = monsters[0], monsters[1], monsters[2]
        z1, z2, z3 = [i for i in range(5) if conf.players[1].monsters[i] is None][:3]
        gat_zones = [_szone_of(conf, 0, GAT)]
        for i, inst in enumerate(conf.players[0].spelltraps):
            if inst is not None and inst.card == GAT and i not in gat_zones:
                gat_zones.append(i)
        line.do(ActivateEffect(
            0, "give_and_take", (0, SZONE, gat_zones[0]),
            targets=((0, GY, base),), extras=(z1,),
            chain=(
                ChainLink("give_and_take", (0, SZONE, gat_zones[1]),
                          ((0, GY, l1),), (z2,)),
                ChainLink("give_and_take", (0, SZONE, gat_zones[2]),
                          ((0, GY, l2),), (z3,)),
            ),
        ))
        _summon_yata(line)

    _p1_turn(line, [board_give])                      # t35
    _p2_turn(line)

    def gmc_morale_mist(line: Line) -> None:
        line.do(ActivateEffect(0, "gmc_gift", (0, HAND, GMC),
                               targets=((0, HAND, MORALE_BOOST), (0, HAND, MIST_BODY))))
        _flip(MOF, None)(line)   # the swapped-back Magician turns face-up
        _summon_yata(line)

    _p1_turn(line, [gmc_morale_mist])                 # t37
    _p2_turn(line, actions=[
        _activate(MORALE_BOOST, player=1),
        _activate(MIST_BODY, player=1, targets=lambda c: (
            (1, MZONE, _mzone_of(c, 1, CLARA)),)),
    ])
    _p1_turn(line, [_summon_yata])                    # t39: hold Endymion
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                    # t41: hold Odd-Eyes
    _p2_turn(line)

    def fuse(line: Line) -> None:
        line.do(ActivateEffect(
            0, "polymerization_fuse", (0, HAND, POLY),
            targets=((0, HAND, ODD_EYES), (0, HAND, ENDYMION)),
        ))
        _summon_yata(line)

    _p1_turn(line, [fuse])                            # t43
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                    # t45: hold Massivemorph #2
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                    # t47: hold Flint
    _p2_turn(line)
    _p1_turn(line, [_activate(GMC, targets=(
        (0, HAND, MASSIVEMORPH), (0, HAND, FLINT))), _summon_yata])  # t49
    _p2_turn(line, actions=[
        _activate(FLINT, player=1, targets=lambda c: (
            (1, MZONE, _mzone_of(c, 1, CLARA)),)),
        _set_st(MASSIVEMORPH, player=1),
    ])
    _p1_turn(line, [_summon_yata])                    # t51: hold Pole Position
    _p2_turn(line, actions=[
        _activate(MASSIVEMORPH, zone=SZONE, player=1, targets=lambda c: ((0, EXTRA, 0),)),
    ])
    _p1_turn(line, [_activate(GMC, targets=((0, HAND, POLE_POSITION),)),
                    _summon_yata])                    # t53
    _p2_turn(line, actions=[_set_st(POLE_POSITION, player=1)])
    _p1_turn(line, [_summon_yata])                    # t55: hold Raigeki
    _p2_turn(line, actions=[_activate(POLE_POSITION, zone=SZONE, player=1)])
    _p1_turn(line, [lambda l: l.do(SetSpellTrap(0, CITADEL, -1)), _summon_yata])
    _p2_turn(line)
    _p1_turn(line, [lambda l: l.do(SetSpellTrap(0, TEMPLE, _free_szone(l.conf, 0))),
                    _summon_yata])
    _p2_turn(line)
    _p1_turn(line, [_double_then_set(MOF)])           # second Magician
    _p2_turn(line)
    _p1_turn(line, [_double_then_set(MOD, flip=(MOF, DBLSUM))])  # Mask of Darkness
    _p2_turn(line)
    _p1_turn(line, [lambda l: _flip(MOD, DESERT_SUNLIGHT)(l), _summon_yata])  # recover DS
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                    # hold Book of Eclipse
    _p2_turn(line)
    _p1_turn(line, [_summon_yata])                    # hold Bait Doll
    _p2_turn(line)
    _p1_turn(line, [_summon_yata], discard=(TORNADO,))  # first stray Tornado
    _p2_turn(line)
    _p1_turn(line, [_summon_yata], discard=(TORNADO,))  # second stray Tornado
    _p2_turn(line)

    def finale_b(line: Line) -> None:
        line.do(SetSpellTrap(0, TORNADO, _free_szone(line.conf, 0)))
        line.do(ActivateEffect(0, "temple_trap_allowance",
                               (0, SZONE, _szone_of(line.conf, 0, TEMPLE))))
        line.do(ActivateEffect(0, "citadel_counters", (0, FZONE, 0)))
        prot = _mzone_of(line.conf, 1, PROTECTOR, face_up=True)
        line.do(ActivateEffect(0, "svd_negate", (0, EXTRA, 0),
                               targets=((1, MZONE, prot),)))

    _p1_turn(line, [finale_b], stop_in_main=True)
    return line.result()


def documented_final_board(deck: str) -> dict:
    """The target boards the setups must reach, field for field."""
    hand_a = sorted(["Yata-Garasu", "Bait Doll", "Upstart Goblin",
                     "Book of Eclipse", "Desert Sunlight"])
    base = {
        "monsters": sorted([("Magician of Faith", True), ("Magician of Faith", True),
                            ("Mask of Darkness", True), ("Vanity's Ruler", True)]),
        "field": ("Magical Citadel of Endymion", 0),
        "deck": 0,
        "opp_hand": 0,
        "opp_gy": 0,
        "opp_banished": 0,
    }
    if deck == "a":
        return {
            **base,
            "hand": hand_a,
            "extra": None,
            "st": sorted([("Temple of the Kings", True), ("Localized Tornado", False)]),
            "opp_monsters": [],
            "opp_st": sorted(["Massivemorph", "Pole Position"]),
        }
    if deck == "b":
        return {
            **base,
            "hand": sorted(hand_a + ["Raigeki"]),
            "extra": ("Starving Venemy Dragon", True),
            "st": sorted([("Attraffic Control", True), ("Temple of the Kings", True),
                          ("Localized Tornado", False)]),
            "opp_monsters": sorted(["Clara & Rushka, the Ventriloduo", "Flint Lock",
                                    "Flint Lock", "Protector of the Sanctuary"]),
            "opp_st": sorted(["Flint", "Massivemorph", "Mist Body", "Morale Boost",
                              "Pole Position"]),
        }
    raise ScriptBroken(-1, f"unknown deck {deck!r}")


def board_diff(conf: Configuration, deck: str) -> list[str]:
    """Differences between a configuration and the documented target."""
    want = documented_final_board(deck)
    p1, p2 = conf.players
    got = {
        "monsters": sorted((m.name, m.face_up) for m in p1.monsters if m is not None),
        "field": p1.field_zone and (p1.field_zone.name, p1.field_zone.counters),
        "deck": len(p1.deck),
        "hand": sorted(card_name(c) for c in p1.hand),
        "extra": p1.extra_zone and (p1.extra_zone.name, p1.extra_zone.face_up),
        "st": sorted((s.name, s.face_up) for s in p1.spelltraps if s is not None),
        "opp_monsters": sorted(m.name for m in p2.monsters if m is not None),
        "opp_st": sorted(s.name for s in p2.spelltraps if s is not None),
        "opp_hand": len(p2.hand),
        "opp_gy": len(p2.gy),
        "opp_banished": len(p2.banished),
    }
    return [
        f"{key}: expected {want[key]!r}, got {got[key]!r}"
        for key in want
        if got[key] != want[key]
    ]
