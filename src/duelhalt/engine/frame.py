"""The frame, and moving a recorded line onto a new one, so that a line
played before is linked instead of applied again.  Outside the trusted
kernel, which never imports it: ``rules.validate_run`` and
``replay_witness`` check what a moved line gives with ``apply`` alone."""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Optional, Sequence

from ..carddb import CITADEL, FILLER
from .config import GY, HAND, CardInstance, Configuration, PlayerState, fast_replace as replace
from .moves import ActivateEffect, Move
from .rules import EFFECTS, spell_counters


# --- the frame, and moving a recorded line onto a new one -----------------

_STAMPS = ("set_turn", "face_since", "summoned_turn")
_PILES = ("deck", "hand", "gy")
_LP_GUARD = 1000  # Soul Drain's payment, the highest LP any read of P2's compares with
# the fewest cards P2's deck keeps along a line moved onto another deck
# length: deck-out compares it with 0, and a draw of n cards takes n
# wherever it leaves one
_DECK_GUARD = 1


def _piles(ps: PlayerState) -> tuple:
    return ps.deck, ps.hand, ps.gy


def _filler(ps: PlayerState) -> bool:
    """Whether every card in the player's deck, hand and graveyard is
    FILLER, so that the piles are their lengths."""
    return all(pile.count(FILLER) == len(pile) for pile in _piles(ps))


def transport(confs: Iterable[Configuration], start: Configuration,
              onto: Configuration) -> list[Configuration]:
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
    differ from them, but when every card in start's and onto's is FILLER
    they are counts: each of T(c)'s is c's with onto's length difference
    over start added.  Records c shares with start are onto's own and
    every other one is copied once per call, so T(start) = onto and a step
    costs a few ``fast_replace`` copies.

    Lemma (the frame rule of separation logic, Reynolds, LICS 2002): for a
    move m made at c, apply(T(c), m) is defined exactly when apply(c, m)
    is, and then equals T(apply(c, m)), under the guard that each of the
    engine's reads of a frame field below names.  A read answers alike at
    c and T(c) under its guard; every other use of a frame field adds to it
    or copies it, which commutes with T.
    - The counters: Endymion's 6-counter check and -6 (its row's
      ``reads_counters``).  Guard: the counters move by 0, or the line
      summons no Endymion.  A spell's +1 commutes.
    - P2's LP: the terminal tests' ``== 0`` (``_terminal``,
      ``is_winning_state``), ``_adjust_lp``'s clamp at 0 and, when P2
      pays it, Soul Drain's 1000 LP.  Guard: the LP moves by 0, or P2's LP
      stays at ``_LP_GUARD`` (1000) or more all along the line and its
      image.  Gains and damage commute, Flint Lock's +1000 among them.
    - The turn: ``turn == 0`` (the opening windows, ``_apply_draw``,
      ``_apply_pass``, ``_advance_phase``), ``turn == 1`` and ``!= 1``
      (``_start_turn``'s first draw, the turn-1 attack ban), ``turn >= 1``
      (``_deck_out_pending``) and the parity ``_start_turn`` makes the
      turn player from.  Guard: start and onto are at turn 2 or later and
      the turn moves by an even number.
    - The stamps, compared only with the turn: ``set_turn == turn`` (a
      trap or quick-play spell set this turn, ``_activation_timing_ok``,
      ``_trap_ready``), ``face_since >= turn`` and ``set_turn == turn``
      (``_chk_flip``) and ``summoned_turn == turn`` (Yata's bounce in
      ``_end_phase_events``).  A stamp at or after start's turn moves with
      the turn and one before it stays below it, so each answers alike; a
      written stamp is the turn.  A past stamp of a changed card is the one
      its slot had at start, since only Creature Swap moves a card with its
      stamps to another slot (its row's ``moves_stamps``).  Guard: the
      line plays no Creature Swap.
    - P2's piles, left alone: every draw, discard, send to the graveyard
      and return to the hand changes them.  Guard: a line that changes
      them moves only onto equal piles, unless they are counts (below).
      The reads that change nothing are a draw from an empty deck (P2
      draws by Book of Eclipse's End Phase and by Morphing Jar), Morphing
      Jar's discard of an empty hand, the checks and candidates of P2's
      set cards that P2's answer to a Pass runs (``_has_quick_move``), a
      card activated from P2's graveyard (``_effect_card``) and, on P2's
      own turn, the hand limit.  Guard: P2's deck and hand are empty at
      start exactly when at onto, and a line that meets a set card of
      P2's, activates from P2's graveyard or makes a move while P2 is the
      turn player moves only onto equal piles.
    - P2's piles as counts: when every card in them is FILLER, which is
      inert (``_chk_summon``, ``_activation_timing_ok``), the rules read
      their lengths alone.  Deck-out (``_deck_out_pending``) compares the
      deck with 0.  A draw (``_draw_cards``) of n cards, 1 for P2's draw
      and up to 5 for Morphing Jar's and Book of Eclipse's End Phase draw,
      takes the lesser of n and the deck's length: n wherever it leaves a
      card, in the line and in its image.  The deck grows only by
      graveyard cards a locator names, so along such a line it only
      shrinks.  The hand limit (``_prelude``'s End Phase window,
      ``_chk_discard``) compares the hand with ``HAND_LIMIT``, Morphing
      Jar empties the hand, and a locator names a card of the hand or the
      graveyard by index.  Guard: the piles are FILLER all along the line
      and at onto, the hand lengths at start and onto are equal, the deck
      length moves by 0 or stays at ``_DECK_GUARD`` (1) or more all along
      the line and its image, and the line names no card of P2's hand or
      graveyard and meets no set card of P2's, whose checks may read them.
    - Moves made while P2 is the turn player.  ``_start_turn`` reads the
      turn's parity and ``turn == 1``.  P2's draw and deck-out read P2's
      deck, and the hand limit P2's hand: the piles' guards.
      ``_end_phase_events`` bounces Yata by its stamp, and under Book of
      Eclipse flips the monsters of the player whose turn it is not and
      draws for them: P1's cards on P2's turn, and on ours a draw from
      P2's deck.  A Pass of P2's opens the
      ``_has_quick_move`` window of P1's set cards, whose checks read
      P1's graveyard (Localized Tornado's targets are its own), P1's LP
      (Soul Drain's payment), the stamps (``_trap_ready``, a set
      quick-play's ``set_turn``) and the board, never P2's LP or piles.
      Flint Lock's pull adds 1000 to P2's LP.  So the clauses above cover
      the turn, with no guard of its own.
    Under the guards T(c) is terminal, and won by the same player, exactly
    when c is: the terminal tests read P2's LP against 0, the turn and the
    turn player's deck, P2's only where its emptiness is kept.  Outside
    any move, ``is_initial`` reads the turn and both LP totals; the opening
    windows read both hands, at turn 0 only.  ``unframed`` takes this frame
    out of a start, ``line_frame`` reads a recorded line's guards, and
    ``LineTable`` checks them all.
    """
    since, dt = start.turn, onto.turn - start.turn
    was, now = start.players, onto.players
    dl = now[1].lp - was[1].lp
    dc = spell_counters(onto) - spell_counters(start)
    memo: dict[int, object] = {id(was[p]): now[p] for p in (0, 1)}
    w, o = _piles(was[1]), _piles(now[1])
    counted = w != o and _filler(was[1]) and _filler(now[1])
    grown = [len(b) - len(a) for a, b in zip(w, o)] if counted else ()  # onto's over start's
    piles = {} if w == o or counted else dict(zip(_PILES, o))
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
                if counted:
                    changes.update((f, (FILLER,) * (len(pile) + d))
                                   for f, pile, d in zip(_PILES, _piles(ps), grown))
            got = memo[id(ps)] = replace(ps, **changes)
        return got

    return [replace(c, turn=c.turn + dt,
                    players=(player(c.players[0], 0), player(c.players[1], 1)))
            for c in confs]


def unframed(conf: Configuration) -> Configuration:
    """conf with the frame of ``transport`` taken out: the counters 0, of
    the turn only its parity, each stamp at or after the turn as its
    distance from it and each past one as -2, P2's LP 0, and of P2's piles
    only whether the deck and the hand are empty.  Starts with equal images
    differ only in the frame, by an even number of turns."""
    turn = conf.turn

    def player(ps, p):
        return replace(ps, monsters=tuple(_unframed_card(m, turn) for m in ps.monsters),
                       spelltraps=tuple(_unframed_card(st, turn) for st in ps.spelltraps),
                       extra_zone=_unframed_card(ps.extra_zone, turn),
                       field_zone=_unframed_card(ps.field_zone, turn, not p))

    p1, p2 = conf.players
    p2 = replace(player(p2, 1), lp=0, deck=(FILLER,) if p2.deck else (),
                 hand=(FILLER,) if p2.hand else (), gy=())
    return replace(conf, turn=turn % 2, players=(player(p1, 0), p2))


@lru_cache(maxsize=1024)  # cards recur from one start looked up to the next
def _unframed_card(inst: Optional[CardInstance], turn: int, counted: bool = False):
    """A card of ``unframed``'s at the turn; counted: its counters are the
    frame's when it is a face-up Magical Citadel."""
    if inst is None:
        return None
    changes = {}
    for f in _STAMPS:
        v = getattr(inst, f)
        w = v - turn if v >= turn else -2 if v >= 0 else v
        if w != v:
            changes[f] = w
    if counted and inst.counters and inst.card == CITADEL and inst.face_up:
        changes["counters"] = 0
    return replace(inst, **changes) if changes else inst


def line_frame(steps: Sequence[tuple[Configuration, Move, Configuration]]
               ) -> Optional[tuple[int, bool, bool, Optional[int]]]:
    """What a recorded line asks of the frame it is moved onto, read from
    its (before, move, after) steps: None when ``transport``'s lemma does
    not cover it (a start before turn 2, a Creature Swap), else P2's lowest
    LP along it, whether its piles may move as they are (it leaves them
    alone, meets no set card of P2's, activates nothing from P2's
    graveyard and makes every move while P1 is the turn player), whether
    it reads the counters against a threshold (summons Endymion) and, when
    P2's piles are counts along it (all FILLER, no set card of P2's met and
    no card of P2's hand or graveyard named), the lowest length of P2's
    deck, else None.  P2's side is read only where a step changes it."""
    if not steps or steps[0][0].turn < 2:
        return None
    p2, seen = steps[0][0].players[1], None
    piles = _piles(p2)
    low, free, counts, from_gy, named, meets = p2.lp, True, False, False, False, False
    deck = len(p2.deck) if _filler(p2) else None
    for conf, move, nxt in steps:
        if isinstance(move, ActivateEffect):
            links = (move, *move.chain)
            rows = [EFFECTS[a.effect] for a in links]
            if any(row.moves_stamps for row in rows):
                return None
            counts = counts or any(row.reads_counters for row in rows)
            from_gy = from_gy or any(a.source[:2] == (1, GY) for a in links)
            named = named or any(loc[:2] in ((1, HAND), (1, GY)) for a in links
                                 for loc in (a.source, *a.targets))
        free = free and conf.active == 0
        if conf.players[1] is not seen:
            seen = conf.players[1]
            meets = meets or any(st is not None and not st.face_up for st in seen.spelltraps)
        p2 = nxt.players[1]
        if p2 is not seen:
            low = min(low, p2.lp)
            free = free and _piles(p2) == piles
            if deck is not None:
                deck = min(deck, len(p2.deck)) if _filler(p2) else None
    return low, free and not meets and not from_gy, counts, \
        None if meets or named else deck


def _guards_hold(was: Configuration, frame: tuple, onto: Configuration) -> bool:
    """The guards an ``unframed`` key leaves open, for a line from was: P2's
    LP moves by 0 or stays at _LP_GUARD or more along the line and its
    image, P2's piles move only where frame lets them (as they are, or as
    counts: onto's FILLER too, the hand as long and the deck moved by 0 or
    kept at _DECK_GUARD or more), and the counters only where frame lets
    them."""
    low, free, counts, deck = frame
    w, o = was.players[1], onto.players[1]
    dl, dd = o.lp - w.lp, len(o.deck) - len(w.deck)
    return ((not dl or min(low, low + dl) >= _LP_GUARD)
            and (free or _piles(o) == _piles(w) or deck is not None
                 and len(o.hand) == len(w.hand) and _filler(o)
                 and (not dd or min(deck, deck + dd) >= _DECK_GUARD))
            and not (counts and spell_counters(onto) != spell_counters(was)))


class MovedLine:
    """A recorded line moved onto a start, as (move, configuration) steps
    built only when read: ``last`` builds the end alone, a ``Run`` node
    linked with the line reads its ``moves`` alone, and the first read of
    the configurations, through the node or by iterating or comparing the
    line, builds them all with one ``transport``."""

    __slots__ = ("_steps", "_start", "_frame", "_onto", "_last", "_confs")

    def __init__(self, steps: Sequence[tuple[Move, Configuration]], start: Configuration,
                 onto: Configuration, frame: Optional[tuple] = None):
        self._steps, self._start, self._frame, self._onto = steps, start, frame, onto
        self._last = self._confs = None

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self):
        return zip(self.moves(), self.confs())

    def __eq__(self, other):
        return tuple(self) == other

    def moves(self) -> list[Move]:
        return [mv for mv, _n in self._steps]

    def last(self) -> Configuration:
        if self._last is None:
            self._last = transport((self._steps[-1][1],), self._start, self._onto)[0]
        return self._last

    def confs(self) -> list[Configuration]:
        if self._confs is None:
            recorded = [nxt for _m, nxt in self._steps]
            if self._last is None:
                self._confs = transport(recorded, self._start, self._onto)
                self._last = self._confs[-1]
            else:
                self._confs = transport(recorded[:-1], self._start, self._onto) + [self._last]
        return self._confs

    def onto(self, conf: Configuration) -> Optional["MovedLine"]:
        """The same recorded line moved onto conf, a start with its start's
        ``unframed`` key, or None where its guards do not hold there
        (``_guards_hold``)."""
        if not _guards_hold(self._start, self._frame, conf):
            return None
        return MovedLine(self._steps, self._start, conf, self._frame)

    def split(self, ends: Callable[[Configuration], bool]) -> tuple["MovedLine", "MovedLine"]:
        """The line as two moved as it is: up to the first recorded
        configuration that ends() accepts, and the rest.  ends must read no
        frame field, so that it answers alike on the moved line."""
        i = next(i for i, (_m, nxt) in enumerate(self._steps) if ends(nxt)) + 1
        rest = MovedLine(self._steps[i:], self._start, self._onto)
        rest._last = self._last
        return MovedLine(self._steps[:i], self._start, self._onto), rest


class Joined:
    """Moved lines linked end to start as one line, for one ``Run`` node:
    each moved onto the end of the one before.  Their configurations are
    built when first read."""

    __slots__ = ("_lines", "_confs")

    def __init__(self, lines: Sequence[MovedLine]):
        self._lines, self._confs = lines, None

    def __len__(self) -> int:
        return sum(map(len, self._lines))

    def moves(self) -> list[Move]:
        return [mv for line in self._lines for mv in line.moves()]

    def last(self) -> Configuration:
        return self._lines[-1].last()

    def confs(self) -> list[Configuration]:
        if self._confs is None:
            self._confs = [c for line in self._lines for c in line.confs()]
        return self._confs


class LineTable:
    """Recorded lines under their ``unframed`` start and a tag, which holds
    what the line's maker reads that the key does not; ``line``, the one way
    in, moves a recorded line onto a later start or plays and records one."""

    def __init__(self):
        # (start's key, tag) -> [(start, its (move, configuration) steps, line_frame's)]
        self.recorded: dict[tuple[Configuration, Hashable], list[tuple]] = {}

    def line(self, conf: Configuration, tag: Hashable,
             play: Callable[[], Sequence[tuple[Configuration, Move, Configuration]]]
             ) -> Sequence[tuple[Move, Configuration]]:
        """The line from conf under the tag, as (move, configuration) steps:
        the first recorded under conf's key and tag that may move onto conf
        (at turn 2 or later, and ``_guards_hold``), as a ``MovedLine`` onto
        conf, which builds a configuration only when read; else the
        (before, move, after) steps from conf that play() makes, recorded
        under that key unless the lemma does not cover them."""
        if conf.turn >= 2:
            key = (unframed(conf), tag)
            for start, steps, frame in self.recorded.get(key, ()):
                if _guards_hold(start, frame, conf):
                    return MovedLine(steps, start, conf, frame)
        made = play()
        steps = tuple((mv, nxt) for _c, mv, nxt in made)
        frame = line_frame(made)  # None before turn 2, so key is bound
        if frame is not None:
            self.recorded.setdefault(key, []).append((made[0][0], steps, frame))
        return steps


def shift(confs: Iterable[Configuration], start: Configuration,
          onto: Configuration, times: int = 1) -> list[Configuration]:
    """``transport`` for a start and onto that differ only in the counters
    and P2's LP, as a line that repeats itself and its copies do
    (``repeats``): only those two are moved, by times their differences."""
    dl = (onto.players[1].lp - start.players[1].lp) * times
    dc = (spell_counters(onto) - spell_counters(start)) * times
    memo = {id(start.players[1]): onto.players[1]} if times == 1 else {}
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


class Copies:
    """The copies of a line that repeats itself (``repeats``), linked after
    it as one line: the end is one ``shift`` by the copies' whole gain,
    and the first read of any configuration before it, through the
    ``Run`` node linked with it, builds them all, one ``shift`` per copy."""

    __slots__ = ("_line", "_copies", "_last", "_confs")

    def __init__(self, line: Sequence[tuple[Configuration, Move, Configuration]], copies: int):
        self._line, self._copies = line, copies
        self._last = self._confs = None

    def __len__(self) -> int:
        return len(self._line) * self._copies

    def moves(self) -> list[Move]:
        return [mv for _c, mv, _n in self._line] * self._copies

    def last(self) -> Configuration:
        if self._last is None:
            start, end = self._line[0][0], self._line[-1][2]
            self._last = shift((end,), start, end, self._copies)[0]
        return self._last

    def confs(self) -> list[Configuration]:
        if self._confs is None:
            start, end = self._line[0][0], self._line[-1][2]
            after = [nxt for _c, _m, nxt in self._line]
            confs = [c for j in range(1, self._copies + 1) for c in shift(after, start, end, j)]
            if self._last is not None:
                confs[-1] = self._last
            self._last, self._confs = confs[-1], confs
        return self._confs


def repeats(steps: Sequence[tuple[Configuration, Move, Configuration]]) -> bool:
    """Whether the line of (before, move, after) steps ends at its own
    start with only the counters and P2's LP moved, by gains of 0 or more,
    under the guards: then ``shift`` moves it onto its end, and each copy
    onto the end of the one before."""
    start, end = steps[0][0], steps[-1][2]
    if (end.players[1].lp < start.players[1].lp or spell_counters(end) < spell_counters(start)
            or shift((start,), start, end)[0] != end):
        return False
    frame = line_frame(steps)
    return frame is not None and _guards_hold(start, frame, end)


def repeating(steps: Sequence[tuple[Configuration, Move, Configuration]]
              ) -> Optional[MovedLine]:
    """The line of (before, move, after) steps moved onto its own end, when
    it ends at its own start's ``unframed`` key and its guards hold there;
    else None.  ``MovedLine.onto`` then moves it onto the end of each
    repeat in turn, which has the key again, while the guards hold (FAST's
    guarded acceleration: Bardin, Finkel, Leroux and Petrucci, STTT 2008).
    What the line's maker reads beyond the key, a ``LineTable`` tag's part,
    is for the caller to compare."""
    start, end = steps[0][0], steps[-1][2]
    frame = line_frame(steps) if unframed(end) == unframed(start) else None
    if frame is None or not _guards_hold(start, frame, end):
        return None
    return MovedLine(tuple((mv, nxt) for _c, mv, nxt in steps), start, end, frame)
