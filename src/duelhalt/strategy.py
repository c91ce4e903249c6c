"""Strategies, the budgeted winning checker, and strategy trees.

A strategy is a partial function from runs to Player 1's next
configuration.  Its answer at a configuration is the whole turn it plays
from there, and depends only on the configuration and the strategy's
heard state: what it made of the opponent's numbers so far.  `observe`
derives the state from a run in one walk and `hear` advances it per
finished opponent turn, so the explorer carries (run, state) and never
re-walks a run.  Outside their scripted prefixes the three families are
undefined, matching the localization picture.

`next_move` answers with our steps to the end of the turn, each a (move,
next configuration) pair, from one call to the strategy's
`frame.LineTable`, its only record of its answers: a recorded turn moved
onto the configuration, or else the turn planned there and recorded, as
are the increment cycles a plan plays.  A moved turn is built only where
it is read: `_drive` links it as one run node that holds its end, and
the configurations before it are built the first time a run's
configurations or steps are read; the witness reads moves alone.  So each configuration is one
`apply` made or one moved from a line `apply` made; the frame, the lemma
and its guards are stated once, on `frame.transport`.  A turn's planner
reads the frame only through the engine (the legality of its moves and
the terminal tests; its cycle lookups read the LP only to choose between
moving a cycle and applying it) and through the counters, so a turn is
recorded under the tag (mode, counters) and the turn it plans from a
moved start is the moved turn.  Both players' turns are planned lines:
ours by the strategy, theirs by `_p2_turns`.  `_drive` links each whole
and judges it at its end, and it and the explorer choose or apply no
move of their own: each transition is applied at most once, by the line
that plans it, and each turn is asked for once, the root's included.

Where the opponent has one choice (no channel: the turn that passes
through), their turn and the drive after it to their next decision point
are one round.  Rounds batch only when they repeat, as increment cycles do
(`scripts.play_cycles`): a played round that ends at its start's
`unframed` key, with the heard state and the counters as they were,
becomes a record (`frame.repeating`) that the round's end carries, and
the record is moved onto each round's end after it (FAST's guarded
acceleration), while its guards hold and within the budget's last turn,
linked with no `_p2_turns`, `next_move` or `_drive`;
`frame.transport`'s lemma covers both players' turns in it.  Any other
round is played as any opponent turn is.

The winning checker and the strategy trees read one lazily built DAG of
explored lines, a node per (configuration, heard state) a line starts at:
the checker folds verdict kinds over it and the trees unfold it to a
depth, so a line that two branches reach is driven once.  Its edges are
the opponent's choices, numbers spoken through the equip-retarget
channel, so a turn of theirs is canonicalized to "pull the equip k times,
then park it (or not)", and the turns at one decision point share their
prefix: the draw, the walk to the main phase and each pull are made once.
A budget can declare its number cap exhaustive (the bounded-adversary
reading used by the desk tests); otherwise running into the cap yields an
honest Undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .carddb import CLARA, FLINT, FLINT_LOCK, RAIGEKI, YATA
from .coding import pair, unpair, untriple
from .errors import (
    IllegalMove,
    InsufficientCounters,
    MalformedCode,
    NotLoopReady,
    ScriptBroken,
    StrategyUndefinedAtRoot,
)
from .engine import (
    ActivateEffect,
    ChangeEquipTarget,
    Configuration,
    DeclareAttack,
    DIRECT,
    Move,
    Phase,
    Run,
    apply,  # bound, never called: perfbench's tracer tests count the modules binding it
    encode_configuration,
    is_winning_state,
)
from .engine.config import EXTRA, HAND, MZONE, SZONE
from .engine.frame import Joined, LineTable, MovedLine, repeating
from .engine.rules import spell_counters
from .scripts import (
    Line,
    _end_turn,
    _negate_protector_if_needed,
    _offer_magician,
    _p2_draw,
    _p2_end,
    _p2_turn,
    _summon_endymion,
    _summon_yata,
    _to_phase,
    _yata_attack,
    cycle_plan,
    play_cycles,
)
from . import tm as tmmod


@dataclass(frozen=True)
class Budget:
    max_turns: int
    max_opponent_number: int
    cap_exhaustive: bool = False

    def __post_init__(self):
        if self.max_turns <= 0 or self.max_opponent_number <= 0:
            raise ValueError("budget components must be positive")


WIN = "win"
LOSS = "loss"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class WinVerdict:
    kind: str
    witness: tuple[Move, ...] = ()

    @property
    def is_win(self) -> bool:
        return self.kind == WIN


# a move and the configuration it leads to
Step = tuple[Move, Configuration]

# A drive covers one of our turns, and a counter plan is capped at
# 20,000 x 4 + 10,000 x 2 = 100,000 moves.
MAX_STEPS = 200_000


# the channel strategies' final heard states: off the base run, a broken chain
OFF = "off"
BROKEN = "broken"


class Strategy:
    """Deterministic turn planner: the turn it plays from a configuration
    depends only on that configuration and the heard state."""

    def __init__(self, descriptor: tuple):
        self.descriptor = descriptor
        # the turns it planned and the increment cycles they played
        self.lines = LineTable()

    def observe(self, run: Run) -> Hashable:
        """The heard state at the end of the run, from one walk of it."""
        if not isinstance(run, Run):
            raise TypeError("strategies hear the whole run, not a configuration")
        return None

    def hear(self, state: Hashable, n: int) -> Hashable:
        """The state after an opponent turn that spoke the number n."""
        return state

    def next_move(self, conf: Configuration, state: Hashable) -> Optional[tuple[Step, ...]]:
        """Our steps from conf to the end of our turn (the first
        configuration of theirs) or to the won configuration, each a (move,
        configuration it leads to) pair; None where the strategy is
        undefined.  The opponent's passes inside our turn are among them.
        The answer is the line table's turn under the tag (mode, counters)."""
        mode = self._reads(state)

        def play():
            line = self._plan_turn(conf, mode)
            return () if line is None else list(line.run.steps())

        return self.lines.line(conf, (mode, spell_counters(conf)), play) or None

    def _reads(self, state: Hashable) -> Hashable:
        """What the planner reads from the state; turns are recorded under it."""
        return None

    def _plan_turn(self, conf: Configuration, mode: Hashable) -> Optional[Line]:
        """Plan the turn from conf: the simulated line of our moves."""
        raise NotImplementedError


_PLAN_FAILS = (ScriptBroken, NotLoopReady, InsufficientCounters, IllegalMove, MalformedCode)


def _planned(line: Line, fill: Callable[..., None], *args) -> Optional[Line]:
    """The line after fill(line, *args) simulates on it; None when a step
    of it is not legal."""
    try:
        fill(line, *args)
    except _PLAN_FAILS:
        return None
    return line


def _own_turn(line: Line, play: Callable[..., None], *args) -> None:
    """One of our turns: walk to the main phase, let play(line, *args) fill
    it, and pass the turn unless the game is won.  No configuration before
    the line's last is terminal, as ``Line.do`` says."""
    if line.conf.phase == Phase.DRAW:
        _to_phase(line, Phase.MAIN1)
    if line.conf.phase not in (Phase.MAIN1, Phase.MAIN2):
        raise ScriptBroken(len(line.run), "our turn does not reach a main phase")
    play(line, *args)
    if not is_winning_state(line.conf, 0):
        _end_turn(line)


def _counters_to(line: Line, target: int) -> None:
    """Cycle the counters to target; the one decrement at least re-arms
    our next draw skip."""
    play_cycles(line, *cycle_plan(target - spell_counters(line.conf), min_decrements=1))


def battle_all(line: Line) -> None:
    """Attack directly with every face-up monster we control until the
    opponent falls."""
    _to_phase(line, Phase.BATTLE)
    p1 = line.conf.players[0]
    attackers = [(0, MZONE, i) for i, m in enumerate(p1.monsters)
                 if m is not None and m.face_up]
    if p1.extra_zone is not None and p1.extra_zone.face_up:
        attackers.append((0, EXTRA, 0))
    for loc in attackers:
        if is_winning_state(line.conf, 0):
            return
        try:
            line.do(DeclareAttack(0, loc, DIRECT))
        except ScriptBroken:
            pass  # this monster cannot attack: the engine refused the move


class TMStrategy(Strategy):
    """Simulate machine e on the spell counters; attack out when it halts."""

    def __init__(self, e: int):
        super().__init__(("tm", e))
        self.e = e
        m = tmmod.machine_from_index(e)
        if isinstance(m, tmmod.AppendixMachine):
            m = tmmod.EMPTY_MACHINE  # no tape semantics; treat as immediate halt
        self.machine = m

    def _plan_turn(self, conf, mode):
        return _planned(Line(conf, self.lines), _own_turn, self._play_turn)

    def _play_turn(self, line: Line) -> None:
        mconf = tmmod.decode_tmconf(spell_counters(line.conf))
        if tmmod.halted(self.machine, mconf):
            self._attack_turn(line)
            return
        nxt = tmmod.step(self.machine, mconf)
        if isinstance(nxt, tmmod.Halted):
            nxt = nxt.config
        _counters_to(line, tmmod.encode_tmconf(nxt))
        _yata_attack(line)

    def _attack_turn(self, line: Line) -> None:
        """Counters stand still while the board batters the opponent down.

        Five cycles and two full decrements, then the magician stays out
        to join the battle and is only offered up afterwards: +15 -10 -6 +1
        keeps the count exact and still arms our next draw skip.
        """
        play_cycles(line, 5, 2)
        zone = _summon_endymion(line)
        battle_all(line)
        if not is_winning_state(line.conf, 0):
            _to_phase(line, Phase.MAIN2)
            _offer_magician(line, zone)


def _spoke(conf: Configuration, nxt: Configuration) -> int:
    """1 when the step is one of the opponent's +1000 LP steps inside a
    turn: a unit of the number they speak."""
    return int(nxt.turn == conf.turn and nxt.players[1].lp - conf.players[1].lp == 1000)


class _ChannelStrategy(Strategy):
    """Shared skeleton for the number-channel strategies (second deck)."""

    def __init__(self, descriptor, base_run: Run):
        super().__init__(descriptor)
        self.base_run = base_run

    def observe(self, run):
        """OFF off the base run; else hear each opponent turn finished since
        it ends (a turn in progress has not spoken its number yet)."""
        super().observe(run)
        configs = run.since(len(self.base_run))
        if not configs or configs[0] != self.base_run.last():
            return OFF
        state, n = None, 0
        for conf, nxt in pairwise(configs):
            if conf.active == 1:
                if nxt.active == 0:
                    state, n = self.hear(state, n), 0
                else:
                    n += _spoke(conf, nxt)
        return state

    def hear(self, state, n):
        """OFF and BROKEN are final and 0 is the failure value; otherwise
        _extend takes the chain so far (None while empty) one number on."""
        if state in (OFF, BROKEN):
            return state
        return BROKEN if n == 0 else self._extend(state, n)

    def _reads(self, state):
        """'wait' while the chain holds, 'raigeki' once it breaks."""
        return OFF if state == OFF else "raigeki" if state == BROKEN else "wait"

    def _plan_turn(self, conf, mode):
        if mode == OFF:
            return None
        return _planned(Line(conf, self.lines), _own_turn, self._play_turn, mode)

    def _play_turn(self, line: Line, mode: str) -> None:
        _negate_protector_if_needed(line)
        _counters_to(line, spell_counters(line.conf) + 1)
        if mode == "raigeki":
            if RAIGEKI in line.conf.players[0].hand:
                line.do(ActivateEffect(0, "raigeki_wipe", (0, HAND, RAIGEKI)))
            if YATA in line.conf.players[0].hand:
                _summon_yata(line)
            battle_all(line)
        else:
            _yata_attack(line)


class NISStrategy(_ChannelStrategy):
    """First number is a triple (a1, a2, t1), later ones pairs (a_k+1, t_k).

    Heard state: None before the first number, then the value the next
    number must map onto, or BROKEN."""

    def __init__(self, e: int, base_run: Run):
        super().__init__(("nis", e), base_run)
        self.e = e

    def _extend(self, state, n):
        if state is None:
            want, a_next, t = untriple(n)
        else:
            want, (a_next, t) = state, unpair(n)
        r = tmmod.run_bounded(self.e, a_next, t)
        return a_next if isinstance(r, tmmod.Converged) and r.output == want else BROKEN


class WOStrategy(_ChannelStrategy):
    """Numbers spell a strictly descending chain in the given order.

    Heard state: None before the first number, then the chain's last
    element, or BROKEN."""

    def __init__(self, order, base_run: Run):
        super().__init__(("wo", order.name), base_run)
        self.order = order

    def _extend(self, state, n):
        m, above = unpair(n) if state is None else (n, state)
        return m if self.order.less(m, above) else BROKEN


# --- the budgeted winning checker ---------------------------------------------


def has_channel(conf: Configuration) -> bool:
    """Whether the opponent holds the number channel: a face-up Flint and a
    face-up Flint Lock on their side."""
    p2 = conf.players[1]
    return (any(st is not None and st.card == FLINT and st.face_up for st in p2.spelltraps)
            and any(m is not None and m.card == FLINT_LOCK and m.face_up for m in p2.monsters))


def _p2_turn_choices(conf: Configuration, budget: Budget) -> list[tuple[int, bool]]:
    """Canonical opponent turns: (pulls, parked).  Pass-only turns are (0, True)."""
    ks = range(1, budget.max_opponent_number + 1) if has_channel(conf) else ()
    return [(0, True)] + [(k, park) for k in ks for park in (True, False)]


def _retarget(p2, pull: bool) -> Optional[Move]:
    """Move Flint onto a face-up lock it is not on (a pull) or onto the
    ventriloquists (parking); None when the channel cannot say it."""
    zone = next((i for i, st in enumerate(p2.spelltraps)
                 if st is not None and st.card == FLINT and st.face_up), None)
    if zone is None:
        return None
    cur = p2.spelltraps[zone].equipped_to
    for i, m in enumerate(p2.monsters):
        if m is not None and ((m.card == FLINT_LOCK and m.face_up and (1, MZONE, i) != cur)
                              if pull else m.card == CLARA):
            return ChangeEquipTarget(1, (1, SZONE, zone), (1, MZONE, i))
    return None


def _their_steps(run: Run, spoken: int, fill: Callable[..., None], *args
                 ) -> Optional[tuple[Run, int]]:
    """The opponent's steps that fill(line, *args) plans from run's end:
    the run they extend it to, one ``Run.extend`` per step, and spoken plus
    the number they speak; None when a step is not legal."""
    line = _planned(Line(run.last()), fill, *args)
    if line is None:
        return None
    for conf, mv, nxt in line.run.steps():
        run = run.extend(nxt, mv)
        spoken += _spoke(conf, nxt)
    return run, spoken


def _their_main(line: Line) -> None:
    """The opponent's turn from their decision point to their main phase."""
    _p2_draw(line)
    _to_phase(line, Phase.MAIN1)


def _p2_turns(run: Run, state: Hashable, choices: Iterable[tuple[int, bool]], s: Strategy
              ) -> Iterator[tuple[tuple[int, bool], Optional[tuple[Run, Hashable]]]]:
    """Each canonical opponent turn (k pulls, then parking or not) from
    their decision point, lazily: the (run, state) it leads to, the
    strategy having heard its number, or None when it cannot be played.

    The turns share their prefixes, each step made once: the draw and the
    walk to the main phase, then one chain of pulls where pull j + 1
    extends pull j, and per choice only the park and the walk to the end of
    the turn.  A step that fails fails the choices that go through it, and
    when the channel goes silent after j pulls, every longer speech ends
    there, unparked.
    """
    pulled: list[Optional[tuple[Run, int]]] = []  # (run, spoken) after j pulls
    silent = False  # the channel can say no further pull
    ends: dict[tuple[int, bool], Optional[tuple[Run, Hashable]]] = {}  # (pulls, parked)
    for k, park in choices:
        if not pulled:
            pulled.append(_their_steps(run, 0, _their_main))
        while len(pulled) <= k and pulled[-1] is not None and not silent:
            r, spoken = pulled[-1]
            mv = _retarget(r.last().players[1], pull=True)
            silent = mv is None
            if not silent:
                pulled.append(_their_steps(r, spoken, Line.do, mv))
        j = min(k, len(pulled) - 1)  # below k past a silence or a failed pull
        node, parking = pulled[j], None
        if node is not None and park and 0 < k == j:
            parking = _retarget(node[0].last().players[1], pull=False)
        key = (j, parking is not None)
        if key not in ends:
            if parking is not None:
                node = _their_steps(*node, Line.do, parking)
            end = None if node is None else _their_steps(*node, _p2_end)
            ends[key] = end and (end[0], s.hear(state, end[1]))
        yield (k, park), ends[key]


def _terminal_kind(conf: Configuration) -> Optional[str]:
    return WIN if is_winning_state(conf, 0) else LOSS if is_winning_state(conf, 1) else None


def _drive(run: Run, state: Hashable, s: Strategy, last_turn: Optional[int] = None
           ) -> tuple[Run, Optional[str]]:
    """Follow the strategy's turns up to the opponent's next decision point:
    the first configuration of their turn, so no opponent turn ends along a
    drive and the heard state holds (a run that ends inside an opponent's
    turn, past that point, has the rest of the turn passed out unheard).
    Each turn, ours from ``next_move`` and theirs from ``_their_steps``, is
    linked whole and judged at its end, as no planned line (``_own_turn``)
    or moved one (``frame.transport``) has a terminal before it.  A moved
    turn is linked as one ``Run`` node: its end is built, and the
    configurations before it are left to the node until a read of the
    run's configurations or steps.

    Returns the run reached and None there, or why the drive stopped first:
    WIN or LOSS at a terminal state, LOSS when the strategy strands (the
    run ends before the turn it could not answer), UNDETERMINED past
    last_turn or once MAX_STEPS of our moves are made, judged between turns.
    """
    steps = 0  # our moves made
    while True:
        conf = run.last()
        kind = _terminal_kind(conf)
        if kind is not None:
            return run, kind
        if last_turn is not None and conf.turn > last_turn:
            return run, UNDETERMINED
        if conf.active == 1:
            if conf.phase == Phase.DRAW and conf.priority == 1:
                return run, None  # the opponent's decision point
            played = _their_steps(run, 0, _p2_turn)
            if played is None:
                return run, LOSS
            run = played[0]
            continue
        if steps >= MAX_STEPS:
            return run, UNDETERMINED
        turn = s.next_move(conf, state)
        if turn is None:
            return run, LOSS
        if isinstance(turn, MovedLine):
            run = run.extend(turn)
        else:
            for mv, nxt in turn:
                run = run.extend(nxt, mv)
        steps += len(turn)


class _Node:
    """An explored line, from the (configuration, heard state) it starts at
    to the opponent's next choice: its moves, the configuration it ends at,
    its kind (why the drive stopped, None at their choice, until settled)
    and the opponent's turns there, as ``_p2_turns`` yields them.  A node
    ``check_winning`` settles keeps via (the turn its witness goes on
    through, and the child) and drops its end and turns."""

    __slots__ = ("moves", "end", "kind", "turns", "via")


class _Dag:
    """The lines explored below a run, one node per (configuration, heard
    state) a line starts at, the pair that alone fixes its drive and the
    choices after it: lines that meet share a node, so each is driven once.
    No node refers back to the DAG, so its nodes go with it, cycle-free."""

    def __init__(self, s: Strategy, budget: Budget, last_turn: int, most: int):
        self.s, self.budget, self.last_turn = s, budget, last_turn
        self.most = most  # the most rounds one _round moves: 1 for a tree, a node per round
        self.nodes: dict[tuple[Configuration, Hashable], _Node] = {}

    def node(self, run: Run, state: Hashable,
             driven: Optional[tuple[Run, Optional[str], Optional[MovedLine]]] = None) -> _Node:
        """The line from run's end, driven the first time it is reached
        unless its drive, (end, kind, the record of the round into it), is
        given.  A decision point with one choice and room for a round within
        the last turn keeps its (end, state, record) as its turns, for
        ``_round``; any other, an iterator."""
        node = self.nodes.get((run.last(), state))
        if node is None:
            node = self.nodes[run.last(), state] = _Node()
            end, node.kind, record = driven or (*_drive(run, state, self.s, self.last_turn), None)
            node.moves, node.end, node.via = end.moves_after(len(run)), end.last(), None
            choices = () if node.kind is not None else _p2_turn_choices(node.end, self.budget)
            if not choices:
                node.turns = iter(())
            elif choices == [(0, True)] and node.end.turn + 2 <= self.last_turn:
                node.turns = (end, state, record)
            else:
                node.turns = _p2_turns(end, state, choices, self.s)
        return node

    def _round(self, run: Run, state: Hashable, record: Optional[MovedLine]
               ) -> tuple[Optional[Run], Optional[_Node]]:
        """The round from a decision point with one choice: the opponent's
        turn and the drive after it to their next decision point.  Gives
        the run into our turn and the node there, both None when their turn
        cannot be played.

        The record of a round that repeats itself is moved onto each
        round's end in turn (``MovedLine.onto``) while its guards hold and
        the round ends within the last turn, up to the DAG's most: all but
        the last round are linked as one ``Run`` node, and the last is split
        at our turn, whose start is the child, which carries the record on.
        ``frame.transport``'s lemma covers both players' turns in them, so
        each is the round played there.  Without a record, or where it no
        longer moves, the round is played as any opponent turn is, by
        ``_p2_turns`` and, for a new child, its ``_drive``; it becomes the
        child's record when it ends at its start's ``unframed`` key
        (``frame.repeating``), with what the round's planners read beyond
        the key as it was: the heard state, the counters and the opponent's
        hand size, compared before its steps are read."""
        conf, rounds = run.last(), []
        while record is not None and len(rounds) < self.most \
                and conf.turn + 2 <= self.last_turn \
                and (moved := record.onto(conf)) is not None:
            rounds.append(moved)
            conf = moved.last()
        if rounds:
            theirs, ours = rounds[-1].split(_ours)
            run = run.extend(Joined(rounds[:-1])).extend(theirs)
            return run, self.node(run, state, (run.extend(ours), None, record))
        (_choice, child), = _p2_turns(run, state, [(0, True)], self.s)
        if child is None:
            return None, None
        node = self.nodes.get((child[0].last(), child[1]))
        if node is None:  # not reached before: driven now
            end, kind = _drive(*child, self.s, self.last_turn)
            back = end.last()
            repeats = kind is None and child[1] == state \
                and (spell_counters(back), len(back.players[1].hand)) \
                == (spell_counters(conf), len(conf.players[1].hand))
            record = repeating(list(end.steps(len(run)))) if repeats else None
            node = self.node(*child, (end, kind, record))
        return child[0], node

    def turn(self, node: _Node) -> Optional[tuple[int, Optional[Run], Optional[_Node]]]:
        """node's next opponent turn as (coded choice, run into the child,
        child), those two None when it cannot be played, or None past the
        last; the child is made, and driven or moved, as its turn is read."""
        if node.turns.__class__ is tuple:  # a round still to read
            run, child = self._round(*node.turns)
            node.turns = iter(())
            return pair(0, 1), run, child
        step = next(node.turns, None)
        if step is None:
            return None
        (k, park), child = step
        run, child = (None, None) if child is None else (child[0], self.node(*child))
        return pair(k, int(park)), run, child


def _ours(conf: Configuration) -> bool:
    """Whether our turn has begun: where a round splits."""
    return conf.active == 0


def check_winning(run: Run, s: Strategy, budget: Budget) -> WinVerdict:
    """Explore every opponent line within the budget.

    Win: every explored branch reaches Player 1's victory, and either the
    budget's number cap is declared exhaustive or the opponent never had a
    capped choice.  Loss: some branch defeats Player 1 or strands the
    strategy.  Anything cut off by the budget is Undetermined.  A terminal
    root has its verdict; at another in our turn and priority, a first drive
    that loses with nothing played raises StrategyUndefinedAtRoot.

    The verdict is a fold of kinds over the explored DAG, depth first: the
    first LOSS ends it, and a branch point takes its last Undetermined
    child, else its first WIN, else (capped or childless) Undetermined.
    A settled node keeps its kind and the turn its witness continues
    through, and the witness is read off those from the root down.  A
    batch of rounds is one edge: the decision points it passes have one
    choice each, whose child's kind they would take.
    """
    root, base_len = run.last(), len(run)
    dag = _Dag(s, budget, root.turn + budget.max_turns, budget.max_turns)
    node = dag.node(run, s.observe(run))
    if node.kind == LOSS and not node.moves and root.active == root.priority == 0 \
            and not _terminal_kind(root):
        raise StrategyUndefinedAtRoot(str(s.descriptor))  # no turn answered from the root
    kept: dict[tuple[Move, ...], tuple[Move, ...]] = {}  # a via turn per value: most are passes
    stack: list[tuple[_Node, Run]] = []  # open branch points, the runs into them: no recursion
    while True:
        if node.kind is None:  # a branch point, reached for the first time
            stack.append((node, run))
        elif node.kind == LOSS:
            return WinVerdict(LOSS, run.moves_after(base_len) + node.moves)
        elif not stack:  # the root: its witness runs down the settled turns
            kind, out = node.kind, []
            while node is not None:
                out += node.moves
                turn, node = node.via or ((), None)
                out += turn
            return WinVerdict(kind, tuple(out))
        else:  # a settled kind folds into the branch point above it
            top, reach = stack[-1]
            if node.kind == UNDETERMINED or top.kind is None:
                turn = run.moves_after(len(reach) + len(top.moves))
                top.kind, top.via = node.kind, (kept.setdefault(turn, turn), node)
            node.end = node.turns = None
        top, reach = stack[-1]
        step = dag.turn(top)
        if step is None:
            node, run = stack.pop()
            if node.kind is None or node.kind == WIN and has_channel(node.end) \
                    and not budget.cap_exhaustive:
                node.kind, node.via = UNDETERMINED, None
        elif step[2] is None:  # a turn that cannot be played: a LOSS leaf
            return WinVerdict(LOSS, reach.moves_after(base_len) + top.moves)
        else:
            _choice, run, node = step


def drive_to_choice(run: Run, s: Strategy) -> Optional[Run]:
    """Play the strategy up to the opponent's next decision point or a
    terminal state; None when the strategy strands or runs out of steps."""
    run, stop = _drive(run, s.observe(run), s)
    return run if stop is None or _terminal_kind(run.last()) is not None else None


def play_opponent_number(run: Run, s: Strategy, k: int) -> Optional[Run]:
    """One opponent turn speaking the number k, then back to our side."""
    state = s.observe(run)
    run, stop = _drive(run, state, s)
    if stop is not None:  # terminal, or the strategy stranded
        return run if _terminal_kind(run.last()) is not None else None
    _choice, played = next(_p2_turns(run, state, [(k, True)], s))
    return None if played is None else played[0]


# --- strategy trees -----------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class StrategyTree:
    """A node and the (coded choice, subtree) edges below it.  Equality,
    hashing and repr are the dataclass's, made by walks that need no
    recursion, so a tree of any depth can be compared and printed."""
    code: int
    winning: Optional[bool]
    children: tuple[tuple[int, "StrategyTree"], ...] = ()

    def _preorder(self) -> tuple:
        """(code, winning, edge label, child count) per node, in preorder."""
        out, todo = [], [(None, self)]
        while todo:
            label, node = todo.pop()
            out.append((node.code, node.winning, label, len(node.children)))
            todo.extend(reversed(node.children))
        return tuple(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        return hash(self._preorder())

    def __repr__(self):
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"StrategyTree(code={item.code!r}, winning={item.winning!r}, children=(")
            todo.append(",))" if len(item.children) == 1 else "))")
            for i in reversed(range(len(item.children))):
                label, child = item.children[i]
                todo += [")", child, f"{', ' if i else ''}({label!r}, "]
        return "".join(out)

    def size(self) -> int:
        n, todo = 0, [self]
        while todo:
            n += 1
            todo.extend(child for _c, child in todo.pop().children)
        return n


def to_tree(s: Strategy, run: Run, depth: int, budget: Budget) -> StrategyTree:
    """Depth-truncated localization of the strategy after the given run.

    Nodes sit at the opponent's decision points; edges carry the coded
    number choice; leaves are marked by the win check on their segment,
    and a drive that passes the budget's last turn ends in an open leaf.
    The tree is the unfolding of the explored DAG (``_Dag``) to the depth,
    so a line that two branches reach is driven once; the DAG moves one
    round of a record at a time, so each decision point is a node of it.
    """
    dag = _Dag(s, budget, run.last().turn + budget.max_turns, 1)
    edges: dict[_Node, list[tuple[int, Optional[_Node]]]] = {}  # per node, its turns read
    node = dag.node(run, s.observe(run))
    # open tree nodes (edge label into it, node, levels left below it, code,
    # subtrees built) live on an explicit stack: no deep recursion for a deep tree
    stack = [(None, node, depth, encode_configuration(node.end), [])]
    while True:
        label, node, d, code, built = stack[-1]
        read = edges.setdefault(node, [])
        if len(read) == len(built) and d > 0 and (step := dag.turn(node)) is not None:
            choice, _run, child = step
            read.append((choice, child))
        if d == 0 or len(read) == len(built):
            stack.pop()
            tree = StrategyTree(code, {WIN: True, LOSS: False}.get(node.kind), tuple(built))
            if not stack:
                return tree
            stack[-1][4].append((label, tree))
            continue
        choice, child = read[len(built)]
        if child is None:
            built.append((choice, StrategyTree(code, False)))
        else:
            stack.append((choice, child, d - 1, encode_configuration(child.end), []))


WELL_FOUNDED = "all-branches-terminate-winning"


@dataclass(frozen=True)
class OpenBranch:
    path: tuple[int, ...]


def well_founded_to_depth(tree: StrategyTree, depth: int):
    """Every maximal branch within depth must end at a Winning leaf."""
    todo = [(tree, (), depth)]
    while todo:
        node, path, d = todo.pop()
        if node.winning is True:
            continue
        if node.winning is False or not node.children or d == 0:
            # a losing leaf, or an unresolved frontier: not yet well-founded
            return OpenBranch(path)
        todo.extend((child, path + (code,), d - 1) for code, child in reversed(node.children))
    return WELL_FOUNDED
