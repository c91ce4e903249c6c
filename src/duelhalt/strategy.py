"""Strategies, the budgeted winning checker, and strategy trees.

A strategy is a partial function from runs to Player 1's next
configuration, and a move depends only on the configuration and the
strategy's heard state: what it made of the opponent's numbers so far.
`observe` derives the state from a run in one walk and `hear` advances it
per finished opponent turn, so the explorer carries (run, state) and never
re-walks a run.  The three families plan one of their own turns at a time
and replay the plan move by move; outside their scripted prefixes they
are undefined, matching the localization picture.

`next_move` answers with a (move, next configuration) pair, and the next
configuration is the one the planned line reached: the one `apply`
produced when the plan was simulated, or one moved by `rules.transport`
from a recorded line that `apply` made.  Two tables hold recorded lines:
the increment cycles the strategy's planned lines played, linked by a
shift of the counters and the opponent's LP, and the turns it planned,
moved onto a later start that differs only in the frame (the opponent's
LP, deck, hand and graveyard, the turn and the stamps at or after it).
The lemma stated on `transport` equates a moved line with what `apply`
gives under guards read off the two starts and the recorded line.  A
turn's planner reads the frame only through the engine (the legality
of its moves and the terminal tests; the cycle table reads the LP too,
but only to choose between linking a cycle and applying it), so the turn
it plans from a moved start is the moved turn; the counters, our own
side and the heard state stay in the table's key.  Plans are cached on (configuration, mode) and
configurations compare by value, so a cached pair from an equal
configuration still equals what `apply` gives.  Both players' turns are
planned lines: ours by the strategy, the opponent's canonical turns by
`_p2_turns`.  `_drive` and the explorer extend the run with the planned
configurations and choose or apply no move of their own, so each
transition is applied at most once, by the line that plans it.

The winning checker and the strategy trees share one explorer of the
opponent's choices.  Those are numbers spoken through the equip-retarget
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
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional

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
    apply,
    encode_configuration,
    is_winning_state,
)
from .engine.config import EXTRA, HAND, MZONE, SZONE
from .engine.rules import line_frame, spell_counters, transport, unframed
from .scripts import (
    CycleTable,
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
    budget: Optional[Budget] = None

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


class _Turn(NamedTuple):
    """A planned turn as the turn table records it."""
    start: Configuration
    moves: tuple[Move, ...]
    confs: tuple[Configuration, ...]  # the configuration after each move
    low: int  # the opponent's lowest LP along it
    piles: bool  # whether the opponent's piles may move under it


# the opponent's LP at which no read of it in a turn can tell a transported
# turn from the planned one: Soul Drain's payment
_LP_GUARD = 1000


class Strategy:
    """Deterministic turn planner: a move depends only on the configuration
    and the heard state."""

    def __init__(self, descriptor: tuple):
        self.descriptor = descriptor
        self._plan: dict[tuple[Configuration, Hashable], Step] = {}
        # the increment cycles its planned lines played, for the lines after
        self._cycles: CycleTable = {}
        # the turns it planned, under their start with the frame taken out
        self._turns: dict[tuple[Configuration, Hashable], list[_Turn]] = {}

    def observe(self, run: Run) -> Hashable:
        """The heard state at the end of the run, from one walk of it."""
        if not isinstance(run, Run):
            raise TypeError("strategies hear the whole run, not a configuration")
        return None

    def hear(self, state: Hashable, n: int) -> Hashable:
        """The state after an opponent turn that spoke the number n."""
        return state

    def next_move(self, conf: Configuration, state: Hashable) -> Optional[Step]:
        """Our move at conf and the configuration it leads to; None where
        the strategy is undefined.  Plans cover our whole turn, the
        opponent's passes in it included.

        A turn from a start that differs from a recorded turn's only in the
        frame, and passes the guards of ``rules.transport``'s lemma, is the
        recorded turn moved onto it; any other turn is planned and
        recorded.  Both fill the plan cache alike."""
        mode = self._reads(state)
        if (conf, mode) in self._plan:
            return self._plan[conf, mode]
        key = (unframed(conf), mode) if conf.turn >= 2 else None
        steps = self._transported(conf, key)
        if steps is None:
            line = self._plan_turn(conf, mode)
            if line is None:
                return None
            steps = list(line.run.steps())
            frame = line_frame(steps)  # None from before turn 2, as key
            if frame is not None:
                self._turns.setdefault(key, []).append(_Turn(
                    conf, tuple(mv for _c, mv, _n in steps),
                    tuple(nxt for _c, _m, nxt in steps), *frame))
        self._plan.update(((c, mode), (mv, nxt)) for c, mv, nxt in steps)
        return self._plan.get((conf, mode))

    def _transported(self, conf: Configuration, key) -> Optional[list]:
        """The steps of the first recorded turn under key that the guards
        let move onto conf, moved there; None when there is none.  The
        guards: the opponent's LP moves by 0 or stays at _LP_GUARD or more
        along both turns, and a turn whose piles may not move goes only
        onto equal piles (the key holds the rest)."""
        p2 = conf.players[1]
        for turn in self._turns.get(key, ()):
            was = turn.start.players[1]
            dl = p2.lp - was.lp
            if dl and min(turn.low, turn.low + dl) < _LP_GUARD:
                continue
            if not turn.piles and (p2.deck, p2.hand, p2.gy) != (was.deck, was.hand, was.gy):
                continue
            confs = transport(turn.confs, turn.start, conf)
            return list(zip([conf, *confs], turn.moves, confs))
        return None

    def _reads(self, state: Hashable) -> Hashable:
        """What the planner reads from the state; plans are cached on it."""
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
    it, and pass the turn unless the game is won."""
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
        return _planned(Line(conf, self._cycles), _own_turn, self._play_turn)

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
        return _planned(Line(conf, self._cycles), _own_turn, self._play_turn, mode)

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


def _p2_has_channel(conf: Configuration) -> bool:
    p2 = conf.players[1]
    flint = any(st is not None and st.card == FLINT and st.face_up for st in p2.spelltraps)
    locks = sum(1 for m in p2.monsters if m is not None and m.card == FLINT_LOCK and m.face_up)
    return flint and locks >= 1


def _p2_turn_choices(conf: Configuration, budget: Budget) -> list[tuple[int, bool]]:
    """Canonical opponent turns: (pulls, parked).  Pass-only turns are (0, True)."""
    ks = range(1, budget.max_opponent_number + 1) if _p2_has_channel(conf) else ()
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
    """Follow the strategy's plans up to the opponent's next decision point:
    the first configuration of their turn, so no opponent turn ends along a
    drive and the heard state holds (a run that ends inside an opponent's
    turn, past that point, has the rest of the turn passed out unheard).

    Returns the run reached and None there, or why the drive stopped first:
    WIN or LOSS at a terminal state, LOSS when the strategy strands (the
    run ends before the move it could not make), UNDETERMINED past
    last_turn or after MAX_STEPS moves.
    """
    steps = 0
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
        if steps == MAX_STEPS:
            return run, UNDETERMINED
        step = s.next_move(conf, state)
        if step is None:
            return run, LOSS
        mv, nxt = step
        run = run.extend(nxt, mv)
        steps += 1


def _expand(s: Strategy, run: Run, state: Hashable, budget: Budget,
            last_turn: Optional[int] = None) -> tuple[Run, Optional[str], Iterator]:
    """The explorer's step: drive to the opponent's next choice.  Returns
    the run reached, why the drive stopped (None at a branch point) and,
    lazily, each canonical opponent turn there with the (run, state) it
    leads to, or None when it cannot be played (a LOSS leaf)."""
    run, stop = _drive(run, state, s, last_turn)
    choices = _p2_turn_choices(run.last(), budget) if stop is None else []
    return run, stop, _p2_turns(run, state, choices, s)


@dataclass
class _Branch:
    """An opponent decision point whose choices check_winning is exploring."""
    key: tuple[Configuration, Hashable]  # where the line into it started,
    met: int  # and its witness length there
    run: Run
    children: Iterator  # of _expand
    capped: bool  # running into the number cap leaves the branch undetermined
    first_win: Optional[WinVerdict] = None
    undetermined: Optional[WinVerdict] = None


def check_winning(run: Run, s: Strategy, budget: Budget) -> WinVerdict:
    """Explore every opponent line within the budget.

    Win: every explored branch reaches Player 1's victory, and either the
    budget's number cap is declared exhaustive or the opponent never had a
    capped choice.  Loss: some branch defeats Player 1 or strands the
    strategy.  Anything cut off by the budget is Undetermined.
    """
    state, root = s.observe(run), run.last()
    if root.active == 0 and root.priority == 0 and s.next_move(root, state) is None:
        raise StrategyUndefinedAtRoot(str(s.descriptor))
    last_turn = root.turn + budget.max_turns
    base_len = len(run)
    # a line's verdict depends only on the configuration and heard state it
    # starts from, so lines that meet take the first one's verdict and moves
    # (each kept with its witness length where the line started)
    seen: dict[tuple[Configuration, Hashable], tuple[WinVerdict, int]] = {}

    def witness(r: Run) -> tuple[Move, ...]:
        return tuple(mv for _c, mv, _n in r.steps(base_len))

    def explore(r: Run, st: Hashable) -> WinVerdict | _Branch:
        """A verdict, or the branch point at the opponent's next choice."""
        key, met = (r.last(), st), len(r) - base_len
        if key in seen:
            first, first_met = seen[key]
            return WinVerdict(first.kind, witness(r) + first.witness[first_met:], budget)
        r, stop, children = _expand(s, r, st, budget, last_turn)
        if stop is not None:
            seen[key] = WinVerdict(stop, witness(r), budget), met
            return seen[key][0]
        return _Branch(key, met, r, children,
                       _p2_has_channel(r.last()) and not budget.cap_exhaustive)

    # open branch points live on an explicit stack, so a long game needs no
    # deep recursion; each verdict settles into the branch point above it
    stack: list[_Branch] = []
    node = explore(run, state)
    while True:
        if isinstance(node, _Branch):
            stack.append(node)
        elif node.kind == LOSS or not stack:
            return node
        elif node.kind == UNDETERMINED:
            stack[-1].undetermined = node
        elif stack[-1].first_win is None:
            stack[-1].first_win = node
        top = stack[-1]
        step = next(top.children, None)
        if step is not None:
            child = step[1]
            node = WinVerdict(LOSS, witness(top.run), budget) if child is None else explore(*child)
            continue
        stack.pop()
        if top.undetermined is not None:
            node = top.undetermined
        elif top.capped or top.first_win is None:
            node = WinVerdict(UNDETERMINED, witness(top.run), budget)
        else:
            node = top.first_win
        seen[top.key] = node, top.met


def replay_witness(run: Run, moves: Iterable[Move]) -> Run:
    for mv in moves:
        run = run.extend(apply(run.last(), mv), mv)
    return run


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


@dataclass
class _Open:
    """A tree node whose children to_tree is still building."""
    label: Optional[int]  # the coded choice on the edge into it
    code: int
    depth: int  # levels left below it
    children: Iterator  # of _expand
    edges: list[tuple[int, StrategyTree]]


def to_tree(s: Strategy, run: Run, depth: int, budget: Optional[Budget] = None) -> StrategyTree:
    """Depth-truncated localization of the strategy after the given run.

    Nodes sit at the opponent's decision points; edges carry the coded
    number choice; leaves are marked by the win check on their segment,
    and a drive that passes the budget's last turn ends in an open leaf.
    """
    budget = budget or Budget(max_turns=depth * 4 + 20, max_opponent_number=8)
    last_turn = run.last().turn + budget.max_turns
    # open nodes live on an explicit stack, so a deep tree needs no deep
    # recursion; the bottom one only holds the root
    stack = [_Open(None, 0, depth + 1, iter(()), [])]

    def visit(label: Optional[int], r: Run, st: Hashable, d: int) -> None:
        """Add the node reached from r under the top node: a leaf, or an
        open node pushed onto the stack."""
        r, stop, children = _expand(s, r, st, budget, last_turn)
        code = encode_configuration(r.last())
        if stop is None and d > 0:
            stack.append(_Open(label, code, d, children, []))
        else:
            leaf = StrategyTree(code, stop == WIN if stop in (WIN, LOSS) else None)
            stack[-1].edges.append((label, leaf))

    visit(None, run, s.observe(run), depth)
    while len(stack) > 1:
        top = stack[-1]
        step = next(top.children, None)
        if step is None:
            stack.pop()
            stack[-1].edges.append((top.label, StrategyTree(top.code, None, tuple(top.edges))))
            continue
        (k, park), child = step
        label = pair(k, int(park))
        if child is None:
            top.edges.append((label, StrategyTree(top.code, False)))
        else:
            visit(label, *child, top.depth - 1)
    return stack[0].edges[0][1]


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
