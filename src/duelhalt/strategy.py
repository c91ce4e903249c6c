"""Strategies, the budgeted winning checker, and strategy trees.

A strategy is a partial function from runs to Player 1's next
configuration.  The three families here plan one of their own turns at a
time and replay the plan move by move; outside their scripted prefixes
they are undefined, matching the localization picture.

The winning checker explores every opponent line inside a budget.  The
opponent's only real choices in these constructions are numbers spoken
through the equip-retarget channel, so a turn of theirs is canonicalized
to "pull the equip k times, then park it (or not)".  A budget can declare
its number cap exhaustive (the bounded-adversary reading used by the desk
tests); otherwise running into the cap yields an honest Undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

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
    DiscardToLimit,
    DrawCard,
    Move,
    Pass,
    Phase,
    Run,
    apply,
    is_winning_state,
)
from .engine.config import EXTRA, HAND, MZONE, SZONE
from .engine.rules import is_legal, spell_counters
from .scripts import (
    CLARA,
    FLINT,
    FLINTLOCK,
    Line,
    RAIGEKI,
    YATA,
    _end_turn,
    _negate_protector_if_needed,
    _offer_magician,
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


class Strategy:
    """Deterministic turn planner with per-configuration move lookup."""

    descriptor: tuple

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self._plan: dict[Configuration, Move] = {}

    # -- public surface -------------------------------------------------------

    def next_move(self, run: Run) -> Optional[Move]:
        if not isinstance(run, Run):
            raise TypeError("strategies take the whole run, not a configuration")
        conf = run.last()
        if conf.priority != 0:
            return None
        if conf.active == 1:
            return Pass(0)  # response windows during their turn: wave through
        if conf in self._plan:
            return self._plan[conf]
        planned = self._plan_turn(conf, run)
        if not planned:
            return None
        moves, configs = planned
        for c, mv in zip(configs, moves):
            self._plan[c] = mv
        return self._plan.get(conf)

    # -- subclass hook --------------------------------------------------------

    def _plan_turn(self, conf: Configuration, run: Run
                   ) -> Optional[tuple[list[Move], list[Configuration]]]:
        """Plan the turn from conf: (moves, the configs they apply from)."""
        raise NotImplementedError


_PLAN_FAILS = (ScriptBroken, NotLoopReady, InsufficientCounters, IllegalMove, MalformedCode)


def _plan_own_turn(conf: Configuration, play: Callable[[Line], None]
                   ) -> Optional[tuple[list[Move], list[Configuration]]]:
    """Simulate one of our turns from conf: walk to the main phase, let play
    fill it, and pass the turn unless the game is won.  None when the turn
    does not start in a main phase or a step of it is not legal."""
    line = Line(conf)
    try:
        if conf.phase == Phase.DRAW:
            _to_phase(line, Phase.MAIN1)
        if line.conf.phase not in (Phase.MAIN1, Phase.MAIN2):
            return None
        play(line)
        if not is_winning_state(line.conf, 0):
            _end_turn(line)
    except _PLAN_FAILS:
        return None
    return line.moves, line.configs[:-1]


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
        mv = DeclareAttack(0, loc, DIRECT)
        if is_legal(line.conf, mv):
            line.do(mv)


class TMStrategy(Strategy):
    """Simulate machine e on the spell counters; attack out when it halts."""

    def __init__(self, e: int):
        super().__init__(("tm", e))
        self.e = e
        m = tmmod.machine_from_index(e)
        if isinstance(m, tmmod.AppendixMachine):
            m = tmmod.EMPTY_MACHINE  # no tape semantics; treat as immediate halt
        self.machine = m

    def _plan_turn(self, conf, run):
        return _plan_own_turn(conf, self._play_turn)

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


def _p2_turn_gains(run: Run, from_index: int) -> list[int]:
    """Numbers heard so far: +1000 steps of their LP per completed turn."""
    configs = run.configs
    gains: list[int] = []
    current: Optional[int] = None  # turn number of the opponent turn in progress
    count = 0
    for i in range(from_index, len(configs)):
        c = configs[i]
        if c.active == 1:
            if current is None or c.turn != current:
                if current is not None:
                    gains.append(count)
                current = c.turn
                count = 0
            if i + 1 < len(configs) and configs[i + 1].turn == c.turn:
                delta = configs[i + 1].players[1].lp - c.players[1].lp
                if delta == 1000:
                    count += 1
        elif current is not None:
            gains.append(count)
            current = None
            count = 0
    # an opponent turn still in progress has not produced its number yet
    return gains


class _ChannelStrategy(Strategy):
    """Shared skeleton for the number-channel strategies (second deck)."""

    def __init__(self, descriptor, base_run: Run):
        super().__init__(descriptor)
        self.base_run = base_run
        self.base_len = len(base_run.configs)

    def _on_base(self, run: Run) -> bool:
        if len(run.configs) < self.base_len:
            return False
        return run.configs[self.base_len - 1] == self.base_run.configs[-1]

    def _mode(self, run: Run) -> str:
        """'wait' while the chain holds, 'raigeki' once it breaks."""
        numbers = _p2_turn_gains(run, self.base_len - 1)
        return self._judge(numbers)

    def _judge(self, numbers: list[int]) -> str:
        raise NotImplementedError

    def _plan_turn(self, conf, run):
        if not self._on_base(run):
            return None
        return _plan_own_turn(conf, lambda line: self._play_turn(line, run))

    def _play_turn(self, line: Line, run: Run) -> None:
        _negate_protector_if_needed(line)
        mode = self._mode(run)
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
    """First number is a triple (a1, a2, t1), later ones pairs (a_k+1, t_k)."""

    def __init__(self, e: int, base_run: Run):
        super().__init__(("nis", e), base_run)
        self.e = e

    def _judge(self, numbers):
        expect: Optional[int] = None
        for i, n in enumerate(numbers):
            if n == 0:
                return "raigeki"
            if i == 0:
                a1, a2, t1 = untriple(n)
                r = tmmod.run_bounded(self.e, a2, t1)
                if not isinstance(r, tmmod.Converged) or r.output != a1:
                    return "raigeki"
                expect = a2
            else:
                a_next, t = unpair(n)
                r = tmmod.run_bounded(self.e, a_next, t)
                if not isinstance(r, tmmod.Converged) or r.output != expect:
                    return "raigeki"
                expect = a_next
        return "wait"


class WOStrategy(_ChannelStrategy):
    """Numbers spell a strictly descending chain in the given order."""

    def __init__(self, order, base_run: Run):
        super().__init__(("wo", order.name), base_run)
        self.order = order

    def _judge(self, numbers):
        prev: Optional[int] = None
        for i, n in enumerate(numbers):
            if n == 0:
                return "raigeki"
            if i == 0:
                m, k = unpair(n)
                if not self.order.less(m, k):
                    return "raigeki"
                prev = m
            else:
                if not self.order.less(n, prev):
                    return "raigeki"
                prev = n
        return "wait"


def tm_strategy(e: int) -> Strategy:
    return TMStrategy(e)


def nis_strategy(e: int, base_run: Run) -> Strategy:
    return NISStrategy(e, base_run)


def wo_strategy(order, base_run: Run) -> Strategy:
    return WOStrategy(order, base_run)


# --- the budgeted winning checker ---------------------------------------------


def _p2_has_channel(conf: Configuration) -> bool:
    p2 = conf.players[1]
    flint = any(st is not None and st.card == FLINT and st.face_up for st in p2.spelltraps)
    locks = sum(1 for m in p2.monsters if m is not None and m.card == FLINTLOCK and m.face_up)
    return flint and locks >= 1


def _p2_turn_choices(conf: Configuration, budget: Budget) -> list[tuple[int, bool]]:
    """Canonical opponent turns: (pulls, parked).  Pass-only turns are (0, True)."""
    if not _p2_has_channel(conf):
        return [(0, True)]
    out: list[tuple[int, bool]] = [(0, True)]
    for k in range(1, budget.max_opponent_number + 1):
        out.append((k, True))
        out.append((k, False))
    return out


def _play_p2_turn(run: Run, choice: tuple[int, bool], s: Strategy) -> Optional[Run]:
    """Simulate one opponent turn (k pulls, optional parking) plus our windows."""
    k, park = choice
    pulls = 0
    parked = k == 0
    guard = 0
    limit = 400 + 3 * k
    while True:
        conf = run.last()
        if conf.active != 1 or _terminal_kind(conf) is not None:
            return run
        guard += 1
        if guard > limit:
            return None
        if conf.priority == 0:
            mv = s.next_move(run)
            if mv is None:
                return None
            run = run.extend(apply(conf, mv), mv)
            continue
        if conf.phase == Phase.DRAW and not conf.draw_done:
            if not conf.players[1].deck:
                return run  # they deck out at the mandatory draw
            mv: Move = DrawCard(1)
        elif conf.phase == Phase.END and len(conf.players[1].hand) > 6:
            excess = len(conf.players[1].hand) - 6
            mv = DiscardToLimit(1, conf.players[1].hand[:excess])
        elif conf.phase in (Phase.MAIN1, Phase.MAIN2) and (pulls < k or not parked):
            p2 = conf.players[1]
            flint_zone = next(
                (i for i, st in enumerate(p2.spelltraps)
                 if st is not None and st.card == FLINT and st.face_up),
                None,
            )
            if flint_zone is None:
                pulls, parked = k, True  # the channel is gone; nothing to say
                continue
            eq = (1, SZONE, flint_zone)
            cur = p2.spelltraps[flint_zone].equipped_to
            if pulls < k:
                locks = [i for i, m in enumerate(p2.monsters)
                         if m is not None and m.card == FLINTLOCK and m.face_up
                         and (1, MZONE, i) != cur]
                if not locks:
                    pulls, parked = k, True
                    continue
                mv = ChangeEquipTarget(1, eq, (1, MZONE, locks[0]))
                pulls += 1
                if pulls == k and not park:
                    parked = True  # deliberately leave it on the lock
            else:
                clara = next((i for i, m in enumerate(p2.monsters)
                              if m is not None and m.card == CLARA), None)
                if clara is None:
                    parked = True
                    continue
                mv = ChangeEquipTarget(1, eq, (1, MZONE, clara))
                parked = True
        else:
            mv = Pass(1)
        try:
            run = run.extend(apply(run.last(), mv), mv)
        except IllegalMove:
            return None


def _terminal_kind(conf: Configuration) -> Optional[str]:
    if is_winning_state(conf, 0):
        return WIN
    if is_winning_state(conf, 1):
        return LOSS
    return None


def _drive(run: Run, s: Strategy, last_turn: Optional[int] = None,
           max_steps: int = 200_000) -> tuple[Run, Optional[str]]:
    """Play the strategy, and pass the opponent's windows, up to their next
    decision point.

    Returns the run reached and None there, or why the drive stopped first:
    WIN or LOSS at a terminal state, LOSS when the strategy strands (the
    run ends before the move it could not make), UNDETERMINED past
    last_turn or after max_steps moves.
    """
    steps = 0
    while True:
        conf = run.last()
        kind = _terminal_kind(conf)
        if kind is not None:
            return run, kind
        if last_turn is not None and conf.turn > last_turn:
            return run, UNDETERMINED
        if conf.active == 1 and conf.phase == Phase.DRAW and conf.priority == 1:
            return run, None  # the opponent's decision point
        if steps == max_steps:
            return run, UNDETERMINED
        mv = s.next_move(run) if conf.priority == 0 else Pass(1)
        if mv is None:
            return run, LOSS
        try:
            run = run.extend(apply(conf, mv), mv)
        except IllegalMove:
            return run, LOSS
        steps += 1


@dataclass
class _Branch:
    """An opponent decision point whose choices check_winning is exploring."""
    run: Run
    choices: Iterator[tuple[int, bool]]
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
    if s.next_move(run) is None and run.last().priority == 0 \
            and run.last().active == 0:
        raise StrategyUndefinedAtRoot(str(s.descriptor))
    last_turn = run.last().turn + budget.max_turns
    base_len = len(run.moves)

    def witness(r: Run) -> tuple[Move, ...]:
        return r.moves[base_len:]

    def explore(r: Run) -> WinVerdict | _Branch:
        """Drive to the opponent's next choice: a verdict, or the branch point there."""
        r, stop = _drive(r, s, last_turn, max_steps=500_000)
        if stop is not None:
            return WinVerdict(stop, witness(r), budget)
        last = r.last()
        return _Branch(r, iter(_p2_turn_choices(last, budget)),
                       _p2_has_channel(last) and not budget.cap_exhaustive)

    # open branch points live on an explicit stack, so a long game needs no
    # deep recursion; each verdict settles into the branch point above it
    stack: list[_Branch] = []
    node = explore(run)
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
        choice = next(top.choices, None)
        if choice is not None:
            r2 = _play_p2_turn(top.run, choice, s)
            node = WinVerdict(LOSS, witness(top.run), budget) if r2 is None else explore(r2)
            continue
        stack.pop()
        if top.undetermined is not None:
            node = top.undetermined
        elif top.capped or top.first_win is None:
            node = WinVerdict(UNDETERMINED, witness(top.run), budget)
        else:
            node = top.first_win


def replay_witness(run: Run, moves: Iterable[Move]) -> Run:
    r = run
    for mv in moves:
        r = r.extend(apply(r.last(), mv), mv)
    return r


def drive_to_choice(run: Run, s: Strategy, max_steps: int = 200_000) -> Optional[Run]:
    """Play the strategy (and window passes) up to the opponent's next
    decision point or a terminal state; None when the strategy strands."""
    run, stop = _drive(run, s, max_steps=max_steps)
    if stop is None or _terminal_kind(run.last()) is not None:
        return run
    return None  # stranded, or out of steps


def play_opponent_number(run: Run, s: Strategy, k: int, park: bool = True
                         ) -> Optional[Run]:
    """One opponent turn speaking the number k, then back to our side."""
    run = drive_to_choice(run, s)
    if run is None or _terminal_kind(run.last()) is not None:
        return run
    return _play_p2_turn(run, (k, park), s)


# --- strategy trees -----------------------------------------------------------


@dataclass(frozen=True)
class StrategyTree:
    code: int
    winning: Optional[bool]
    children: tuple[tuple[int, "StrategyTree"], ...] = ()

    def size(self) -> int:
        return 1 + sum(child.size() for _c, child in self.children)


def to_tree(s: Strategy, run: Run, depth: int, budget: Optional[Budget] = None) -> StrategyTree:
    """Depth-truncated localization of the strategy after the given run.

    Nodes sit at the opponent's decision points; edges carry the coded
    number choice; leaves are marked by the win check on their segment.
    """
    from .engine import encode_configuration

    budget = budget or Budget(max_turns=depth * 4 + 20, max_opponent_number=8)

    def build(r: Run, d: int) -> StrategyTree:
        r2, stop = _drive(r, s)
        code = encode_configuration(r2.last())
        if stop in (WIN, LOSS):
            return StrategyTree(code, stop == WIN)
        if stop is not None or d == 0:
            return StrategyTree(code, None)
        kids = []
        for choice in _p2_turn_choices(r2.last(), budget):
            r3 = _play_p2_turn(r2, choice, s)
            if r3 is None:
                kids.append((pair(choice[0], int(choice[1])), StrategyTree(code, False)))
                continue
            kids.append((pair(choice[0], int(choice[1])), build(r3, d - 1)))
        return StrategyTree(code, None, tuple(kids))

    return build(run, depth)


WELL_FOUNDED = "all-branches-terminate-winning"


@dataclass(frozen=True)
class OpenBranch:
    path: tuple[int, ...]


def well_founded_to_depth(tree: StrategyTree, depth: int):
    """Every maximal branch within depth must end at a Winning leaf."""

    def walk(node: StrategyTree, path: tuple[int, ...], d: int):
        if node.winning is True:
            return None
        if node.winning is False:
            return OpenBranch(path)
        if not node.children or d == 0:
            return OpenBranch(path)  # unresolved frontier: not yet well-founded
        for code, child in node.children:
            bad = walk(child, path + (code,), d - 1)
            if bad is not None:
                return bad
        return None

    bad = walk(tree, (), depth)
    return WELL_FOUNDED if bad is None else bad
