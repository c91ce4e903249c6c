"""Turing machines, a fixed effective enumeration, and bounded evaluation.

Conventions, fixed once:

* Tapes are over {0, 1} with blank 0 for the curated machines; inputs are
  written LSB-first as the binary digits of n starting at position 0, and
  outputs read the tape back the same way (sum of 2^p over cells holding 1).
* The enumeration gives small indices to a curated family of hand-verified
  machines, then tags raw serialized tables (plain or oracle) and the
  appendix's parameterized machines; every natural decodes to some machine,
  with junk codes mapping to the empty machine.
* Oracle machines read one oracle cell per step (the step index), so a run
  of t steps can only depend on oracle positions below t.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

from .coding import NAT, Fixed, Reader, Seq, seq_decode, seq_encode
from .errors import BadIndex, MalformedCode, TMParseError

L, R, S = 0, 1, 2
_MOVES = {L: -1, R: 1, S: 0}


@dataclass(frozen=True)
class TMachine:
    n_states: int
    n_symbols: int
    blank: int
    start: int
    halting: frozenset[int]
    # rows (q, a, q', a', move); an oracle machine's rows are
    # (q, a, x, q', a', move) with x the oracle cell read on that step
    rules: tuple[tuple[int, ...], ...]
    oracle: bool = False

    @cached_property
    def _delta(self) -> dict:
        """(q, a), or (q, a, x) for an oracle machine, -> (q', a', head shift)."""
        return {row[:-3]: (row[-3], row[-2], _MOVES[row[-1]]) for row in self.rules}

    def check(self) -> None:
        if not 0 <= self.start < self.n_states:
            raise MalformedCode("start state out of range")
        if not 0 <= self.blank < self.n_symbols:
            raise MalformedCode("blank symbol out of range")
        for h in self.halting:
            if not 0 <= h < self.n_states:
                raise MalformedCode("halting state out of range")
        for row in self.rules:
            q, a = row[0], row[1]
            q2, a2, mv = row[-3], row[-2], row[-1]
            if q in self.halting:
                raise MalformedCode("rule from a halting state")
            ok = (
                0 <= q < self.n_states and 0 <= q2 < self.n_states
                and 0 <= a < self.n_symbols and 0 <= a2 < self.n_symbols
                and mv in (L, R, S)
            )
            if self.oracle and not 0 <= row[2] < 2:
                ok = False
            if not ok:
                raise MalformedCode("rule fields out of range")


@dataclass(frozen=True)
class TMConfiguration:
    tape: tuple[tuple[int, int], ...]  # sorted (position, symbol), blanks absent
    head: int
    state: int

    def read(self, blank: int) -> int:
        i = bisect_left(self.tape, (self.head,))
        return self.tape[i][1] if i < len(self.tape) and self.tape[i][0] == self.head else blank

    def value(self) -> int:
        """Tape read back as a number: sum of 2^p over cells holding 1."""
        return sum(1 << pos for pos, sym in self.tape if sym == 1 and pos >= 0)


@dataclass(frozen=True)
class Halted:
    config: TMConfiguration


def make_config(tape: dict[int, int], head: int, state: int, blank: int) -> TMConfiguration:
    cells = tuple(sorted((p, s) for p, s in tape.items() if s != blank))
    return TMConfiguration(cells, head, state)


def initial_config(m: TMachine, value: int) -> TMConfiguration:
    if value < 0:
        raise BadIndex(f"input value {value} is negative")
    tape = {}
    pos = 0
    v = value
    while v:
        if v & 1:
            tape[pos] = 1
        v >>= 1
        pos += 1
    return make_config(tape, 0, m.start, m.blank)


def step(m: TMachine, conf: TMConfiguration, oracle_bit: int = 0
         ) -> Union[TMConfiguration, Halted]:
    """One transition, or Halted in a halting state or where no rule applies.

    An oracle machine looks its rule up under oracle_bit as well; a plain
    machine ignores it.
    """
    if conf.state in m.halting:
        return Halted(conf)
    tape, head = conf.tape, conf.head
    i = bisect_left(tape, (head,))
    here = i < len(tape) and tape[i][0] == head
    key = (conf.state, tape[i][1] if here else m.blank)
    rule = m._delta.get(key + (oracle_bit,) if m.oracle else key)
    if rule is None:
        return Halted(conf)
    q2, a2, shift = rule
    cell = ((head, a2),) if a2 != m.blank else ()
    return TMConfiguration(tape[:i] + cell + tape[i + here:], head + shift, q2)


def oracle_step(m: TMachine, conf: TMConfiguration, oracle_bit: int
                ) -> Union[TMConfiguration, Halted]:
    """`step` under an explicit oracle bit (perfbench traces this name)."""
    return step(m, conf, oracle_bit)


def step_n(m: TMachine, conf: TMConfiguration, n: int) -> TMConfiguration:
    """n steps against the all-blank oracle; a halted machine's configuration freezes."""
    for _ in range(n):
        nxt = step(m, conf)
        if isinstance(nxt, Halted):
            return nxt.config
        conf = nxt
    return conf


def halted(m: TMachine, conf: TMConfiguration) -> bool:
    """In a halting state, or no rule for the scanned symbol under either oracle bit."""
    if conf.state in m.halting:
        return True
    key = (conf.state, conf.read(m.blank))
    if m.oracle:
        return key + (0,) not in m._delta and key + (1,) not in m._delta
    return key not in m._delta


# --- configuration <-> number ---------------------------------------------
#
# Small configurations (the curated machines' whole reachable set) pack
# into a mixed-radix number so the spell-counter compositions stay short;
# everything else escapes into the sequence code above a fixed offset.

_COMPACT_BASE = 1
_COMPACT_T = 256      # tape bits at positions 0..7
_COMPACT_HEADS = 8
_COMPACT_STATES = 16
_OVERFLOW = 40000


def _zig(n: int) -> int:
    return 2 * n if n >= 0 else -2 * n - 1


def _unzig(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def encode_tmconf(conf: TMConfiguration) -> int:
    """Injective code; 0 is reserved for the empty string and never produced.

    State and head sit in the low digits so a single machine step only
    nudges the code; the spell-counter compositions that track a running
    machine stay short because of this.
    """
    compact = (
        0 <= conf.state < _COMPACT_STATES
        and 0 <= conf.head < _COMPACT_HEADS
        and all(0 <= p < 8 and s == 1 for p, s in conf.tape)
    )
    if compact:
        t = sum(1 << p for p, _s in conf.tape)
        return _COMPACT_BASE + conf.state + _COMPACT_STATES * (conf.head + _COMPACT_HEADS * t)
    flat = [conf.state, _zig(conf.head), len(conf.tape)]
    for p, s in conf.tape:
        flat.extend((_zig(p), s))
    return _OVERFLOW + seq_encode(flat)


def decode_tmconf(code: int) -> TMConfiguration:
    if code < 1:
        raise MalformedCode("0 is reserved for the empty string")
    if code < _OVERFLOW:
        v = code - _COMPACT_BASE
        state = v % _COMPACT_STATES
        v //= _COMPACT_STATES
        head = v % _COMPACT_HEADS
        t = v // _COMPACT_HEADS
        if t >= _COMPACT_T:
            raise MalformedCode("compact tape out of range")
        tape = tuple((p, 1) for p in range(8) if t & (1 << p))
        return TMConfiguration(tape, head, state)
    try:
        flat = seq_decode(code - _OVERFLOW)
    except ValueError as exc:
        raise MalformedCode(str(exc)) from None
    if len(flat) < 3:
        raise MalformedCode("truncated configuration")
    state, headz, n = flat[0], flat[1], flat[2]
    if len(flat) != 3 + 2 * n:
        raise MalformedCode("bad cell count")
    cells = []
    for i in range(n):
        cells.append((_unzig(flat[3 + 2 * i]), flat[4 + 2 * i]))
    if cells != sorted(cells) or len({p for p, _ in cells}) != n:
        raise MalformedCode("cells not canonical")
    if any(s == 0 for _, s in cells):
        raise MalformedCode("blank cell stored")
    conf = TMConfiguration(tuple(cells), _unzig(headz), state)
    if encode_tmconf(conf) < _OVERFLOW:
        raise MalformedCode("a configuration with a compact code, in overflow form")
    return conf


# --- curated machines -------------------------------------------------------


def _machine(n_states, halting, rules, oracle=False):
    return TMachine(n_states, 2, 0, 0, frozenset(halting), tuple(rules), oracle)


EMPTY_MACHINE = _machine(1, {0}, [])

# walk right over 1s, halt at the first 0: computes the identity
IDENT_MACHINE = _machine(2, {1}, [
    (0, 1, 0, 1, R),
    (0, 0, 1, 0, S),
])

# binary increment, LSB first: flip 1s to 0 rightward, set the first 0
SUCC_MACHINE = _machine(2, {1}, [
    (0, 1, 0, 0, R),
    (0, 0, 1, 1, S),
])

# binary decrement: flip 0s to 1 rightward, clear the first 1; diverges on 0
DEC_MACHINE = _machine(2, {1}, [
    (0, 0, 0, 1, R),
    (0, 1, 1, 0, S),
])

# spins in place forever
LOOP_MACHINE = _machine(1, set(), [
    (0, 0, 0, 0, S),
    (0, 1, 0, 1, S),
])

# clear the lowest set bit (n -> n minus its lowest power of two); diverges on 0
BITCLEAR_MACHINE = _machine(2, {1}, [
    (0, 0, 0, 0, R),
    (0, 1, 1, 0, S),
])

# set bit zero: n -> n | 1
SETLOW_MACHINE = _machine(2, {1}, [
    (0, 0, 1, 1, S),
    (0, 1, 1, 1, S),
])

# identity after a 12-step in-place state chain
SLOW_MACHINE = _machine(13, {12}, [
    (i, a, i + 1, a, S) for i in range(12) for a in (0, 1)
])

# oracle machine that halts immediately whatever the oracle says
ORACLE_ALWAYS_MACHINE = _machine(1, {0}, [], oracle=True)

# oracle machine that halts at the step whose oracle cell reads 0
ORACLE_SEARCHZERO_MACHINE = _machine(2, {1}, [
    (0, a, 1, 0, a, S) for a in (0, 1)
] + [
    (0, a, 0, 1, a, S) for a in (0, 1)
], oracle=True)

BUILTINS: tuple[TMachine, ...] = (
    EMPTY_MACHINE,
    IDENT_MACHINE,
    SUCC_MACHINE,
    DEC_MACHINE,
    LOOP_MACHINE,
    BITCLEAR_MACHINE,
    SETLOW_MACHINE,
    SLOW_MACHINE,
    ORACLE_ALWAYS_MACHINE,
    ORACLE_SEARCHZERO_MACHINE,
)

CURATED = {
    "empty": 0,
    "identity": 1,
    "successor": 2,
    "decrement": 3,
    "loop": 4,
    "bitclear": 5,
    "setlow": 6,
    "slow": 7,
    "oracle-always": 8,
    "oracle-searchzero": 9,
}

_RAW_OFFSET = len(BUILTINS)
_TAG_PLAIN = 0
_TAG_ORACLE = 1
_TAG_APPENDIX_F = 2
_NATS = Seq(NAT)
_ROWS = {oracle: Seq(Fixed(*[NAT] * (6 if oracle else 5))) for oracle in (False, True)}


def _serialize(m: TMachine) -> tuple[int, ...]:
    flat = [m.n_states, m.n_symbols, m.blank, m.start, len(m.halting)]
    flat.extend(sorted(m.halting))
    flat.append(len(m.rules))
    for row in m.rules:
        flat.extend(row)
    return tuple(flat)


def _deserialize(flat: tuple[int, ...], oracle: bool) -> TMachine:
    r = Reader(flat)
    n_states, n_symbols, blank, start = r.take_many(4)
    # in any order: an index names a machine, and need not be the one machine_index gives
    halting = frozenset(_NATS.get(r))
    rows = _ROWS[oracle].get(r)
    r.done()
    m = TMachine(n_states, n_symbols, blank, start, halting, rows, oracle)
    m.check()
    return m


@dataclass(frozen=True)
class AppendixMachine:
    """phi_{g(n)} of the appendix: computes s -> f(n, s) for the oracle z."""
    n: int
    z: int


def machine_from_index(e: int):
    """Total: every natural is some machine (junk codes give the empty one)."""
    if e < 0:
        raise BadIndex(f"machine index {e} is negative")
    if e < _RAW_OFFSET:
        return BUILTINS[e]
    try:
        flat = seq_decode(e - _RAW_OFFSET)
        if not flat:
            raise MalformedCode("empty payload")
        tag, payload = flat[0], flat[1:]
        if tag == _TAG_PLAIN:
            return _deserialize(payload, oracle=False)
        if tag == _TAG_ORACLE:
            return _deserialize(payload, oracle=True)
        if tag == _TAG_APPENDIX_F:
            if len(payload) != 2:
                raise MalformedCode("appendix machine takes (n, z)")
            return AppendixMachine(payload[0], payload[1])
        raise MalformedCode(f"unknown machine tag {tag}")
    except (MalformedCode, ValueError):
        return EMPTY_MACHINE


def machine_index(m) -> int:
    if isinstance(m, AppendixMachine):
        return _RAW_OFFSET + seq_encode((_TAG_APPENDIX_F, m.n, m.z))
    for i, b in enumerate(BUILTINS):
        if m == b:
            return i
    tag = _TAG_ORACLE if m.oracle else _TAG_PLAIN
    return _RAW_OFFSET + seq_encode((tag,) + _serialize(m))


@dataclass(frozen=True)
class Converged:
    output: int


@dataclass(frozen=True)
class StillRunning:
    pass


STILL_RUNNING = StillRunning()


def run_bounded(e: int, value: int, t: int) -> Union[Converged, StillRunning]:
    """phi_e(value) within t steps; deterministic and monotone in t."""
    if e < 0:
        raise BadIndex(f"machine index {e} is negative")
    if t < 0:
        raise BadIndex(f"step budget {t} is negative")
    if value < 0:
        raise BadIndex(f"input value {value} is negative")
    m = machine_from_index(e)
    if isinstance(m, AppendixMachine):
        return _run_appendix(m, value, t)
    end = _run(m, initial_config(m, value), t, ())
    return STILL_RUNNING if end is None else Converged(end.value())


def _run(m: TMachine, conf: TMConfiguration, t: int, oracle: Sequence[int]
         ) -> Optional[TMConfiguration]:
    """At most t steps, step i reading oracle cell i (blank 0 past the
    prefix): the configuration the machine halts in, or None while it runs."""
    for i in range(t):
        nxt = step(m, conf, oracle[i] if i < len(oracle) else 0)
        if isinstance(nxt, Halted):
            return nxt.config
        conf = nxt
    return conf if halted(m, conf) else None


def oracle_converges(z: int, s_code: int, n: int) -> bool:
    """phi_z with oracle prefix s converges on n within len(s)-1 steps.

    An empty prefix grants zero steps, matching the appendix's indexing
    where a string of length t+1 buys t steps of computation.
    """
    if z < 0:
        raise BadIndex(f"machine index {z} is negative")
    if n < 0:
        raise BadIndex(f"input value {n} is negative")
    try:
        s = seq_decode(s_code)
    except ValueError as exc:
        raise MalformedCode(str(exc)) from None
    t = max(len(s) - 1, 0)
    m = machine_from_index(z)
    if isinstance(m, AppendixMachine):
        return False  # appendix machines are plain; no oracle semantics
    return _run(m, initial_config(m, n), t, s) is not None


def appendix_f(n: int, s_code: int, z: int) -> Optional[int]:
    """f(n, <s0..s_m-1>) = <s0..s_m-2> when n > 0 and the oracle run fails.

    Returns None where f diverges.
    """
    try:
        s = seq_decode(s_code)
    except ValueError as exc:
        raise MalformedCode(str(exc)) from None
    if n <= 0 or not s:
        return None
    if oracle_converges(z, s_code, n):
        return None
    return seq_encode(s[:-1])


def _run_appendix(m: AppendixMachine, value: int, t: int):
    try:
        s = seq_decode(value)
    except ValueError:
        return STILL_RUNNING
    cost = len(s) + 1  # simulating the bounded oracle run, plus the trim
    out = appendix_f(m.n, value, m.z)
    if out is None:
        return STILL_RUNNING
    return Converged(out) if t >= cost else STILL_RUNNING


# --- program text format -----------------------------------------------------


def parse_tm(text: str) -> TMachine:
    """Parse the program text format.

    Header lines ``start <state>``, ``blank <symbol>``, ``halt <state>...``;
    rule lines ``<state> <symbol> -> <state> <symbol> <L|R|S>``; ``#`` comments.
    """
    states: dict[str, int] = {}
    symbols: dict[str, int] = {}
    start_name = None
    blank_name = None
    halt_names: list[str] = []
    raw_rules: list[tuple[str, str, str, str, str]] = []

    def state_id(name: str) -> int:
        return states.setdefault(name, len(states))

    def sym_id(name: str) -> int:
        return symbols.setdefault(name, len(symbols))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "start":
            if len(parts) != 2:
                raise TMParseError("start takes one state", lineno)
            start_name = parts[1]
        elif parts[0] == "blank":
            if len(parts) != 2:
                raise TMParseError("blank takes one symbol", lineno)
            blank_name = parts[1]
        elif parts[0] == "halt":
            if len(parts) < 2:
                raise TMParseError("halt takes at least one state", lineno)
            halt_names.extend(parts[1:])
        else:
            if len(parts) != 6 or parts[2] != "->":
                raise TMParseError(
                    "expected '<state> <symbol> -> <state> <symbol> <L|R|S>'", lineno
                )
            if parts[5] not in ("L", "R", "S"):
                raise TMParseError(f"bad move {parts[5]!r}", lineno)
            raw_rules.append((parts[0], parts[1], parts[3], parts[4], parts[5]))

    if start_name is None:
        raise TMParseError("missing 'start' header")
    if blank_name is None:
        blank_name = "0"
    sym_id(blank_name)
    state_id(start_name)
    for name in halt_names:
        state_id(name)
    rules = []
    move_code = {"L": L, "R": R, "S": S}
    for q, a, q2, a2, mv in raw_rules:
        rules.append((state_id(q), sym_id(a), state_id(q2), sym_id(a2), move_code[mv]))
    m = TMachine(
        n_states=len(states),
        n_symbols=len(symbols),
        blank=symbols[blank_name],
        start=states[start_name],
        halting=frozenset(states[h] for h in halt_names),
        rules=tuple(rules),
    )
    m.check()
    return m


def format_tm(m: TMachine) -> str:
    if m.oracle:
        raise MalformedCode("the program text format has no oracle rules")
    lines = [f"start q{m.start}", f"blank {m.blank}"]
    if m.halting:
        lines.append("halt " + " ".join(f"q{h}" for h in sorted(m.halting)))
    mv = {L: "L", R: "R", S: "S"}
    for q, a, q2, a2, move in m.rules:
        lines.append(f"q{q} {a} -> q{q2} {a2} {mv[move]}")
    return "\n".join(lines) + "\n"
