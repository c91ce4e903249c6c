"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports duelhalt.  The machine tables are written from the
curated machines' documented behaviour, the Cantor pairing and the counter
packing from their definitions, and the chain judges from the reductions'
rules (the first number spoken is a triple, later ones are pairs for the
no-infinite-sequence strategy; a strictly descending chain for the
well-order strategy).
"""

from __future__ import annotations

from math import isqrt

# head moves
RIGHT, STAY = 1, 0

# name -> (index, start state, halting states, rules), with
# rules[(state, symbol read)] = (next state, symbol written, head move).
# Tapes are over {0, 1}, blank 0, input written LSB-first from position 0.
# The two oracle machines are read against the all-blank oracle, as the
# plain runs of the program read them.
MACHINES = {
    "empty": (0, 0, {0}, {}),
    # walk right over 1s, halt on the first 0
    "identity": (1, 0, {1}, {(0, 1): (0, 1, RIGHT), (0, 0): (1, 0, STAY)}),
    # binary increment: 1s become 0s rightward, the first 0 becomes 1
    "successor": (2, 0, {1}, {(0, 1): (0, 0, RIGHT), (0, 0): (1, 1, STAY)}),
    # binary decrement: 0s become 1s rightward, the first 1 becomes 0
    "decrement": (3, 0, {1}, {(0, 0): (0, 1, RIGHT), (0, 1): (1, 0, STAY)}),
    # spins in place
    "loop": (4, 0, set(), {(0, 0): (0, 0, STAY), (0, 1): (0, 1, STAY)}),
    # skip 0s rightward, clear the first 1
    "bitclear": (5, 0, {1}, {(0, 0): (0, 0, RIGHT), (0, 1): (1, 0, STAY)}),
    # set bit zero
    "setlow": (6, 0, {1}, {(0, 0): (1, 1, STAY), (0, 1): (1, 1, STAY)}),
    # twelve steps in place, then halt
    "slow": (7, 0, {12}, {(q, a): (q + 1, a, STAY) for q in range(12) for a in (0, 1)}),
    "oracle-always": (8, 0, {0}, {}),
    # halts at the first step whose oracle cell reads 0: the first one
    "oracle-searchzero": (9, 0, {1}, {(0, 0): (1, 0, STAY), (0, 1): (1, 1, STAY)}),
}

HALTS, RUNNING = "halts", "running"


def run(name: str, value: int, max_steps: int) -> tuple[str, int, int]:
    """Run a curated machine on value for at most max_steps transitions.

    Returns (HALTS, output, steps) when it reaches a halting state, or a
    state with no rule for the symbol read, after `steps` transitions;
    otherwise (RUNNING, -1, max_steps).  The output reads the tape back
    as the sum of 2^p over cells holding 1.
    """
    _index, state, halting, rules = MACHINES[name]
    ones = {p for p in range(value.bit_length()) if value >> p & 1}
    head = 0
    for steps in range(max_steps + 1):
        rule = rules.get((state, 1 if head in ones else 0))
        if state in halting or rule is None:
            return HALTS, sum(1 << p for p in ones if p >= 0), steps
        if steps == max_steps:
            break
        state, write, move = rule
        if write:
            ones.add(head)
        else:
            ones.discard(head)
        head += move
    return RUNNING, -1, max_steps


def diverges(name: str, value: int, limit: int) -> bool:
    """True when the run provably never halts: a configuration repeats."""
    _index, state, halting, rules = MACHINES[name]
    ones = frozenset(p for p in range(value.bit_length()) if value >> p & 1)
    head = 0
    seen = set()
    for _ in range(limit):
        rule = rules.get((state, 1 if head in ones else 0))
        if state in halting or rule is None:
            return False
        key = (state, head, ones)
        if key in seen:
            return True
        seen.add(key)
        state, write, move = rule
        ones = ones | {head} if write else ones - {head}
        head += move
    return False


def start_counters(value: int) -> int:
    """Counter value that carries a machine's start on input value.

    The compact packing keeps the state (16 values) and head (8 values) in
    the low digits above an offset of 1, then the tape bits 0..7.
    """
    if not 0 <= value < 256:
        raise ValueError("only inputs of at most 8 bits pack compactly")
    return 1 + 16 * 8 * value


# --- Cantor pairing -----------------------------------------------------------


def pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def unpair(n: int) -> tuple[int, int]:
    w = (isqrt(8 * n + 1) - 1) // 2
    y = n - w * (w + 1) // 2
    return w - y, y


# --- chain judges ---------------------------------------------------------------


def nis_chain_holds(name: str, numbers) -> bool:
    """Whether the spoken numbers still form a chain of preimages under the machine.

    The first number is (a1, a2, t1): the machine maps a2 to a1 within t1
    steps.  Every later one is (a, t): the machine maps a to the previous
    a within t steps.  A spoken 0 breaks the chain.
    """
    expect = None
    for i, n in enumerate(numbers):
        if n == 0:
            return False
        if i == 0:
            a1, rest = unpair(n)
            a, t = unpair(rest)
            want = a1
        else:
            a, t = unpair(n)
            want = expect
        status, out, _steps = run(name, a, t)
        if status != HALTS or out != want:
            return False
        expect = a
    return True


def wo_chain_holds(less, numbers) -> bool:
    """Whether the spoken numbers still form a strictly descending chain.

    The first number is a pair (m, k) with m below k; every later number
    must sit below the one before it.  A spoken 0 breaks the chain.
    """
    prev = None
    for i, n in enumerate(numbers):
        if n == 0:
            return False
        if i == 0:
            m, k = unpair(n)
            if not less(m, k):
                return False
            prev = m
        else:
            if not less(n, prev):
                return False
            prev = n
    return True


def preimage_graph_has_cycle(name: str, bound: int, steps: int) -> bool:
    """Whether some value up to bound starts an infinite chain of preimages.

    Within the bound an infinite chain a0 <- a1 <- ... must revisit a value,
    so it exists exactly when the graph a -> machine(a) has a cycle.
    """
    succ = {}
    for a in range(bound + 1):
        status, out, _ = run(name, a, steps)
        if status == HALTS and out <= bound:
            succ[a] = out
    for start in succ:
        seen = set()
        a = start
        while a in succ and a not in seen:
            seen.add(a)
            a = succ[a]
        if a in seen:
            return True
    return False

