"""Executable reductions and the appendix machinery.

Each reduction pairs a scripted legal run with a compiled strategy; the
desk-scale evidence for their correctness comes from the bounded
adversarial checker on one side and elementary enumerations on the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Optional, Union

from .coding import pair, unpair
from .errors import BadIndex, DuelhaltError, InvalidOrder
from .engine import Run
from .scripts import ScriptResult, set_counters, setup_run_a, setup_run_b
from .strategy import NISStrategy, Strategy, TMStrategy, WOStrategy
from . import tm as tmmod


# --- countable linear orders ---------------------------------------------------


@dataclass(frozen=True)
class LinearOrder:
    """A decidable linear order on omega (or an initial segment of it).

    ``leq`` is the reflexive order; the strategies use the strict part.
    Finite tables are validated exhaustively, infinite descriptors on a
    sample, per their invariants.
    """

    name: str
    leq: Callable[[int, int], bool]
    size: Optional[int] = None  # finite domain size, if any

    def less(self, m: int, n: int) -> bool:
        if self.size is not None and (m >= self.size or n >= self.size):
            return False
        return m != n and self.leq(m, n)

    def evaluate(self, m: int, n: int) -> int:
        """The strategies' query: 1 when m sits strictly below n."""
        return 1 if self.less(m, n) else 0

    def validate(self, sample: int = 12) -> None:
        dom = range(self.size) if self.size is not None else range(sample)
        for a in dom:
            if not self.leq(a, a):
                raise InvalidOrder(f"{self.name}: not reflexive at {a}")
        for a in dom:
            for b in dom:
                if a != b and self.leq(a, b) and self.leq(b, a):
                    raise InvalidOrder(f"{self.name}: not antisymmetric at {a},{b}")
                if not self.leq(a, b) and not self.leq(b, a):
                    raise InvalidOrder(f"{self.name}: not total at {a},{b}")
        for a in dom:
            for b in dom:
                for c in dom:
                    if self.leq(a, b) and self.leq(b, c) and not self.leq(a, c):
                        raise InvalidOrder(f"{self.name}: not transitive at {a},{b},{c}")


def standard_omega() -> LinearOrder:
    return LinearOrder("omega", lambda m, n: m <= n)


def reverse_omega() -> LinearOrder:
    return LinearOrder("omega-reverse", lambda m, n: m >= n)


def lex_pairs() -> LinearOrder:
    def leq(m: int, n: int) -> bool:
        return unpair(m) <= unpair(n)

    return LinearOrder("lex-pairs", leq)


def finite_table(matrix: list[list[int]]) -> LinearOrder:
    size = len(matrix)
    rows = tuple(tuple(bool(v) for v in row) for row in matrix)
    for row in rows:
        if len(row) != size:
            raise InvalidOrder("relation matrix is not square")

    def leq(m: int, n: int) -> bool:
        if m >= size or n >= size:
            return False
        return rows[m][n]

    order = LinearOrder(f"finite-{size}", leq, size=size)
    order.validate()
    return order


def standard_finite(size: int) -> LinearOrder:
    return finite_table([[1 if i <= j else 0 for j in range(size)] for i in range(size)])


_ORDER_FUEL = 10_000  # steps machine e gets to decide one comparison


def custom_order(e: int) -> LinearOrder:
    """Order decided by machine e on pair codes (bounded evaluation)."""

    def leq(m: int, n: int) -> bool:
        r = tmmod.run_bounded(e, pair(m, n), _ORDER_FUEL)
        return isinstance(r, tmmod.Converged) and r.output > 0

    order = LinearOrder(f"custom-{e}", leq)
    order.validate(sample=6)
    return order


def parse_order(text: str) -> LinearOrder:
    """Order-descriptor text: keywords or `finite <n>` plus a matrix."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InvalidOrder("empty order descriptor")
    head = lines[0].split()
    if head[0] == "omega" and len(head) == 1:
        return standard_omega()
    if head[0] == "omega-reverse":
        return reverse_omega()
    if head[0] == "lex-pairs":
        return lex_pairs()
    if head[0] == "finite":
        if len(head) != 2:
            raise InvalidOrder("usage: finite <size>")
        try:
            size = int(head[1])
            rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
        except ValueError as exc:
            raise InvalidOrder(f"finite order: {exc}") from None
        if size < 0:
            raise InvalidOrder(f"finite order size {size} is negative")
        if len(rows) != size:
            raise InvalidOrder(f"expected {size} matrix rows, got {len(rows)}")
        return finite_table(rows)
    raise InvalidOrder(f"unknown order descriptor {head[0]!r}")


# --- reduction outputs -----------------------------------------------------------


@dataclass(frozen=True)
class ReductionOutput:
    run: Run
    strategy: Strategy


@cache
def setup(deck: str) -> ScriptResult:
    """The set-up line of deck "a" or "b", built once per process."""
    if deck == "a":
        return setup_run_a()
    if deck == "b":
        return setup_run_b()
    raise DuelhaltError(f"unknown deck {deck!r}")


def reduce_halting(e: int) -> ReductionOutput:
    """The e-run and e-strategy of the halting reduction.

    The setup line is extended so the counters encode machine e's starting
    configuration on input e; the compiled strategy simulates from there.
    """
    base = setup("a")
    s = TMStrategy(e)
    code = tmmod.encode_tmconf(tmmod.initial_config(s.machine, e))
    return ReductionOutput(set_counters(base.run, code).run, s)


def reduce_nis(e: int) -> ReductionOutput:
    tmmod.machine_from_index(e)  # refuses a negative index before the set-up
    base = setup("b")
    return ReductionOutput(base.run, NISStrategy(e, base.run))


def reduce_wo(x: LinearOrder) -> ReductionOutput:
    x.validate()
    base = setup("b")
    return ReductionOutput(base.run, WOStrategy(x, base.run))


# --- the appendix: f, g, and chain searches ---------------------------------------


appendix_f = tmmod.appendix_f


def appendix_g(n: int, z: int) -> int:
    """An index computing f(n, .) for oracle z, via the enumeration's own s-m-n."""
    return tmmod.machine_index(tmmod.AppendixMachine(n, z))


@dataclass(frozen=True)
class ChainWitness:
    chain: tuple[int, ...]


@dataclass(frozen=True)
class NoChainFound:
    pass


NO_CHAIN = NoChainFound()


def nis_membership_bounded(e: int, depth: int, bound: int, steps: int
                           ) -> Union[ChainWitness, NoChainFound]:
    """Search for a_0 <- a_1 <- ... <- a_depth with phi_e(a_{i+1}) = a_i.

    All values range over 0..bound and evaluation is cut at the step
    budget; a witness certifies the chains extend to the asked depth,
    while NoChainFound is desk-scale evidence only.
    """
    for name, value in (("chain depth", depth), ("value bound", bound), ("step budget", steps)):
        if value <= 0:
            raise BadIndex(f"{name} {value} is not positive")
    succ: dict[int, list[int]] = {}
    for a in range(bound + 1):
        r = tmmod.run_bounded(e, a, steps)
        if isinstance(r, tmmod.Converged) and r.output <= bound:
            succ.setdefault(r.output, []).append(a)

    got = _first_path(range(bound + 1), lambda a: succ.get(a, ()), depth + 1)
    return NO_CHAIN if got is None else ChainWitness(got)


def descending_chains(x: LinearOrder, first_max: int, length: int,
                      bound: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Independent enumerator: a strictly descending x-chain of the length.

    Used to cross-check the well-order reduction; returns one chain whose
    first element is at most first_max, or None when none exists within
    the bound.  A chain has at least one element: a non-positive length, or
    a negative first_max or bound, is refused before any search.
    """
    if length <= 0:
        raise BadIndex(f"chain length {length} is not positive")
    if first_max < 0:
        raise BadIndex(f"first element bound {first_max} is negative")
    if bound is not None and bound < 0:
        raise BadIndex(f"value bound {bound} is negative")
    bound = bound if bound is not None else max(first_max, length) * 2 + 4
    return _first_path(range(first_max + 1),
                       lambda a: (b for b in range(bound + 1) if x.less(b, a)), length)


def _first_path(starts: Iterable[int], succ: Callable[[int], Iterable[int]],
                length: int) -> Optional[tuple[int, ...]]:
    """The first path of the given number of elements that a depth-first
    search from each start in turn finds along succ; None when there is
    none.  The open successors live on an explicit stack, so a long path
    needs no deep recursion."""
    for a0 in starts:
        path, todo = [a0], [iter(succ(a0))]
        while todo:
            if len(path) == length:
                return tuple(path)
            nxt = next(todo[-1], None)
            if nxt is None:
                todo.pop()
                path.pop()
            else:
                path.append(nxt)
                todo.append(iter(succ(nxt)))
    return None
