"""Exact combinatorics of weight-imbalance growth under conservative maps.

A 2n-bit string is split into two halves; the weight couple is the pair of
half Hamming weights.  For any injective weight-preserving map, a simple
counting argument caps the number of strings a class can send into a more
imbalanced class by the target class size, so the transition probability
from couple (wn, (1-w)n) to ((w+d)n, (1-w-d)n) is at most

    C(n,(w+d)n) C(n,(1-w-d)n) / [ C(n,wn) C(n,(1-w)n) ],

a ratio that decays exponentially in n.  Every ceiling and trend point
is a sum or ratio of class sizes C(n,k) C(n,n-k) (`_class_size`), divided
once; an experiment keeps its maxima as counts, and caps circuits x gates
counting each circuit as at least one gate.  Everything here is exact big
integer / rational arithmetic; floats appear only in the log2 trend.

Conservative circuits are sampled as uniform random Fredkin gates, which
preserve Hamming weight by construction (no filtering needed).  Each gate
is the three lines random.Random.sample(range(width), 3) picks; up to
width 21 they are drawn straight from the substream's getrandbits by
CPython's own rule, so the circuits (and the golden files) are sample's
without its per-call cost.  A class is swept as one run_states batch
(`_class_rows`), and the half weights of its images are counted with
exact-weight masks (`_weight_masks`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .bitstring import BitString
from .circuits import (
    ReversibleCircuit,
    _to_mask,
    check_conservative,
    check_sweep,
    fredkin,
    max_sweep_width,
    permutation_table,
    run_states,
    simulate_trajectory,
)
from .errors import LandauerError, NonIntegralWeights, NotConservative, WidthTooSmall
from .rng import substream, substream_seed


@dataclass(frozen=True)
class WeightCouple:
    """Half-width n and the two half weights (their sum is conserved)."""

    n: int
    left_weight: int
    right_weight: int

    def __post_init__(self):
        if not (0 <= self.left_weight <= self.n and 0 <= self.right_weight <= self.n):
            raise LandauerError("weights must lie in [0, n]")

    def class_size(self) -> int:
        return math.comb(self.n, self.left_weight) * math.comb(self.n, self.right_weight)


def _integral(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise NonIntegralWeights(f"{what} = {x} is not an integer")
    return x.numerator


def _grid(n: int, w: Fraction, delta: Fraction) -> tuple[int, int]:
    """Validate n and the (w, delta) grid; returns (wn, (w+delta)n) as
    integers.

    Integrality is checked before the ranges so that off-grid parameters
    always surface as NonIntegralWeights.
    """
    w = Fraction(w)
    delta = Fraction(delta)
    wn = _integral(w * n, "w*n")
    wdn = _integral((w + delta) * n, "(w+delta)*n")
    if n < 0:
        raise LandauerError(f"n must be non-negative, got {n}")
    if not Fraction(1, 2) <= w < 1:
        raise LandauerError(f"w must satisfy 1/2 <= w < 1, got {w}")
    if not 0 <= delta <= 1 - w:
        raise LandauerError(f"delta must satisfy 0 <= delta <= 1-w, got {delta}")
    return wn, wdn


def _class_size(n: int, k: int) -> int:
    """Size of the class with half weights (k, n - k)."""
    return math.comb(n, k) * math.comb(n, n - k)


def imbalance_ratio_exact(n: int, w, delta) -> Fraction:
    """Target-over-source class-size ratio for one imbalance step, exact."""
    wn, wdn = _grid(n, w, delta)
    return Fraction(_class_size(n, wdn), _class_size(n, wn))


def imbalance_tail_exact(n: int, w, delta) -> Fraction:
    """Total size of all classes at least `delta` more imbalanced, relative
    to the source class ("... or more extremely")."""
    wn, wdn = _grid(n, w, delta)
    return Fraction(sum(_class_size(n, k) for k in range(wdn, n + 1)), _class_size(n, wn))


def random_conservative_circuit(width: int, gate_count: int, seed: int) -> ReversibleCircuit:
    """Uniformly random Fredkin gates; deterministic under the seed.

    Gate i is fredkin(*rng.sample(range(width), 3)), the i-th sample of
    the substream.  Up to width 21 it is drawn here straight from the
    substream's getrandbits as CPython's sample draws it: each index below
    m is getrandbits(m.bit_length()), redrawn until it is below m, and
    sample picks from a shrinking pool (j0 < width, j1 < width - 1,
    j2 < width - 2), each pick replaced by the pool's last line; the two
    replacements resolve in closed form.  From width 22 it is sample's own
    draw.  Zero gates give the identity circuit; a negative count raises
    LandauerError.
    """
    if width < 3:
        raise WidthTooSmall(f"Fredkin gates need width >= 3, got {width}")
    if gate_count < 0:
        raise LandauerError(f"gate count must be non-negative, got {gate_count}")
    rng = substream(seed, "fredkin-circuit")
    bits = rng.getrandbits
    gates = []
    if width <= 21:  # sample()'s pool of lines
        k0, k1, k2 = (m.bit_length() for m in (width, width - 1, width - 2))
        for _ in range(gate_count):
            j0 = bits(k0)
            while j0 >= width:
                j0 = bits(k0)
            j1 = bits(k1)
            while j1 >= width - 1:
                j1 = bits(k1)
            j2 = bits(k2)
            while j2 >= width - 2:
                j2 = bits(k2)
            # pick 0 leaves slot j0 holding line width - 1, pick 1 leaves slot j1
            # holding what slot width - 2 held; picks 1 and 2 read those slots
            a = width - 1 if j1 == j0 else j1
            b = width - 2 if j2 == j1 else j2
            gates.append(fredkin(j0, a, width - 1 if b == j0 else b))
    else:
        gates = [fredkin(*rng.sample(range(width), 3)) for _ in range(gate_count)]
    return ReversibleCircuit(width, tuple(gates))


@functools.lru_cache(maxsize=8)
def _class_rows(couple: WeightCouple) -> tuple[int, ...]:
    """Every state of a weight class as run_states rows: state r = a*R + b
    pairs left half a (lines 0..n-1) with right half b, of R right halves.

    Built once per couple and cached (a few couples at a time).
    """
    n = couple.n
    left, right = (list(combinations(range(n), w)) for w in (couple.left_weight, couple.right_weight))
    lines = ["".join(("1" if i in a else "0") * len(right) for a in left) for i in range(n)]
    lines += ["".join("1" if i in b else "0" for b in right) * len(left) for i in range(n)]
    return tuple(map(_to_mask, lines))


def _weight_masks(rows: list[int], ones: int) -> list[int]:
    """masks[k] has bit x set iff exactly k of the rows have bit x set."""
    masks = [ones]
    for r in rows:
        masks = [m ^ (m ^ p) & r for m, p in zip(masks + [0], [0] + masks)]
    return masks


def _weight_change(c: ReversibleCircuit, state: str) -> str:
    """'<state>, at gate i (<kind> on lines ...)': the state and the first
    gate that changes its Hamming weight.  The circuit runs without its
    line roles, as in the sweeps."""
    weight = state.count("1")
    trajectory = simulate_trajectory(ReversibleCircuit(c.width, c.gates), BitString(state))
    i = next(t for t, s in enumerate(trajectory) if str(s).count("1") != weight) - 1
    g = c.gates[i]
    return f"{state}, at gate {i} ({g.kind} on lines {', '.join(map(str, g.controls + g.targets))})"


def count_class_transitions(
    c: ReversibleCircuit,
    source: WeightCouple,
    target: WeightCouple,
) -> int:
    """Exact count of source-class strings mapped into the target class.

    Sweeps the source class only, within the ceiling on swept states.
    Requires a circuit of width 2n that preserves Hamming weight.  An
    all-Fredkin circuit does so by construction.  Any other circuit is
    proved conservative over its whole 2^(2n) cube when that cube is within
    the sweep ceiling; above it, the check is that every image in the swept
    class keeps its source state's weight, which is the property the count
    relies on.  Either failure raises NotConservative, naming the first
    offending state (in state-integer order over the cube, in sweep order
    over the class) and the first gate that changes its weight.  A target
    of another n than the source's raises LandauerError.
    """
    n = source.n
    if target.n != n:
        raise LandauerError(f"target n = {target.n} does not match source n = {n}")
    if c.width != 2 * n:
        raise LandauerError(f"circuit width {c.width} does not match 2n = {2 * n}")
    check_sweep(f"{source} of {source.class_size()} states", states=source.class_size())
    proved = check_conservative(c)
    if not proved and c.width <= max_sweep_width():
        if not check_conservative(c, exhaustive=True):
            table = permutation_table(c).tolist()
            x = next(x for x, y in enumerate(table) if x.bit_count() != y.bit_count())
            state = format(x, f"0{c.width}b")[::-1]  # line i is bit i of x
            offender = _weight_change(c, state)
            raise NotConservative(f"circuit does not preserve Hamming weight: first offending state {offender}")
        proved = True
    rows, size = _class_rows(source), source.class_size()
    ones = (1 << size) - 1
    image = run_states(c, rows, size)
    weight = source.left_weight + source.right_weight
    if not proved and (bad := ones ^ _weight_masks(image, ones)[weight]):
        x = (bad & -bad).bit_length() - 1  # the first offending state
        state = "".join(str(r >> x & 1) for r in rows)
        offender = _weight_change(c, state)
        raise NotConservative(f"circuit changes the Hamming weight of source-class state {offender}")
    # every image keeps its weight, so the right half's weight follows from the left's
    if target.left_weight + target.right_weight != weight:
        return 0
    return _weight_masks(image[:n], ones)[target.left_weight].bit_count()


@dataclass(frozen=True)
class ClausiusReport:
    n: int
    w: Fraction
    delta: Fraction
    gate_count: int
    point_ceiling: Fraction  # size ratio of the exact target class
    tail_ceiling: Fraction  # size ratio of target-or-more-extreme classes
    max_point_fraction: Fraction
    max_tail_fraction: Fraction
    per_n_trend: tuple[tuple[int, float], ...]  # (n, log2 of point ceiling)

    @property
    def within_ceiling(self) -> bool:
        return (
            self.max_point_fraction <= self.point_ceiling
            and self.max_tail_fraction <= self.tail_ceiling
        )


def clausius_experiment(
    n: int,
    w,
    delta,
    circuits: int,
    seed: int,
    gate_count: int | None = None,
) -> ClausiusReport:
    """Sample conservative circuits and compare measured transition
    fractions against the exact counting ceilings.

    The point numbers concern exactly the (w+delta) class, the tail
    numbers that class or any more extreme one; the ceiling inequality is
    a theorem, not a statistical claim.  Each circuit's point and tail
    counts are kept as integers, and the maxima are divided by the class
    size once.  The trend lists log2 of the point ceiling at n, 2n, 3n and
    4n, each a ratio of class sizes at weights k*(w*n) and k*((w+delta)*n),
    which are on the grid (floats appear only in this rendering).  Both the
    source class and circuits x gate_count are capped at the sweep ceiling,
    each circuit counted as at least one gate, before any circuit is built.
    """
    w = Fraction(w)
    delta = Fraction(delta)
    wn, wdn = _grid(n, w, delta)
    if circuits < 1:
        raise LandauerError(f"circuits must be at least 1, got {circuits}")
    # on the grid 0 < wn < n, so the class holds at least n^2 states: a huge
    # n is refused before its binomials are computed
    check_sweep(f"n = {n} with at least {n * n} class states", states=n * n)
    source = WeightCouple(n, wn, n - wn)
    size = source.class_size()
    check_sweep(f"{source} of {size} states", states=size)
    gc = gate_count if gate_count is not None else 4 * 2 * n
    check_sweep(f"{circuits} circuits x {gc} gates, each circuit counted as at least one gate,", states=circuits * max(gc, 1))

    rows, ones = _class_rows(source), (1 << size) - 1
    max_point = max_tail = 0
    for i in range(circuits):
        circuit = random_conservative_circuit(2 * n, gc, substream_seed(seed, "circuit", i))
        left = _weight_masks(run_states(circuit, rows, size)[:n], ones)
        max_point = max(max_point, left[wdn].bit_count())
        max_tail = max(max_tail, sum(m.bit_count() for m in left[wdn:]))

    trend = []
    for k in range(1, 5):
        ratio = Fraction(_class_size(k * n, k * wdn), _class_size(k * n, k * wn))
        trend.append((k * n, math.log2(ratio.numerator) - math.log2(ratio.denominator)))

    return ClausiusReport(
        n=n,
        w=w,
        delta=delta,
        gate_count=gc,
        point_ceiling=imbalance_ratio_exact(n, w, delta),
        tail_ceiling=imbalance_tail_exact(n, w, delta),
        max_point_fraction=Fraction(max_point, size),
        max_tail_fraction=Fraction(max_tail, size),
        per_n_trend=tuple(trend),
    )
