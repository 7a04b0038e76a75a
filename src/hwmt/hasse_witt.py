"""Hasse-Witt invariants as constant terms of f^(p-1) mod p.

The vertex pencil of a reflexive polytope Delta is fixed by Delta: it is
f_psi = sum of x^m over the vertices m of the polar dual, plus psi.  So
every function here takes the polytope (or a family, which names one) and
reads the dual's vertices; no pencil object is built.

The constant term of f_psi^e is a sum over nonnegative integer vectors
(a, a_0), a_i the power of the dual vertex w_i and a_0 that of psi, with
sum(a) + a_0 = e and sum_i a_i w_i = 0, each contributing
multinomial(e; a, a_0) * psi^{a_0}.  The origin takes whatever budget
e - sum(a) the vertices leave, so the vectors a are the points of the
kernel lattice of the vertex matrix in a simplex.  One recursion,
``_kernel_runs``, walks them through the integer coefficients of the lattice's HNF basis:
each pivot bounds its coefficient and partial sums on the free columns
prune, so the cost follows the rank of the kernel and the number of
surviving vectors rather than the number of monomials.  At the last basis
row the points left are an arithmetic progression, and the walk returns
each such progression as one run, not as vectors.  The walk reads
nothing but the lattice, the dual's ``vertex_kernel`` (its HNF basis and
ambient rank, in the dual's stored vertex order): two duals with the same
kernel have the same points and the same weights.  So what depends only
on the lattice (pivots, back substitution, bounds) is one cached
``_kernel_plan`` per lattice, shared by every polytope whose dual has it
and by every budget and prime.
The plan also holds walks made at powers of two: a budget e is served by
the walk at the least power of two >= e, its horizon, and cuts each run
of it instead of walking again, so one walk per kernel serves every
prime p with p - 1 in (2^(k-1), 2^k].  The cut is exact because the
walk's last row is: a run is every point of its prefix within the
budget, and sum(a) moves by the constant sum of the last basis row along
it, so the points within a smaller budget are a head or a tail of the
run, or all or none of it.  A budget never cuts the walk of a larger
horizon, so which walks a call makes depends only on its own budget and
on whether its horizon was walked before, never on the order of the
budgets asked.  The r pivot values of a point of a rank-r kernel are
nonnegative, sum to at most h and fix the point, so C(h + r, r) bounds the
summands of the walk at horizon h; above ``KERNEL_WALK_BUDGET`` the walk is
refused with ``BudgetExceeded`` before it starts.
Both readers fold each run without building a vector:
``hasse_witt_polynomial`` into weights mod p, and ``period_coefficients``
into exact multinomials, stepping each from the last by ratios of
factorials, so it reads no factorial table.  The tests compare the engine
with an independent depth-first search over every exponent coordinate.

For a fixed polytope and prime the invariant is one polynomial in psi of
degree <= p-1, with coefficients binom(p-1, n) b_n mod p.  It is
enumerated and memoized once per (kernel, p), ``_kernel_coefficients``,
and the per-(polytope, p) memo ``_hw_coefficients`` above it holds the
same tuple, so a polytope seen before costs one lookup and a new polytope
with a known kernel costs its dual's kernel and a second lookup;
``hasse_witt`` evaluates the polynomial at psi mod p.  The fold
reads one table per prime, 1/x! mod p for x < p, stepped down from
1/(p-1)! = -1 (Wilson's theorem), so it takes no inverse and keeps no
table of x!.  With (p-1)! = -1 the coefficient of psi^d is
-W_(p-1-d)/d!, where W_s sums prod_i 1/a_i! over the kernel points a with
sum(a) = s.
``truncation_relation_check`` reads its Hasse-Witt side from that
polynomial and sets it against the exact b_n of ``period_coefficients``,
with binom(p-1, n) = (-1)^n mod p.  So it checks the fold mod p against
exact arithmetic, but both sides read one walk: a walk that misses a
point changes both alike.  Only a named family's truncated hypergeometric
value, and the tests' depth-first search, are independent of the walk.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, log2, perm
from operator import mul
from typing import Optional, Tuple, Union

from .errors import BudgetExceeded, NotKernelPair, SingularMember
from .families import FamilyTag, get_family, identify_family
from .hypergeometric import (
    frac_mod,
    rational,
    require_prime,
    require_psi_mod_p,
    truncated_pFq,
)
from .polytope import (
    CACHE_SIZE,
    KernelLattice,
    LatticePolytope,
    kernel_invariant,
    polar_dual,
    vertex_kernel,
)


# The greatest C(h + r, r) a walk may bound.  Cold, on a 2-vCPU machine with
# Python 3.11, the walks measured took 33-69 ns per unit of it, so about 1.4 s
# at the bound: the hexagon (2D id 9) at p = 127 bounds 12,082,785 in 0.64 s,
# and rank 2 at p = 1009 bounds 525,825 in 36 ms; the hexagon at p = 1009
# (4.6 * 10^10) is refused.
KERNEL_WALK_BUDGET = 2 * 10**7

# The greatest bound in bits that ``period_coefficients`` may put on its
# exact b_0..b_n_max, log2(k) * n_max (n_max + 1) / 2 for k dual vertices.
# The quartic (k = 4) at n_max = 31622 bounds 1.0 * 10^9 bits and holds
# 2.5 * 10^8; cold, on a 2-vCPU machine with Python 3.11, it took 0.28 s and
# 48 MB peak RSS, and `verify truncation` at p = 31607 0.36 s and 52 MB; the
# quartic at p = 1000003 (10^12) is refused.
PERIOD_BITS_BUDGET = 10**9

# The greatest C(n_max + r, r) * log2(k) * n_max that ``period_coefficients``
# may fold: its summands for a rank-r kernel times the bits of the largest.
# Cold, on a 2-vCPU machine with Python 3.11, the folds measured above 10^9
# units took 0.05-0.31 ns per unit, so at most about 1.3 s at the bound: the
# hexagon (2D id 9, rank 4) at n_max = 126 bounds 3.7 * 10^9 in 1.16 s, the
# elliptic family (rank 2) at n_max = 1414 2.8 * 10^9 in 0.40 s, and the
# elliptic family at p = 4093 (6.9 * 10^10) is refused.
PERIOD_FOLD_BUDGET = 4 * 10**9


@dataclass(frozen=True)
class HWInvariant:
    prime: int
    value: int
    psi: Optional[Fraction] = None


# the part of the kernel-lattice walk that depends only on the lattice,
# and ``walked``, a dict from each horizon walked so far to its runs.  An
# entry is stored whole, never edited, so a thread always reads complete
# runs; two threads racing to store one can only cost a repeat walk.
_Plan = namedtuple("_Plan", "fixed varying incs d m most step above gain walked")


@lru_cache(maxsize=CACHE_SIZE)
def _kernel_plan(kernel: KernelLattice) -> _Plan:
    """Set up the walk over the nonnegative points of a kernel lattice, the
    left kernel of a tuple of exponent vectors; nothing here depends on the
    budget or p.

    Every such point a is c @ B for one integer vector c, where B is the
    row-HNF basis of the kernel, and the walk fixes c row by row.  Row t
    fixes the pivot column of B[t]: its value u_t = a[pivot_t] moves in
    steps of the pivot entry ``step[t]``, and ``above`` holds what each row
    puts on the pivot columns.  The other (free) columns are rational
    combinations of the pivot values, a[j] = sum_t u_t M[t][j] with
    M = B_pivots^-1 @ B; ``m`` holds the rows of M on the free columns
    scaled by d = det(B_pivots) so that they are integral.  ``most`` is
    the greatest value rows t+1.. can still put on each free column.
    d * sum(a) is sum_t u_t (d + sum(m[t])); ``gain[t]`` is row t's term
    where no later row's is negative, so that the budget bounds u_t alone,
    and else None.

    A run of the walk fixes u_0..u_{r-2}, the values of the ``fixed``
    columns, and steps u_{r-1} by its pivot entry; each step adds the last
    basis row, so the ``varying`` columns (the last pivot, then the free
    columns) advance by ``incs``, that row's entries on them.
    """
    k, basis = kernel
    r = len(basis)
    if r == 0:
        return _Plan((), tuple(range(k)), (0,) * k, 1, (), (), (), (), (), {})
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    free = [j for j in range(k) if j not in pivots]
    d = 1
    for t, j in enumerate(pivots):
        d *= basis[t][j]
    # back substitution
    m = [None] * r
    for t in range(r - 1, -1, -1):
        row = basis[t]
        m[t] = tuple(
            (d * row[j] - sum(row[pivots[s]] * m[s][i] for s in range(t + 1, r)))
            // row[pivots[t]]
            for i, j in enumerate(free)
        )
    columns = list(zip(*m))
    most = tuple(tuple(max((0, *col[t + 1:])) for col in columns) for t in range(r))
    step = tuple(row[j] for row, j in zip(basis, pivots))
    above = tuple(tuple(row[j] for j in pivots) for row in basis)
    gain = [d + sum(row) for row in m]
    gain = tuple(g if min(gain[t + 1:], default=0) >= 0 else None
                 for t, g in enumerate(gain))
    varying = (pivots[-1], *free)
    return _Plan(tuple(pivots[:-1]), varying, tuple(basis[-1][j] for j in varying),
                 d, tuple(m), most, step, above, gain, {})


def _horizon(e: int) -> int:
    """The budget of the walk that serves budget e: the least power of two
    >= e (1 for e <= 1)."""
    return 1 << max(e - 1, 0).bit_length()


def _kernel_runs(plan: _Plan, e: int):
    """The nonnegative kernel points a with sum(a) <= e, as a list of runs
    (prefix, count, starts): the points with a[plan.fixed] = prefix and
    a[plan.varying] = starts + i * plan.incs for i = 0..count-1.

    The runs are those of the walk at e's horizon, walked once per plan and
    cut to e.  Along a run sum(a) is s0 + i * ds with ds = sum(plan.incs),
    so the points with sum <= e are a head of the run when ds > 0, a tail
    when ds < 0, and all or none of it when ds = 0.  The walk's last row is
    exact, so each of its runs is every point of its prefix within the
    horizon, and the cut is the walk at e, run for run.  The returned lists
    are shared: read them only.  BudgetExceeded, before the walk, when
    its summand bound C(h + r, r) is above KERNEL_WALK_BUDGET.
    """
    h = _horizon(e)
    runs = plan.walked.get(h)
    if runs is None:
        r = len(plan.step)
        if comb(h + r, r) > KERNEL_WALK_BUDGET:
            raise BudgetExceeded(
                f"a rank {r} kernel walk to {h} (budget {e} rounded up to a power "
                f"of two) bounds {comb(h + r, r)} summands, above {KERNEL_WALK_BUDGET}")
        runs = plan.walked[h] = _walk(plan, h)
    if e == h:
        return runs
    incs = plan.incs
    ds = sum(incs)
    cut = []
    for prefix, count, starts in runs:
        s0 = sum(prefix) + sum(starts)
        if ds > 0:
            count = min(count, (e - s0) // ds + 1)
        elif ds < 0:
            skip = -((e - s0) // -ds)  # ceil((s0 - e) / -ds)
            if skip > 0:
                count -= skip
                starts = [v + skip * inc for v, inc in zip(starts, incs)]
        elif s0 > e:
            continue
        if count > 0:
            cut.append((prefix, count, starts))
    return cut


def _walk(plan: _Plan, e: int):
    """The runs of ``_kernel_runs`` at budget e, walked row by row.

    Each u_t is kept to the interval where every free column can still end
    nonnegative and, where ``gain[t]`` is set, u_t's own share of sum(a)
    fits the budget.  At the last row the free columns are final and the
    interval is exact, so it is one run.
    """
    _, varying, _, d, m, most, step, above, gain, _ = plan
    r = len(step)
    if r == 0:
        return [([], 1, [0] * len(varying))]
    u = [0] * r
    out = []

    def rec(t, used, q, pp):
        # q: d * free columns from rows < t; pp: what rows < t put on pivots
        room = e - used
        first, last = 0, room
        # a free column ends at most at x + u_t * y + (room - u_t) * h
        for x, y, h in zip(q, m[t], most[t]):
            base, slope = x + room * h, y - h
            if slope > 0:
                first = max(first, -(base // slope))
            elif slope < 0:
                last = min(last, base // -slope)
            elif base < 0:
                return
        if gain[t] is not None:
            # u_t * gain[t] <= d * room - sum(q), exact at the last row
            slack, slope = d * room - sum(q), gain[t]
            if slope > 0:
                last = min(last, slack // slope)
            elif slope < 0:
                first = max(first, -(-slack // slope))
            elif slack < 0:
                return
        b = step[t]
        if t < r - 1:
            first += (pp[t] - first) % b
            for ut in range(first, last + 1, b):
                u[t] = ut
                c = (ut - pp[t]) // b
                rec(t + 1, used + ut, [x + ut * y for x, y in zip(q, m[t])],
                    [x + c * y for x, y in zip(pp, above[t])] if c else pp)
            return
        first += (pp[t] - first) % b
        if first <= last:
            out.append((u[:-1], (last - first) // b + 1,
                        [first, *[(x + first * y) // d for x, y in zip(q, m[t])]]))

    rec(0, 0, [0] * len(m[0]), [0] * r)
    return out


@lru_cache(maxsize=CACHE_SIZE)
def _inverse_factorials(p):
    """1/x! mod p for x = 0..p-1, from Wilson's theorem: 1/(p-1)! = -1 mod
    p, then 1/(x-1)! = x/x! down to 1/0! = 1, so it takes no inverse and
    keeps no table of x!.  Memoized per p; the list is shared, so read it
    only."""
    inv_fact = [1] * p
    inv_fact[-1] = p - 1
    for x in range(p - 1, 1, -1):
        inv_fact[x - 1] = inv_fact[x] * x % p
    return inv_fact


def _budget_weights(kernel, e, p):
    """W[s] = sum of prod_i 1/a_i! over the nonnegative points a of the
    kernel lattice with sum(a) = s, for s = 0..e < p; each W[s] is correct
    mod p but not reduced.

    Each run multiplies its prefix's 1/m! once; along the run each varying
    column reads a slice of the 1/m! table, and the slices multiply
    pointwise.  The table, sized by p, is built after the walk, so a walk
    refused by its budget builds none.
    """
    plan = _kernel_plan(kernel)
    runs = _kernel_runs(plan, e)
    inv_fact = _inverse_factorials(p)
    ds = sum(plan.incs)
    weights = [0] * (e + 1)
    for prefix, count, starts in runs:
        w = 1
        for v in prefix:
            w = w * inv_fact[v] % p
        column = [w] * count
        for v, inc in zip(starts, plan.incs):
            # map stops at the run's end, inside the slice
            column = map(mul, column, inv_fact[v::inc] if inc else repeat(inv_fact[v]))
        s0 = sum(prefix) + sum(starts)
        if ds:
            for s, x in zip(range(s0, s0 + count * ds, ds), column):
                weights[s] += x % p
        else:
            weights[s0] += sum(column)
    return weights


def _resolve_polytope(source) -> Tuple[LatticePolytope, Optional[FamilyTag]]:
    """(polytope, family) of a family given by name or FamilyTag, and
    (polytope, None) of a polytope."""
    if isinstance(source, LatticePolytope):
        return source, None
    fam = get_family(source)
    return fam.polytope, fam


def hasse_witt(source: Union[str, FamilyTag, LatticePolytope], psi,
               p: int) -> HWInvariant:
    """Hasse-Witt invariant of the vertex pencil member at psi over F_p.

    Accepts a family (its name or FamilyTag) or a LatticePolytope; any
    other value raises UnknownFamily.  Family members known to be singular
    at psi are rejected; for a bare polytope no smoothness check is
    possible.  The value is the polytope's Hasse-Witt polynomial at psi, so
    every psi after the first at the same (polytope, p) costs O(p).  A psi
    that is not a rational raises NotRational.
    """
    psi = rational(psi)
    delta, fam = _resolve_polytope(source)
    if fam is not None and not fam.is_smooth(psi):
        raise SingularMember(f"{fam.name} member at psi = {psi} is singular")
    require_psi_mod_p(psi, p)
    coeffs = _hw_coefficients(delta, p)
    # p is prime and does not divide psi's denominator: both checked above
    x, value = psi.numerator * pow(psi.denominator, -1, p) % p, 0
    for c in reversed(coeffs):
        value = (value * x + c) % p
    return HWInvariant(p, value, psi)


def hasse_witt_polynomial(source: Union[str, FamilyTag, LatticePolytope],
                          p: int) -> Tuple[int, ...]:
    """Coefficients (ascending in psi) of the symbolic Hasse-Witt invariant
    of a family's or a polytope's vertex pencil.

    The result always has length p, i.e. degree <= p-1 in psi: the origin
    monomial can absorb at most the whole exponent budget.  One enumeration
    with budget <= p-1 on the dual-vertex monomials covers every power of
    psi, and the result is memoized per (kernel of the dual, p).
    """
    return _hw_coefficients(_resolve_polytope(source)[0], p)


@lru_cache(maxsize=CACHE_SIZE)
def _hw_coefficients(delta: LatticePolytope, p: int) -> Tuple[int, ...]:
    # an exception is not cached, so NotPrime is raised on every call
    require_prime(p)
    return _kernel_coefficients(vertex_kernel(polar_dual(delta)), p)


@lru_cache(maxsize=CACHE_SIZE)
def _kernel_coefficients(kernel: KernelLattice, p: int) -> Tuple[int, ...]:
    """The Hasse-Witt coefficients of every polytope whose dual has this
    kernel lattice, for a prime p."""
    e = p - 1
    weights = _budget_weights(kernel, e, p)
    inv_fact = _inverse_factorials(p)
    # budget s on the vertex monomials leaves e - s for psi * x^0, and
    # e! = -1 mod p (Wilson)
    return tuple(-inv_fact[d] * weights[e - d] % p for d in range(p))


def period_coefficients(source: Union[str, FamilyTag, LatticePolytope],
                        n_max: int) -> Tuple[int, ...]:
    """b_n = constant term of (sum of dual-vertex monomials)^n, exactly, for
    a family (its name or FamilyTag) or a LatticePolytope, as ``hasse_witt``
    takes them.

    These are the integer Taylor coefficients of the holomorphic-period
    expansion at the large complex structure limit.  The bounds of
    ``_require_period_budget`` are checked before the walk.
    """
    kernel = vertex_kernel(polar_dual(_resolve_polytope(source)[0]))
    _require_period_budget(kernel, n_max)
    return _multinomial_sums(kernel, n_max)


def _require_period_budget(kernel, n_max):
    """BudgetExceeded unless the exact b_0..b_n_max of a kernel lattice in
    Z^k fit two bounds; it walks nothing.  With k dual vertices b_n <= k^n, so
    b_0..b_n_max hold at most log2(k) * n_max * (n_max + 1) / 2 bits,
    bounded by PERIOD_BITS_BUDGET.  The fold adds at most C(n_max + r, r)
    summands for a rank-r kernel (the walk's bound), each of at most
    log2(k) * n_max bits; their product bounds its time and is bounded by
    PERIOD_FOLD_BUDGET."""
    k, r = kernel.ambient_rank, kernel.rank
    bits = log2(k) * n_max * (n_max + 1) / 2
    if bits > PERIOD_BITS_BUDGET:
        raise BudgetExceeded(
            f"exact periods to n = {n_max} over {k} dual vertices bound "
            f"{bits:.0f} bits, above {PERIOD_BITS_BUDGET}")
    summands = comb(n_max + r, r)
    # an int compared with a float is exact and never overflows; k >= 2
    if summands * n_max > PERIOD_FOLD_BUDGET / log2(k):
        raise BudgetExceeded(
            f"exact periods to n = {n_max} fold up to {summands} summands of a "
            f"rank {r} kernel, of up to {log2(k) * n_max:.0f} bits each, "
            f"above {PERIOD_FOLD_BUDGET} summand bits")


def _ratio(x, k):
    """(x + k)!/x! as (numerator, denominator), for x + k >= 0."""
    return (perm(x + k, k), 1) if k >= 0 else (1, perm(x, -k))


def _multinomial_sums(kernel, n_max):
    """Sum of n!/prod_i a_i! over the nonnegative points a of the kernel
    lattice with sum(a) = n, exactly, for n = 0..n_max: one run at a time."""
    plan = _kernel_plan(kernel)
    ds, values = sum(plan.incs), [0] * (n_max + 1)
    for prefix, count, starts in _kernel_runs(plan, n_max):
        n, w, a = 0, 1, list(starts)
        for v in (*prefix, *starts):
            n, w = n + v, w * comb(n + v, v)
        values[n] += w
        for _ in range(count - 1):  # a step past the run's end divides by 0
            num, den = _ratio(n, ds)
            for j, inc in enumerate(plan.incs):
                up, down = _ratio(a[j], inc)
                num, den, a[j] = num * down, den * up, a[j] + inc
            n, w = n + ds, w * num // den
            values[n] += w
    return tuple(values)


def key_lemma_check(delta: LatticePolytope, gamma: LatticePolytope,
                    psi, p: int) -> Tuple[bool, HWInvariant, HWInvariant]:
    """Compare Hasse-Witt invariants of the two vertex pencils at (psi, p).

    The hypotheses are enforced: (delta, gamma) must be a kernel pair whose
    polar duals are also a kernel pair.  A False first component would be a
    counterexample -- equality is a theorem for such pairs.

    Both sides come from the engine's polynomial memo, which is keyed by the
    dual's kernel lattice in its stored vertex order.  When the two duals
    have the same kernel in that order, both sides read one memo entry and
    the comparison holds whatever the entry is: the check is then not
    independent of the engine.  Only where the stored orders differ do the
    two sides come from two walks.
    """
    if kernel_invariant(delta) != kernel_invariant(gamma):
        raise NotKernelPair("polytopes are not a kernel pair")
    if kernel_invariant(polar_dual(delta)) != kernel_invariant(polar_dual(gamma)):
        raise NotKernelPair("polar duals are not a kernel pair")
    hw_d = hasse_witt(delta, psi, p)
    hw_g = hasse_witt(gamma, psi, p)
    return hw_d.value == hw_g.value, hw_d, hw_g


def truncation_relation_check(delta_or_family, psi, p: int) -> bool:
    """Verify HW_p == sum_n binom(p-1, n) b_n psi^(p-1-n) mod p, and, when
    the polytope belongs to a named family, that HW_p matches the family's
    truncated hypergeometric value.

    HW_p is ``hasse_witt``'s memoized polynomial at psi, b_n the exact
    ``period_coefficients``, and binom(p-1, n) = (-1)^n mod p.  The bounds
    of the exact periods are checked before the Hasse-Witt walk, so a
    prime they refuse builds no table of length p.
    """
    psi = rational(psi)
    delta, fam = _resolve_polytope(delta_or_family)
    fam = fam or identify_family(delta)
    if fam is not None and not fam.is_smooth(psi):
        raise SingularMember(f"member at psi = {psi} is singular")
    require_psi_mod_p(psi, p)
    kernel = vertex_kernel(polar_dual(delta))
    _require_period_budget(kernel, p - 1)
    hw = hasse_witt(delta, psi, p).value
    x, rhs = frac_mod(psi, p), 0
    for n, bn in enumerate(_multinomial_sums(kernel, p - 1)):
        rhs = (rhs * x + (-bn if n % 2 else bn)) % p
    if hw != rhs:
        return False
    if fam is not None:
        if hw != truncated_pFq(fam.hg, psi, p).value:
            return False
    return True
