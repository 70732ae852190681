"""Server-level deflation policies (Section 5.1 of the paper).

All three policy families — proportional (Eqs. 1/2), priority-weighted
proportional (Eqs. 3/4) and deterministic — take NumPy arrays at their
public entries.  A policy answers one question per resource dimension:

    given per-VM capacities ``M_i``, minimum allocations ``m_i``, priorities
    ``pi_i`` and a total amount ``R`` that must be reclaimed on this server,
    what is each deflatable VM's new target allocation?

Design note — *recompute-from-capacity semantics*: policies always compute
target allocations from the full capacities and the server's **current total
required reclaim**, not incrementally from the previous allocation.  Under
this formulation reinflation (Section 5.1.3, "run the proportional deflation
backwards") falls out automatically: when a VM departs, the required reclaim
drops and the recomputed targets are higher.  It also makes
deflate-then-reinflate exactly idempotent, which the property tests verify.

The proportional-family solver handles the clamping the paper leaves
implicit: the closed forms of Eqs. 1–4 can push an individual VM below zero
(or below ``m_i``) when priorities are heterogeneous, so we solve the
equivalent water-filling problem ``sum_i clip(b_i - alpha * w_i, 0, cap_i)
= R`` for the level ``alpha`` exactly: sort the 2n breakpoints where a
term enters or leaves its linear regime, walk the piecewise-linear clipped
sum to the active segment, and solve for ``alpha`` in closed form
(O(n log n), one pass).  This replaced an 80-iteration bisection — the
repo's first deliberate numerical change; the old solver is pinned
verbatim in :mod:`repro.core.waterfill_reference` and
``tests/core/test_waterfill_equivalence.py`` holds the two within 1e-9
(see docs/performance.md, "Deliberate numerical changes").

Policies also expose :meth:`DeflationPolicy.reclaim_plan`: a reusable
solver over a fixed (capacities, minimums, priorities) pool, given as
lists of floats.  The cluster simulator rebalances the same server
membership many times with only the required amount changing, so the
priority policy hoists its breakpoint sort into the plan and answers each
solve in O(n).  Its pools hold a few dozen VMs, where NumPy's per-call
dispatch dominated, so the proportional and priority policies solve on
Python floats; their array entries wrap the same solver.  Every float
operation is the one the earlier NumPy code performed, in the same order
(``_np_sum`` reproduces ``ndarray.sum()``'s pairwise order), so the
results are bit-identical to it (``tests/core/test_waterfill_digests.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.errors import DeflationError, UnknownComponentError
from repro.registry import RegistryView, register, resolve

_TOL = 1e-9


def _validate_inputs(
    capacities: np.ndarray, minimums: np.ndarray, priorities: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    caps = np.asarray(capacities, dtype=np.float64)
    mins = np.asarray(minimums, dtype=np.float64)
    prios = np.asarray(priorities, dtype=np.float64)
    if caps.shape != mins.shape or caps.shape != prios.shape:
        raise DeflationError("capacities, minimums and priorities must have equal shapes")
    if (caps < -_TOL).any():
        raise DeflationError("capacities must be non-negative")
    if (mins < -_TOL).any() or (mins > caps + 1e-6).any():
        raise DeflationError("minimums must satisfy 0 <= m_i <= M_i")
    if (prios <= 0.0).any() or (prios > 1.0).any():
        raise DeflationError("priorities must be in (0, 1]")
    return caps, np.minimum(mins, caps), prios


def _np_sum(values) -> float:
    """``np.asarray(values, dtype=float64).sum()``, bit for bit, on a list.

    NumPy sums a contiguous float64 vector pairwise: fewer than 8 terms
    add sequentially from 0.0; up to 128 terms run eight interleaved
    accumulators combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    before the tail is added in order; longer vectors split at ``n // 2``
    rounded down to a multiple of 8 and recurse.  The reduction starts
    from the additive identity 0.0, which only matters for an all ``-0.0``
    input.  ``tests/core/test_np_sum.py`` holds this against
    ``np.add.reduce`` so a NumPy that changes its order fails loudly.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _np_sum(values[:half]) + _np_sum(values[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(tail, n):
        total += values[i]
    return 0.0 + total


class _WaterfillPlan:
    """Exact sorted-breakpoint water-fill over one fixed ``(base, weight, cap)``.

    Each positive-weight term ``x_i(alpha) = clip(base_i - alpha * weight_i,
    0, cap_i)`` is constant at ``cap_i`` below ``(base_i - cap_i) / weight_i``,
    linear in between, and zero above ``base_i / weight_i``; zero-weight terms
    contribute the alpha-independent ``clip(base_i, 0, cap_i)``.  The clipped
    sum is therefore piecewise linear and non-increasing in alpha with at most
    ``2n`` breakpoints.  The sweep sorts those breakpoints once and
    prefix-sums the slope/intercept deltas (O(n log n)); each
    :meth:`reclaim` then finds the active segment with one scan and solves
    for alpha in closed form — no iteration.

    The pools the simulator solves hold a few dozen VMs at most, where
    NumPy's per-call dispatch cost dwarfs the arithmetic, so the plan works
    on lists of Python floats.  Every operation is the float64 operation
    the array form performed, in the same order — stable sorts, running
    sums in place of ``cumsum``, ``_np_sum`` in place of ``.sum()`` — so
    the results are bit-identical to it (``tests/core/
    test_waterfill_digests.py`` pins them).  The plan is reusable across
    ``amount`` values, which is how the cluster simulator amortizes the
    sort over a server's rebalance storm (see
    :meth:`DeflationPolicy.reclaim_plan`).

    Most solves end on the segment left of the first breakpoint (83% of
    the priority solves in a 10k-VM replay at overcommitment 0.6), so the
    plan evaluates the clipped sum at that first breakpoint up front and
    defers the sort and prefix sums until a solve needs a later segment.
    Deferring changes no operation, only when it runs.
    """

    __slots__ = ("base", "weight", "cap", "total_cap", "_const", "_b", "_w", "_c",
                 "_alphas", "_seg0", "_first", "_sweep")

    def __init__(self, base: list[float], weight: list[float], cap: list[float]) -> None:
        self.base = base
        self.weight = weight
        self.cap = cap
        self.total_cap = _np_sum(cap)
        if not weight or min(weight) > 0.0:
            b, w, c = base, weight, cap
            self._const = 0.0
        else:
            pos = [i for i, wi in enumerate(weight) if wi > 0.0]
            b = [base[i] for i in pos]
            w = [weight[i] for i in pos]
            c = [cap[i] for i in pos]
            rest = [i for i, wi in enumerate(weight) if not wi > 0.0]
            self._const = _np_sum(_clip([base[i] for i in rest], [cap[i] for i in rest]))
        self._b, self._w = b, w
        self._sweep = None
        const = self._const
        if c is b or b == c:
            # cap == base (exactly the priority policy's shape: every term is
            # ``clip(pool_i - alpha * w_i, 0, pool_i)``): the cap-regime
            # breakpoint ``(b - c) / w`` is exactly 0 for every term, so the
            # only sweep events are the zero crossings at ``b / w`` — half
            # the events and no sort interleaving.  The pre-first-event
            # segment carries the full linear sum (``_seg0`` below); for a
            # requested amount above that segment's range the solved alpha
            # goes negative, where ``clip`` pins every term right back at
            # ``cap == base`` — the same vector the generic sweep's flat
            # alpha = 0 segment produces.
            self._c = None
            self._alphas = alphas = [bi / wi for bi, wi in zip(b, w)]
            b_sum = self.total_cap if b is cap else _np_sum(b)
            w_sum = _np_sum(w)
            self._seg0 = (0.0, b_sum, w_sum)
            if alphas:
                # Event 0 of the stable sort: the first minimal breakpoint.
                k = min(range(len(alphas)), key=alphas.__getitem__)
                x = alphas[k]
                self._first = (x, (const + (b_sum - b[k])) - x * (w_sum - w[k]))
            return
        # Sweep events: entering the linear regime at (b-c)/w trades the
        # constant c_i for the linear term b_i - alpha*w_i; hitting zero at
        # b/w removes the linear term.  Stable sort keeps tied breakpoints
        # deterministic (lo-events of equal alpha before hi-events).
        self._c = c
        alphas = [(bi - ci) / wi for bi, ci, wi in zip(b, c, w)]
        alphas += [bi / wi for bi, wi in zip(b, w)]
        self._alphas = alphas
        cap_sum_pos = _np_sum(c)
        self._seg0 = (cap_sum_pos, 0.0, 0.0)
        if alphas:
            # This shape is not on the simulator's path; sweep eagerly.
            sorted_alphas, _, _, _, values = self._build_sweep()
            self._first = (sorted_alphas[0], values[0])

    def _build_sweep(self) -> tuple:
        """Sorted breakpoints with the running state right of each one.

        On the segment right of event j the clipped sum is ``const + C[j] +
        A[j] - alpha * B[j]`` (``C`` is all zero in the cap == base shape);
        ``values[j]`` is that segment evaluated at the event's own alpha
        (continuity).
        """
        b, w, c, alphas = self._b, self._w, self._c, self._alphas
        const = self._const
        order = sorted(range(len(alphas)), key=alphas.__getitem__)
        sorted_alphas = [alphas[k] for k in order]
        if c is None:
            _, b_sum, w_sum = self._seg0
            C = None
            A = [b_sum - s for s in accumulate([b[k] for k in order])]
            B = [w_sum - s for s in accumulate([w[k] for k in order])]
            values = [(const + a) - x * s for a, x, s in zip(A, sorted_alphas, B)]
        else:
            d_const = [-ci for ci in c] + [0.0] * len(c)
            d_icept = b + [-bi for bi in b]
            d_slope = w + [-wi for wi in w]
            cap_sum_pos = self._seg0[0]
            C = [s + cap_sum_pos for s in accumulate([d_const[k] for k in order])]
            A = list(accumulate([d_icept[k] for k in order]))
            B = list(accumulate([d_slope[k] for k in order]))
            values = [
                ((const + cc) + a) - x * s for cc, a, x, s in zip(C, A, sorted_alphas, B)
            ]
        self._sweep = (sorted_alphas, C, A, B, values)
        return self._sweep

    def _level(self, seg: tuple, right: float, amount: float) -> float:
        """The alpha at which segment ``seg = (C, A, B)`` sums to ``amount``."""
        seg_c, seg_a, seg_b = seg
        if seg_b > 0.0:
            return (self._const + seg_c + seg_a - amount) / seg_b
        # Flat segment (tied breakpoints): every alpha on it maps to the
        # same clipped vector; take the right endpoint.
        return right

    def reclaim(self, amount: float) -> list[float]:
        """Per-VM reclaim list for this pool at the given total ``amount``.

        Same contract (and guard tolerances) as the pinned bisection in
        :mod:`repro.core.waterfill_reference`: callers guarantee
        ``0 <= amount <= sum(cap)``; the final in-cap rescale squeezes out
        the last float rounding so the total matches ``amount`` exactly
        whenever the pool can express it.
        """
        if amount <= _TOL:
            return [0.0] * len(self.base)
        if amount >= self.total_cap - _TOL:
            return list(self.cap)
        if not self._alphas:
            # No positive weights: the clipped sum is alpha-independent, so
            # any level yields the same vector (the bisection's converged
            # endpoint produced exactly this before its rescale).
            x = _clip(self.base, self.cap)
        else:
            first_alpha, first_value = self._first
            if first_value <= amount:
                alpha = self._level(self._seg0, first_alpha, amount)
            else:
                alphas, C, A, B, values = self._sweep or self._build_sweep()
                # values[0] is first_value, already above amount.
                for j in range(1, len(values)):
                    if values[j] <= amount:
                        seg = (C[j - 1] if C is not None else 0.0, A[j - 1], B[j - 1])
                        alpha = self._level(seg, alphas[j], amount)
                        break
                else:
                    # Even past the last breakpoint the zero-weight floor
                    # alone exceeds `amount`: park every weighted term at
                    # zero and let the rescale shrink inside the caps,
                    # exactly as the bisection's converged upper bracket did.
                    alpha = alphas[-1]
            x = []  # np.clip(base - alpha * weight, 0.0, cap), as in _clip
            for bi, wi, ci in zip(self.base, self.weight, self.cap):
                v = bi - alpha * wi
                v = v if v > 0.0 else 0.0
                x.append(v if v < ci else ci)
        total = _np_sum(x)
        if total > _TOL:
            scale = amount / total
            x = [y if (y := v * scale) < ci else ci for v, ci in zip(x, self.cap)]
        return x


def _clip(values: list[float], caps: list[float]) -> list[float]:
    """``np.clip(values, 0.0, caps)``: ``maximum`` with 0.0, then ``minimum``."""
    out = []
    for v, c in zip(values, caps):
        v = v if v > 0.0 else 0.0
        out.append(v if v < c else c)
    return out


def _waterfill_reclaim(
    base: np.ndarray, weight: np.ndarray, cap: np.ndarray, amount: float
) -> np.ndarray:
    """Solve sum_i clip(base_i - alpha * weight_i, 0, cap_i) = amount for alpha.

    Returns the per-VM reclaim amounts ``x_i`` via the exact breakpoint
    solver.  Callers guarantee ``0 <= amount <= sum(cap)``.  One-shot array
    entry; repeated solves over the same pool should build a
    :class:`_WaterfillPlan` (via :meth:`DeflationPolicy.reclaim_plan`) and
    reuse it.
    """
    plan = _WaterfillPlan(_floats(base), _floats(weight), _floats(cap))
    return np.array(plan.reclaim(amount), dtype=np.float64)


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=np.float64).tolist()


def _finalize(caps: list[float], reclaim: list[float], required: float) -> tuple[list[float], bool]:
    """Clamp a reclaim list into the capacities; flag whether it covers ``required``."""
    reclaim = [r if r < c else c for r, c in zip(reclaim, caps)]
    return reclaim, _np_sum(reclaim) >= required - 1e-6


def _result(caps: np.ndarray, solved: tuple[list[float], bool]) -> "DeflationResult":
    reclaimed = np.array(solved[0], dtype=np.float64)
    return DeflationResult(allocations=caps - reclaimed, reclaimed=reclaimed, satisfied=solved[1])


@dataclass(frozen=True)
class DeflationResult:
    """Outcome of a policy evaluation for one resource dimension."""

    allocations: np.ndarray  # new target allocation per VM
    reclaimed: np.ndarray  # capacity - allocation, per VM
    satisfied: bool  # True if total reclaimed >= requested amount

    @property
    def total_reclaimed(self) -> float:
        return float(self.reclaimed.sum())


class DeflationPolicy(abc.ABC):
    """Common interface for the server-level deflation policies."""

    #: Short machine-readable name, used by experiment harnesses.
    name: str = "abstract"

    @abc.abstractmethod
    def max_reclaimable(
        self, capacities: np.ndarray, minimums: np.ndarray, priorities: np.ndarray
    ) -> float:
        """Upper bound of what this policy can reclaim from the given pool."""

    @abc.abstractmethod
    def target_allocations(
        self,
        capacities: np.ndarray,
        minimums: np.ndarray,
        priorities: np.ndarray,
        required: float,
    ) -> DeflationResult:
        """Compute per-VM target allocations reclaiming >= ``required`` total.

        ``required <= 0`` means no pressure: all VMs return to full capacity
        (this is how reinflation is expressed).  If the pool cannot yield
        ``required`` even at maximum deflation, the policy deflates maximally
        and flags ``satisfied=False`` — the caller (cluster manager) treats
        that as a reclamation failure (Figure 20).
        """

    def target_allocations_trusted(
        self,
        capacities: np.ndarray,
        minimums: np.ndarray,
        priorities: np.ndarray,
        required: float,
    ) -> DeflationResult:
        """:meth:`target_allocations` for inputs the caller has validated.

        The cluster simulator evaluates policies tens of thousands of times
        per replay on per-server arrays it constructed itself (always valid
        float64, ``0 <= m_i <= M_i``, ``0 < pi_i <= 1``); re-validating them
        on every call dominated the solve cost.  The default delegates to
        :meth:`target_allocations`, so third-party policies keep working
        unchanged; the built-in policies override this to run the identical
        math without the checks — results are bit-for-bit the same.  A new
        policy may do the same, but only for inputs it is certain the
        simulator pre-validated: :meth:`target_allocations` remains the
        documented hook, and overrides of it are never bypassed (the
        built-ins guard with an exact ``type(self)`` check).
        """
        return self.target_allocations(capacities, minimums, priorities, required)

    def reclaim_plan(self, capacities, minimums, priorities):
        """Reusable solver over one fixed, pre-validated pool.

        Takes the pool as lists of floats and returns ``solve(required) ->
        (reclaimed, satisfied)``: the per-VM reclaim list and whether it
        covers ``required``, bit-identical to the ``reclaimed`` and
        ``satisfied`` of :meth:`target_allocations_trusted` on the same
        inputs.  The cluster simulator rebalances the same server membership
        many times with only ``required`` changing (on-demand churn around a
        stable deflatable set), so a plan lets a policy hoist
        membership-dependent work — the priority policy's breakpoint sort —
        out of that loop, and lists spare the per-call NumPy dispatch that
        dominates pools of a few dozen VMs.  The default adapts the trusted
        entry, so third-party policies keep working unchanged.  Callers must
        not mutate the lists while the plan is live.
        """
        caps = np.asarray(capacities, dtype=np.float64)
        mins = np.asarray(minimums, dtype=np.float64)
        prios = np.asarray(priorities, dtype=np.float64)

        def solve(required: float) -> tuple[list[float], bool]:
            result = self.target_allocations_trusted(caps, mins, prios, required)
            return _floats(result.reclaimed), bool(result.satisfied)

        return solve


@register("policy", "proportional")
class ProportionalPolicy(DeflationPolicy):
    """Eq. 1 (and Eq. 2 when minimum allocations are set).

    Every deflatable VM is deflated in proportion to its deflatable pool
    ``M_i - m_i``, which avoids excessively deflating small VMs.
    """

    name = "proportional"

    def max_reclaimable(self, capacities, minimums, priorities) -> float:
        caps, mins, _ = _validate_inputs(capacities, minimums, priorities)
        return float((caps - mins).sum())

    def target_allocations(self, capacities, minimums, priorities, required) -> DeflationResult:
        caps, mins, _ = _validate_inputs(capacities, minimums, priorities)
        return self._compute(caps, mins, required)

    def target_allocations_trusted(self, capacities, minimums, priorities, required):
        # Exact type check: a subclass overriding target_allocations (the
        # documented hook) must not be silently bypassed by the fast entry.
        if type(self) is not ProportionalPolicy:
            return self.target_allocations(capacities, minimums, priorities, required)
        return self._compute(capacities, minimums, required)

    def reclaim_plan(self, capacities, minimums, priorities):
        # Exact type check, same discipline as target_allocations_trusted.
        if type(self) is not ProportionalPolicy:
            return super().reclaim_plan(capacities, minimums, priorities)
        return self._plan(capacities, minimums)

    def _compute(self, caps, mins, required) -> DeflationResult:
        return _result(caps, self._plan(caps.tolist(), _floats(mins))(required))

    def _plan(self, caps: list[float], mins: list[float]):
        # ``m_i`` is clamped to ``M_i`` here (``np.minimum``), for every entry.
        pool = [c - (m if m < c else c) for c, m in zip(caps, mins)]
        total = _np_sum(pool)
        zeros = [0.0] * len(caps)

        def solve(required: float) -> tuple[list[float], bool]:
            if required <= _TOL or not caps:
                return _finalize(caps, zeros, max(required, 0.0))
            if total <= _TOL:
                return _finalize(caps, zeros, required)
            frac = min(required / total, 1.0)
            return _finalize(caps, [p * frac for p in pool], required)

        return solve


@register("policy", "priority", priority_floor=True)
@register("policy", "priority-eq3", priority_floor=False)
class PriorityPolicy(DeflationPolicy):
    """Eqs. 3/4: weighted proportional deflation with priority-derived floors.

    The minimum allocation of VM *i* is ``max(m_i, pi_i * M_i)`` (Section
    5.1.2 suggests ``m_i = pi_i * M_i``), and the reclaim is weighted by
    ``pi_i * (M_i - m_i^eff)`` so low-priority VMs absorb more of the
    pressure.  The clamped water-filling solver keeps every VM inside
    ``[m_i^eff, M_i]`` while preserving the total.
    """

    name = "priority"

    def __init__(self, priority_floor: bool = True) -> None:
        #: When True (Eq. 4) the priority also sets the minimum allocation;
        #: when False (Eq. 3) only user-provided minimums apply.
        self.priority_floor = priority_floor

    def max_reclaimable(self, capacities, minimums, priorities) -> float:
        caps, mins, prios = _validate_inputs(capacities, minimums, priorities)
        eff_min = np.maximum(mins, prios * caps) if self.priority_floor else mins
        return float((caps - eff_min).sum())

    def target_allocations(self, capacities, minimums, priorities, required) -> DeflationResult:
        caps, mins, prios = _validate_inputs(capacities, minimums, priorities)
        return self._compute(caps, mins, prios, required)

    def target_allocations_trusted(self, capacities, minimums, priorities, required):
        # Exact type check: a subclass overriding target_allocations (the
        # documented hook) must not be silently bypassed by the fast entry.
        if type(self) is not PriorityPolicy:
            return self.target_allocations(capacities, minimums, priorities, required)
        return self._compute(capacities, minimums, priorities, required)

    def reclaim_plan(self, capacities, minimums, priorities):
        # Exact type check, same discipline as target_allocations_trusted:
        # a subclass overriding target_allocations (or _compute) must not be
        # silently bypassed by the cached fast path.
        if type(self) is not PriorityPolicy:
            return super().reclaim_plan(capacities, minimums, priorities)
        return self._plan(capacities, minimums, priorities)

    def _compute(self, caps, mins, prios, required) -> DeflationResult:
        return _result(caps, self._plan(caps.tolist(), _floats(mins), _floats(prios))(required))

    def _plan(self, caps: list[float], mins: list[float], prios: list[float]):
        # Effective floor ``max(min(m_i, M_i), pi_i * M_i)`` (Eq. 4) or
        # ``min(m_i, M_i)`` (Eq. 3), as ``np.minimum`` / ``np.maximum``.
        floor = self.priority_floor
        pool = []
        for c, m, p in zip(caps, mins, prios):
            m = m if m < c else c
            if floor:
                f = p * c
                m = m if m > f else f
            pool.append(c - m)
        # Water-fill with weight pi_i * pool_i: the literal Eq. 3/4 solution
        # whenever it is interior, clamped otherwise.  Low priority must
        # receive *more* reclaim, so the *retained* share is weighted by pi:
        # x_i(alpha) = pool_i - alpha * pi_i * pool_i.
        plan = _WaterfillPlan(pool, [p * q for p, q in zip(prios, pool)], pool)
        total = plan.total_cap
        zeros = [0.0] * len(caps)

        # The plan's own entry guards are no-ops behind these, which keep
        # the tolerances of the one-shot path.
        def solve(required: float) -> tuple[list[float], bool]:
            if required <= _TOL or not caps:
                return _finalize(caps, zeros, max(required, 0.0))
            if total <= _TOL:
                return _finalize(caps, zeros, required)
            if required >= total - _TOL:
                return _finalize(caps, pool, required)
            return _finalize(caps, plan.reclaim(required), required)

        return solve


@register("policy", "deterministic")
class DeterministicPolicy(DeflationPolicy):
    """Section 5.1.3: binary deflation in increasing priority order.

    A VM is either at 100% of its allocation or at ``pi_i * M_i``; VMs are
    deflated in decreasing deflatability (i.e. increasing ``pi_i``) until the
    requested amount is covered.  Because deflation is all-or-nothing the
    policy may overshoot ``required``; the overshoot is reported via
    ``reclaimed``.
    """

    name = "deterministic"

    def max_reclaimable(self, capacities, minimums, priorities) -> float:
        caps, mins, prios = _validate_inputs(capacities, minimums, priorities)
        floor = np.maximum(mins, prios * caps)
        return float((caps - floor).sum())

    def target_allocations(self, capacities, minimums, priorities, required) -> DeflationResult:
        caps, mins, prios = _validate_inputs(capacities, minimums, priorities)
        return self._compute(caps, mins, prios, required)

    def target_allocations_trusted(self, capacities, minimums, priorities, required):
        # Exact type check: a subclass overriding target_allocations (the
        # documented hook) must not be silently bypassed by the fast entry.
        if type(self) is not DeterministicPolicy:
            return self.target_allocations(capacities, minimums, priorities, required)
        return self._compute(
            capacities, np.minimum(minimums, capacities), priorities, required
        )

    def _compute(self, caps, mins, prios, required) -> DeflationResult:
        reclaim = np.zeros_like(caps)
        if required <= _TOL or caps.size == 0:
            return _result(caps, _finalize(caps.tolist(), reclaim.tolist(), max(required, 0.0)))
        floor = np.maximum(mins, prios * caps)
        yields = caps - floor
        # Deflate lowest-priority VMs first; break ties by larger yield so we
        # touch fewer VMs (stable for reproducibility).
        order = np.lexsort((-yields, prios))
        got = 0.0
        for idx in order:
            if got >= required - _TOL:
                break
            reclaim[idx] = yields[idx]
            got += float(yields[idx])
        return _result(caps, _finalize(caps.tolist(), reclaim.tolist(), required))


#: Legacy view over the unified registry (kind ``policy``); used by the
#: simulator CLI and the benchmarks.  New policies registered via
#: ``@register("policy", ...)`` appear here automatically.
POLICIES: RegistryView = RegistryView("policy")


def get_policy(name: str) -> DeflationPolicy:
    """Look a policy up by name, raising a helpful error on typos."""
    try:
        return resolve("policy", name)
    except UnknownComponentError as exc:
        raise DeflationError(str(exc)) from None
