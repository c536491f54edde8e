"""Shard planning: split a guess-budget schedule across W workers.

The planner follows both halves of the dynamic-load-balancing playbook
(Liu, *Dynamic Load Balancing Algorithms in Parallel Adaptive FEM*):
budgets are divided as evenly as possible up front (:meth:`ShardPlanner.plan`),
every shard draws from its own named RNG stream
(``spawn_rng(seed, "shard-i")``), and imbalance is reconciled at the
shared checkpoints -- by merging accounting states (static schedules), or
by re-splitting the unconsumed budget over the shards still producing
(:func:`balanced_totals`, the elastic schedule's one re-partitioning
rule, which :func:`~repro.runtime.elastic.run_elastic` applies at every
round boundary).

For each global budget ``b`` and shard ``i`` the shard's *mark* is its
cumulative local quota ``b // W + (1 if i < b % W else 0)``; marks sum to
``b`` exactly, so when every shard reaches its mark for checkpoint ``j``
the union of their accounting states is the global state at exactly ``b``
guesses -- which is how :class:`~repro.runtime.parallel.ParallelAttackEngine`
reconstructs serial-shaped :class:`~repro.core.guesser.BudgetRow` rows.
Re-planned totals keep the same invariant: dead shards are frozen at what
they actually consumed and live shards absorb the rest, so every budget's
totals still sum to it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.guesser import validate_budgets
from repro.utils.rng import spawn_rng


def split_budget(budget: int, workers: int, index: int) -> int:
    """Shard ``index``'s share of ``budget`` under an even split."""
    base, remainder = divmod(budget, workers)
    return base + (1 if index < remainder else 0)


def balanced_totals(consumed: Sequence[int], target: int) -> List[int]:
    """Raise each shard's total to reach ``target``, as evenly as possible.

    Bounded water-filling: every entry may only grow (a shard cannot
    un-guess), the results sum to ``target`` exactly, the maximum is
    minimized, and leftover units go to the lowest ranks -- the same
    remainder rule as :func:`split_budget`.  With equal starting totals
    this *is* ``split_budget``; starting from the marks of a previous
    budget it reproduces the static plan's marks for the next one, which
    is what keeps an elastic run without faults bit-identical to the
    static split.
    """
    extra = target - sum(consumed)
    if extra < 0:
        raise ValueError(
            f"target {target} is below the {sum(consumed)} guesses already consumed"
        )
    if not consumed:
        if target:
            raise ValueError(
                f"cannot distribute a target of {target} over zero shards"
            )
        return []
    if extra == 0:
        return list(consumed)
    # largest water level L with sum(max(c, L)) <= target; f is
    # non-decreasing in L so binary search applies
    lo, hi = min(consumed), max(consumed) + extra
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sum(max(c, mid) for c in consumed) <= target:
            lo = mid
        else:
            hi = mid - 1
    totals = [max(c, lo) for c in consumed]
    leftover = target - sum(totals)
    for rank, c in enumerate(consumed):
        if leftover == 0:
            break
        if totals[rank] == lo:  # sits exactly on the water line
            totals[rank] += 1
            leftover -= 1
    return totals


@dataclass(frozen=True)
class ShardProgress:
    """One shard's observed progress at a re-planning point.

    ``consumed`` is how many guesses the shard has generated so far;
    ``live`` turns False once the shard's strategy ran dry (or crashed),
    which takes it out of every future budget split -- its remaining
    quota is what :func:`balanced_totals` hands back to the live shards.
    """

    index: int
    consumed: int
    live: bool = True


@dataclass(frozen=True)
class ShardPlan:
    """One worker's slice of an attack.

    ``marks[j]`` is the shard's cumulative guess quota at global budget
    ``j``; ``local_budgets`` is the deduplicated positive mark sequence the
    shard actually runs its accounting over (two global budgets can map to
    the same local mark when budgets are small relative to the worker
    count, and a mark of zero means the shard contributes nothing yet).
    ``workers`` records the fleet width the plan was cut for, so the
    executor can tell position-deterministic strategies their substream
    via :meth:`~repro.strategies.base.GuessingStrategy.bind_shard`.
    """

    index: int
    marks: List[int]
    workers: int = 1

    @property
    def local_budgets(self) -> List[int]:
        """Deduplicated positive marks: the shard's own budget schedule."""
        return sorted({mark for mark in self.marks if mark > 0})

    def rng_label(self, prefix: str = "") -> str:
        """The shard's RNG stream label (``spawn_rng(seed, label)``)."""
        return f"{prefix}shard-{self.index}"

    def rng(self, seed: int, prefix: str = "") -> np.random.Generator:
        """The shard's own deterministic generator for attack ``seed``."""
        return spawn_rng(seed, self.rng_label(prefix))


class ShardPlanner:
    """Plans the even split of a budget schedule over ``workers`` shards."""

    def __init__(self, budgets: Sequence[int], workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.budgets = validate_budgets(budgets)
        self.workers = int(workers)

    def plan(self) -> List[ShardPlan]:
        """One :class:`ShardPlan` per worker; marks sum to each budget."""
        return [
            ShardPlan(
                index=i,
                marks=[split_budget(b, self.workers, i) for b in self.budgets],
                workers=self.workers,
            )
            for i in range(self.workers)
        ]
