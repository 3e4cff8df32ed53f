"""Per-tenant token buckets with bounded state.

A classic refill-on-access token bucket, plus the table trick that makes
"millions of distinct tenant IDs" affordable: a bucket whose elapsed
refill would restore it to capacity is *indistinguishable from a fresh
bucket*, so the table drops it.  State is therefore proportional to the
set of tenants currently above their sustained rate — not to the tenant
population, and not to the total number of tenants ever seen.

Everything here is pure and clocked externally (time is passed in), so
admission decisions are a deterministic function of the arrival stream.
"""

from __future__ import annotations

__all__ = ["TenantBuckets", "TokenBucket"]

#: Slack applied to token comparisons so float refill error can never flip
#: an admission decision that exact arithmetic would have allowed.
_EPSILON = 1e-9


class TokenBucket:
    """One refill-on-access token bucket (``rate`` tokens/sec, ``capacity`` cap)."""

    __slots__ = ("rate", "capacity", "tokens", "updated")

    def __init__(self, rate: float, capacity: float, now: float = 0.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity  # a fresh bucket is full
        self.updated = now

    def refill(self, now: float) -> None:
        # Clamp, never rewind: a caller handing in an earlier timestamp
        # (out-of-order bookkeeping, clock skew between subsystems) must not
        # move ``updated`` backwards — the next on-time refill would credit
        # the same elapsed span twice, granting phantom tokens.
        if now > self.updated:
            self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
            self.updated = now

    def try_take(self, now: float, cost: float = 1.0) -> bool:
        """Admit (and charge) one request, or refuse without charging."""
        self.refill(now)
        if self.tokens + _EPSILON >= cost:
            self.tokens -= cost
            return True
        return False

    def restorable_at(self, now: float) -> bool:
        """Would refilling at ``now`` restore this bucket to capacity?

        A restorable bucket carries no information a fresh one would not,
        which is exactly the eviction criterion :class:`TenantBuckets` uses.
        """
        return self.tokens + (now - self.updated) * self.rate + _EPSILON >= self.capacity


class TenantBuckets:
    """Lazily-created per-tenant buckets; full buckets are evictable.

    ``allow`` is the only admission entry point: it creates the tenant's
    bucket on first sight (full, so a quiet tenant's first burst is always
    admitted) and charges it.  ``evict_restorable`` drops every bucket
    whose state a fresh bucket would reproduce — calling it at any
    frequency (or never) cannot change any admission decision, which the
    property tests assert.
    """

    def __init__(self) -> None:
        self._buckets: dict[int, TokenBucket] = {}
        #: High-water mark of live buckets — the state-bound evidence the
        #: traffic scorecard reports against the tenant population size.
        self.peak_buckets = 0
        self.evictions = 0

    def allow(
        self, tenant: int, rate: float, capacity: float, now: float, cost: float = 1.0
    ) -> bool:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(rate, capacity, now)
            self._buckets[tenant] = bucket
            if len(self._buckets) > self.peak_buckets:
                self.peak_buckets = len(self._buckets)
        return bucket.try_take(now, cost)

    def evict_restorable(self, now: float) -> int:
        """Drop every bucket a refill at ``now`` would restore to capacity."""
        dead = [
            tenant
            for tenant, bucket in self._buckets.items()
            if bucket.restorable_at(now)
        ]
        for tenant in dead:
            del self._buckets[tenant]
        self.evictions += len(dead)
        return len(dead)
