"""The object-level error of the dedup object store.

It lives in its own module so callers that only catch it (the drills, the
serving frontend) import it without pulling in the store itself.
"""

from __future__ import annotations

__all__ = ["ObjectStoreError"]


class ObjectStoreError(Exception):
    """Object-level failure (missing key, bad key, space)."""
