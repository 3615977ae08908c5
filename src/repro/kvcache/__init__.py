"""Systems-level KV-cache management: the paged block manager."""

from repro.kvcache.paged import CapacityError, PagedStore, StoreStats

__all__ = ["CapacityError", "PagedStore", "StoreStats"]
