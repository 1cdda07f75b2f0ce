"""The one cache mechanism: a bounded least-recently-used map.

Keys are plain parameters plus, for array inputs, ``digest`` of the
arrays' dtype, shape and bytes, so an entry is found again for equal
content and never through object identity.  ``hits``, ``misses`` and
``nbytes`` (array bytes held) report what a cache does.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np


def digest(*arrays: np.ndarray) -> bytes:
    """blake2b of each array's dtype, shape and C-order bytes.

    A C-contiguous array is hashed through its buffer with no copy;
    any other layout is copied to C order first, as ``tobytes`` would.
    """
    h = hashlib.blake2b(digest_size=16)
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(np.ascontiguousarray(a))
    return h.digest()


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(map(_nbytes, value))
    if hasattr(value, "__dict__"):
        return sum(map(_nbytes, vars(value).values()))
    return 0


class LRUCache:
    """At most ``capacity`` entries; a miss past it evicts the least
    recently used one.  Values are shared, so callers must not mutate them.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.hits = self.misses = self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, nbytes)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, build):
        """The value stored under ``key``, from ``build()`` on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key][0]
        self.misses += 1
        value = build()
        self._entries[key] = (value, _nbytes(value))
        self.nbytes += self._entries[key][1]
        while len(self._entries) > self.capacity:
            self.nbytes -= self._entries.popitem(last=False)[1][1]
        return value
