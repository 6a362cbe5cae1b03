"""One rule for the package's array-holding values.

A value class is a frozen dataclass declared with ``eq=False`` over
``ArrayValue``. Two values are equal when they are of exactly the same
type and every dataclass field is equal: arrays by ``np.array_equal``,
tuples item by item under the same rule, anything else by ``==``. Values
are unhashable, since their arrays are. A class keeps an array read-only
by storing its own copy with ``_hold`` in ``__post_init__``. Pickling
rebuilds a value through its constructor, so an unpickled copy is checked
and held exactly as the original was.
"""

from dataclasses import fields

import numpy as np


def _same(left, right) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.array_equal(left, right)
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(map(_same, left, right))
    return left == right


class ArrayValue:
    """Mixin for frozen, ``eq=False`` dataclasses that hold numpy arrays."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def _hold(self, name: str, dtype) -> np.ndarray:
        """Replace field ``name`` with a read-only copy of it as ``dtype``."""
        arr = np.array(getattr(self, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)
        return arr
