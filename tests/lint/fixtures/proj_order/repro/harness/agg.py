"""Lint fixture: an order-sensitive sink parameter in another module.

``items`` is iterated by a for-loop whose visit order shapes the result;
nothing in this file says callers will pass a set, so neither file has
anything to flag alone.
"""


def fold(items):
    out = []
    for item in items:
        out.append(item * 31 + len(out))
    return out
