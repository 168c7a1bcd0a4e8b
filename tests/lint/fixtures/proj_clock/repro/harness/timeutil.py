"""Lint fixture: a wall-clock read in a non-kernel helper module.

RPR102's direct sites are scoped to kernel packages, so this file lints
clean on its own; the defect only exists once kernel code calls it.
"""

import time


def stamp():
    return time.time()
