"""Lint fixture: a cross-module value binding of the global RNG.

``pick`` is an *assignment*, not a call — linted alone, this file has
nothing to flag, and the kernel-side caller never mentions ``random`` at
all.  Only whole-program resolution connects the two.
"""

import random

pick = random.choice
