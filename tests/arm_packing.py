"""Arms built by hand, packed into the table that the arm readers take."""
from itertools import chain

import numpy as np

from sqspiral.arms import DIRECTIONS, Arms


def pack_arms(arms) -> Arms:
    """`arms` as one table: itself if it is an Arms, else a table of its arms in order."""
    if isinstance(arms, Arms):
        return arms
    arms = list(arms)
    heads = [(*arm.poly, arm.start_t, DIRECTIONS.index(arm.direction))
             for arm in arms]
    members, drifts = [arm.members for arm in arms], [arm.drifts for arm in arms]
    m, d = (np.cumsum([0] + [len(x) for x in lists]) for lists in (members, drifts))
    cols = np.vstack([np.array(heads, dtype=np.int64).reshape(-1, 5).T, m[:-1], m[1:],
                      d[:-1], d[1:]])
    return Arms(cols, np.fromiter(chain.from_iterable(members), np.int64, m[-1]),
                np.fromiter(chain.from_iterable(drifts), float, d[-1]))
