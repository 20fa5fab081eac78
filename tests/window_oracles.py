"""Scalar references for the winding window, which the vector code in
`sqspiral.arms` and `sqspiral.verify` is checked against."""
from sqspiral.arms import WINDOW_HI, WINDOW_LO
from sqspiral.table import SpiralTable


def in_window(table: SpiralTable, a: int, b: int) -> bool:
    """True when ray b lies one winding past ray a: advance in (pi, 3*pi)."""
    d = table.angle_of(b) - table.angle_of(a)
    return WINDOW_LO < d < WINDOW_HI


def window_filtered(table: SpiralTable, seq) -> list[int]:
    """Members of a published sequence reachable by winding-window tracing."""
    keep = [seq[0]]
    for a, b in zip(seq, seq[1:]):
        if in_window(table, a, b):
            keep.append(b)
        else:
            keep = [b]
    return keep
