"""The retired wall-clock fast-path switch.

Copy-on-write payload transfer, per-channel indexed mailboxes, bind-once
metric handles and the heap scheduler were once selectable behind an
environment switch.  They are now simply how the runtime works, and the
switch is gone.  :func:`enabled` remains because the repo benchmark
(``perfbench/``) records it in every run's resolved configuration and
runs unchanged against this code.
"""

from __future__ import annotations


def enabled() -> bool:
    """Always True: the runtime has exactly one path."""
    return True
