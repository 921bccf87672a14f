"""Atomic artifact writes shared by every writer of the package."""

from __future__ import annotations

import os
from collections.abc import Iterable


def write_text(path, pieces: Iterable[str]) -> None:
    """Write ``pieces``, one after another as they come, as UTF-8 to ``path``
    through a sibling ``.tmp`` file and ``os.replace``, so that ``path`` holds
    either its old content or the whole new one; the ``.tmp`` file is
    removed if the write fails."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
