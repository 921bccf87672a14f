"""Atomic artifact writes shared by every writer of the package."""

from __future__ import annotations

import os


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a sibling ``.tmp`` file and
    ``os.replace``, so that ``path`` holds either its old content or the
    whole new one; the ``.tmp`` file is removed if the write fails."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
