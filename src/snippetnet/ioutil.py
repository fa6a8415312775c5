"""Atomic file writes: write a sibling temp file, then rename over the target."""

from __future__ import annotations

import json
import os
from pathlib import Path


def atomic_write_bytes(path, data: bytes) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    # Exclusive create with the default mode 0o666, so the process umask sets
    # the permissions as for any other new file; mkstemp always gives 0600.
    handle = open(tmp_name, "xb")
    try:
        with handle:
            handle.write(data)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def json_bytes(payload) -> bytes:
    """Encode payload as indented, key-sorted JSON with a trailing newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
