"""Per-day query budget.

Search engines meter queries per client per day, so the ledger counts what was
issued today (UTC) and refuses the first call past the limit. Usage can be
persisted to a sidecar file; the limit itself always comes from configuration.

The sidecar holds one compact JSON object padded with spaces to RECORD_WIDTH
and ended by a newline. A ledger's first save replaces the file atomically;
every later save whose record has the same length overwrites it in place, with
one write at offset 0 that never changes the file's length, so a process cut
off during a charge leaves the old record or the new one.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .errors import BudgetExhausted, ConfigError
from .ioutil import atomic_write_bytes

# Characters of a sidecar record before its newline; trailing spaces are JSON
# whitespace, so readers parse the padded record unchanged.
RECORD_WIDTH = 127


def utc_day_key() -> str:
    """The current UTC calendar date, e.g. '2026-08-18'."""
    return datetime.now(timezone.utc).date().isoformat()


def read_ledger_state(path) -> dict | None:
    """Parse the sidecar at path into day_key, used_today and total_issued.

    Returns None when the file does not exist. Raises ConfigError, its
    message beginning with the path, when it is not a UTF-8 JSON object that
    holds all three fields with the types the ledger writes (so another file
    named like a sidecar is never overwritten); an OSError is raised as it is.
    """
    target = Path(path)
    try:
        state = json.loads(target.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{target}: ledger file is not valid JSON: {exc}") from exc
    if not isinstance(state, dict):
        raise ConfigError(f"{target}: ledger file must hold a JSON object")
    missing = [name for name in ("day_key", "used_today", "total_issued") if name not in state]
    if missing:
        raise ConfigError(f"{target}: not a ledger: it lacks {', '.join(missing)}")
    if not isinstance(state["day_key"], str):
        raise ConfigError(f"{target}: ledger day_key must be a string, got {state['day_key']!r}")
    for name in ("used_today", "total_issued"):
        value = state[name]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigError(f"{target}: ledger {name} must be a non-negative integer, got {value!r}")
    return {name: state[name] for name in ("day_key", "used_today", "total_issued")}


class BudgetLedger:
    """A daily query budget that starts at zero for today; only BudgetLedger.open restores saved usage."""

    def __init__(self, daily_limit: int, path=None, today_fn=utc_day_key):
        if daily_limit < 1:
            raise ValueError("daily_limit must be >= 1")
        self.daily_limit = daily_limit
        self.path = Path(path) if path is not None else None
        self.today_fn = today_fn
        self.day_key = today_fn()
        self.used_today = 0
        self.total_issued = 0
        self._saved_length = None  # bytes of the record this ledger last wrote

    @classmethod
    def open(cls, daily_limit: int, path, today_fn=utc_day_key) -> "BudgetLedger":
        """Load persisted usage from the sidecar at path, or start fresh.

        Raises ConfigError naming the sidecar when read_ledger_state refuses it.
        """
        ledger = cls(daily_limit, path=path, today_fn=today_fn)
        state = read_ledger_state(path)
        if state is not None:
            vars(ledger).update(state)  # day_key, used_today and total_issued
            ledger._roll_day()
        return ledger

    def _roll_day(self) -> None:
        today = self.today_fn()
        if today != self.day_key:
            self.day_key = today
            self.used_today = 0

    def charge(self) -> None:
        """Spend one query from today's budget.

        Raises BudgetExhausted when the day's allowance is already used up,
        leaving all counters untouched.
        """
        self._roll_day()
        if self.used_today >= self.daily_limit:
            raise BudgetExhausted(
                f"daily query limit of {self.daily_limit} reached for {self.day_key}"
            )
        self.used_today += 1
        self.total_issued += 1
        if self.path is not None:
            self._save()

    def snapshot(self) -> dict:
        return {
            "daily_limit": self.daily_limit,
            "day_key": self.day_key,
            "used_today": self.used_today,
            "total_issued": self.total_issued,
        }

    def _save(self) -> None:
        state = {
            "day_key": self.day_key,
            "used_today": self.used_today,
            "total_issued": self.total_issued,
        }
        # ASCII-only JSON, so the padded text is as long as its bytes.
        record = (json.dumps(state, sort_keys=True).ljust(RECORD_WIDTH) + "\n").encode("ascii")
        if len(record) == self._saved_length:
            fd = os.open(self.path, os.O_WRONLY)
            try:
                os.pwrite(fd, record, 0)
            finally:
                os.close(fd)
        else:
            atomic_write_bytes(self.path, record)
            self._saved_length = len(record)
