"""Per-day query budget.

Search engines meter queries per client per day, so the ledger counts what was
issued today (UTC) and refuses the first call past the limit. Usage can be
persisted to a sidecar file; the limit itself always comes from configuration.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from .errors import BudgetExhausted
from .ioutil import atomic_write_json


def utc_day_key() -> str:
    """The current UTC calendar date, e.g. '2026-08-18'."""
    return datetime.now(timezone.utc).date().isoformat()


def read_ledger_state(path) -> dict | None:
    """Parse the sidecar at path into day_key, used_today and total_issued.

    Returns None when the file does not exist. Raises ValueError when it is
    not a JSON object whose fields have the types the ledger writes, and
    OSError when it cannot be read at all.
    """
    target = Path(path)
    try:
        state = json.loads(target.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{target}: ledger file is not valid JSON: {exc}") from exc
    if not isinstance(state, dict):
        raise ValueError(f"{target}: ledger file must hold a JSON object")
    day_key = state.get("day_key")
    if day_key is not None and not isinstance(day_key, str):
        raise ValueError(f"{target}: ledger day_key must be a string, got {day_key!r}")
    counts = {}
    for name in ("used_today", "total_issued"):
        value = state.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"{target}: ledger {name} must be a non-negative integer, got {value!r}")
        counts[name] = value
    return {"day_key": day_key, **counts}


class BudgetLedger:
    def __init__(self, daily_limit: int, path=None, today_fn=utc_day_key,
                 day_key: str | None = None, used_today: int = 0, total_issued: int = 0):
        if daily_limit < 1:
            raise ValueError("daily_limit must be >= 1")
        self.daily_limit = daily_limit
        self.path = Path(path) if path is not None else None
        self.today_fn = today_fn
        self.day_key = day_key if day_key is not None else today_fn()
        self.used_today = used_today
        self.total_issued = total_issued

    @classmethod
    def open(cls, daily_limit: int, path, today_fn=utc_day_key) -> "BudgetLedger":
        """Load persisted usage from the sidecar at path, or start fresh.

        Raises ValueError when the sidecar exists but is malformed.
        """
        state = read_ledger_state(path) or {}
        ledger = cls(daily_limit, path=path, today_fn=today_fn, **state)
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
        atomic_write_json(self.path, state)
