import errno
import io
import json
import os
import tracemalloc
from pathlib import Path

import pytest

from conftest import make_gateway
from snippetnet.backends import SearchResult
from snippetnet import budget as budget_module
from snippetnet.budget import RECORD_WIDTH, BudgetLedger, read_ledger_state
from snippetnet import cache as cache_module
from snippetnet.cache import QueryCache
from snippetnet.errors import BudgetExhausted, ConfigError
from snippetnet import ioutil
from snippetnet.ioutil import atomic_write_bytes, json_bytes
from snippetnet.queries import build_query
from snippetnet.snippets import Snippet, parse_url


def _result(hits=3):
    return SearchResult(
        hit_count=hits,
        snippets=(Snippet(url=parse_url("http://a.com/x"), title="T", abstract="A"),),
    )


class TestQueryCache:
    def test_lookup_after_store_is_identical(self):
        cache = QueryCache()
        result = _result()
        cache.store('"alice"', result)
        assert cache.lookup('"alice"') == result
        assert cache.lookup('"missing"') is None

    def test_persists_and_reloads(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        cache.store('"alice"', _result(7))
        reloaded = QueryCache.open(path)
        assert len(reloaded) == 1
        assert reloaded.lookup('"alice"') == _result(7)

    def test_file_schema(self, tmp_path):
        path = tmp_path / "cache.json"
        QueryCache(path).store('"alice" "bob"', _result(2))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"snippetnet_cache": 3}
        records = {record["query"]: record for record in map(json.loads, lines[1:])}
        assert records['"alice" "bob"'] == {
            "hit_count": 2,
            "query": '"alice" "bob"',
            "snippets": [{"url": "http://a.com/x", "title": "T", "abstract": "A"}],
        }

    def test_stores_make_the_directory_once(self, tmp_path, monkeypatch):
        made = []

        def mkdir(directory, *args, mkdir=Path.mkdir, **kwargs):
            made.append(directory)
            mkdir(directory, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir)
        path = tmp_path / "new" / "cache.json"
        cache = QueryCache(path)
        for number in range(50):
            cache.store(f'"q{number}"', _result(number))
        assert made == [path.parent]
        assert len(QueryCache.open(path)) == 50

    def test_open_missing_file_is_empty(self, tmp_path):
        cache = QueryCache.open(tmp_path / "absent.json")
        assert len(cache) == 0

    def test_open_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            QueryCache.open(path)

    def test_clear_truncates(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        cache.store('"a"', _result())
        cache.clear()
        assert len(QueryCache.open(path)) == 0

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        for i in range(5):
            cache.store(f'"q{i}"', _result(i))
        leftovers = [p for p in tmp_path.iterdir() if p.name != "cache.json"]
        assert leftovers == []
        assert len(QueryCache.open(path)) == 5

    def test_each_store_appends_exactly_its_record(self, tmp_path, monkeypatch):
        def rewrite(path, data):
            raise AssertionError("a store must append, not rewrite the journal")

        monkeypatch.setattr(cache_module, "atomic_write_bytes", rewrite)
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        for i in range(300):
            before = path.read_bytes() if path.exists() else b'{"snippetnet_cache": 3}\n'
            cache.store(f'"q{i:03d}"', _result(i))
            after = path.read_bytes()
            record = json.dumps(
                {
                    "hit_count": i,
                    "query": f'"q{i:03d}"',
                    "snippets": [{"abstract": "A", "title": "T", "url": "http://a.com/x"}],
                }
            ).encode("utf-8") + b"\n"
            assert after == before + record

    def test_last_record_for_a_query_wins(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        cache.store('"a"', _result(1))
        cache.store('"a"', _result(2))
        reloaded = QueryCache.open(path)
        assert len(reloaded) == 1
        assert reloaded.lookup('"a"') == _result(2)

    def test_torn_last_record_is_dropped_and_overwritten(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        for name in ("a", "b", "c"):
            cache.store(f'"{name}"', _result())
        path.write_bytes(path.read_bytes()[:-20])

        torn = QueryCache.open(path)
        assert len(torn) == 2
        assert torn.lookup('"c"') is None
        torn.store('"d"', _result(4))

        replayed = QueryCache.open(path)
        assert len(replayed) == 3
        assert replayed.lookup('"d"') == _result(4)
        assert path.read_bytes().endswith(b"\n")

    @pytest.mark.parametrize("torn", [b'{"snippetnet_ca', b'{"snippetnet_cache": 3, "backend": "fixture", "corp'])
    def test_torn_header_is_an_empty_journal(self, tmp_path, torn):
        path = tmp_path / "cache.json"
        path.write_bytes(torn)
        cache = QueryCache.open(path)
        assert len(cache) == 0
        cache.store('"a"', _result())
        assert path.read_bytes().startswith(b'{"snippetnet_cache": 3}\n{')
        assert len(QueryCache.open(path)) == 1

    def test_a_version_2_journal_replays_and_takes_version_3_records(self, tmp_path):
        path = tmp_path / "cache.json"
        old = (b'{"snippetnet_cache": 2}\n{"fetched_at": "2026-08-18T00:00:00+00:00", '
               b'"hit_count": 3, "query": "\\"a\\"", "snippets": []}\n')
        path.write_bytes(old)
        cache = QueryCache.open(path)
        assert cache.lookup('"a"') == SearchResult(3, ())
        cache.store('"b"', _result(1))
        assert path.read_bytes().startswith(old)
        assert sorted(json.loads(path.read_bytes()[len(old):])) == ["hit_count", "query", "snippets"]
        assert len(QueryCache.open(path)) == 2

    def test_replay_shares_every_zero_hit_answer_and_equal_snippets(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        page = tuple(Snippet(parse_url(f"http://a.com/{i}"), f"T{i}", "A") for i in range(3))
        for name in ("a", "b"):
            cache.store(f'"{name}"', SearchResult(0, ()))
            cache.store(f'"{name} pair"', SearchResult(5, page))
        cache.store('"c"', SearchResult(2, page[1:]))
        replayed = QueryCache.open(path)
        assert replayed.lookup('"a"') is replayed.lookup('"b"') == SearchResult(0, ())
        first, second, third = (replayed.lookup(query) for query in ('"a pair"', '"b pair"', '"c"'))
        assert first == second == SearchResult(5, page) and third == SearchResult(2, page[1:])
        assert all(x is y for x, y in zip(first.snippets, second.snippets))
        assert all(x is y for x, y in zip(first.snippets[1:], third.snippets))

    def test_a_journal_is_replayed_without_being_held_whole(self, tmp_path):
        # 300 records of one long page: read whole, or with a Snippet per
        # record, the journal would cost several times what its answers do.
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        page = tuple(Snippet(parse_url(f"http://a.com/{i}"), f"Title {i}", "x" * 300) for i in range(10))
        for number in range(300):
            cache.store(f'"query {number}"', SearchResult(50, page))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            replayed = QueryCache.open(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(replayed) == 300
        assert peak < size / 4

    def test_malformed_complete_line_raises(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        for name in ("a", "b", "c"):
            cache.store(f'"{name}"', _result())
        lines = path.read_bytes().split(b"\n")
        for bad in (b"{nope", b'{"query": "\\"b\\""}', b"[1]"):
            lines[2] = bad
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(ConfigError, match="line 3: malformed cache record"):
                QueryCache.open(path)


class TestBudgetLedger:
    def test_charges_until_limit(self):
        ledger = BudgetLedger(daily_limit=3)
        for _ in range(3):
            ledger.charge()
        assert ledger.used_today == 3
        assert ledger.total_issued == 3
        with pytest.raises(BudgetExhausted):
            ledger.charge()
        assert ledger.used_today == 3

    def test_day_rollover_resets_daily_count(self):
        days = ["2026-08-18"]
        ledger = BudgetLedger(daily_limit=2, today_fn=lambda: days[0])
        ledger.charge()
        ledger.charge()
        with pytest.raises(BudgetExhausted):
            ledger.charge()
        days[0] = "2026-08-19"
        ledger.charge()
        assert ledger.day_key == "2026-08-19"
        assert ledger.used_today == 1
        assert ledger.total_issued == 3

    def test_persists_and_reloads(self, tmp_path):
        path = tmp_path / "ledger.json"
        days = ["2026-08-18"]
        ledger = BudgetLedger.open(5, path, today_fn=lambda: days[0])
        ledger.charge()
        ledger.charge()
        reloaded = BudgetLedger.open(10, path, today_fn=lambda: days[0])
        assert reloaded.used_today == 2
        assert reloaded.total_issued == 2
        assert reloaded.daily_limit == 10  # the limit is configuration, not state

    def test_reload_on_new_day_resets_usage(self, tmp_path):
        path = tmp_path / "ledger.json"
        days = ["2026-08-18"]
        ledger = BudgetLedger.open(2, path, today_fn=lambda: days[0])
        ledger.charge()
        days[0] = "2026-08-19"
        reloaded = BudgetLedger.open(2, path, today_fn=lambda: days[0])
        assert reloaded.used_today == 0
        assert reloaded.total_issued == 1

    def test_every_charge_leaves_one_fixed_width_record(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = BudgetLedger.open(20, path, today_fn=lambda: "2026-08-18")
        for _ in range(12):  # 9 -> 10 changes the digits, not the width
            ledger.charge()
            data = path.read_bytes()
            assert len(data) == RECORD_WIDTH + 1
            assert data.endswith(b"\n") and data.count(b"\n") == 1
            assert read_ledger_state(path) == {
                "day_key": ledger.day_key, "used_today": ledger.used_today, "total_issued": ledger.total_issued,
            }

    @staticmethod
    def _count_atomic_writes(monkeypatch):
        replaced = []

        def counting(path, data):
            replaced.append(data)
            atomic_write_bytes(path, data)

        atomic_write_bytes = budget_module.atomic_write_bytes
        monkeypatch.setattr(budget_module, "atomic_write_bytes", counting)
        return replaced

    def test_old_indented_sidecar_is_replaced_once_then_overwritten_in_place(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.json"
        path.write_bytes(json_bytes({"day_key": "2026-08-18", "used_today": 3, "total_issued": 40}))
        replaced = self._count_atomic_writes(monkeypatch)
        ledger = BudgetLedger.open(100, path, today_fn=lambda: "2026-08-18")
        ledger.charge()
        inode = path.stat().st_ino
        for _ in range(5):
            ledger.charge()
        assert len(replaced) == 1
        assert path.stat().st_ino == inode  # a rename would give a new inode
        assert len(path.read_bytes()) == RECORD_WIDTH + 1
        assert read_ledger_state(path) == {"day_key": "2026-08-18", "used_today": 9, "total_issued": 46}
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.json"]

    def test_day_roll_to_a_shorter_count_keeps_the_file_valid(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.json"
        days = ["2026-08-18"]
        replaced = self._count_atomic_writes(monkeypatch)
        ledger = BudgetLedger.open(1000, path, today_fn=lambda: days[0])
        for _ in range(150):
            ledger.charge()
        days[0] = "2026-08-19"
        ledger.charge()
        assert len(replaced) == 1
        assert len(path.read_bytes()) == RECORD_WIDTH + 1
        assert read_ledger_state(path) == {"day_key": "2026-08-19", "used_today": 1, "total_issued": 151}
        reloaded = BudgetLedger.open(1000, path, today_fn=lambda: days[0])
        assert (reloaded.used_today, reloaded.total_issued) == (1, 151)

    def test_record_wider_than_the_width_is_replaced_atomically(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.json"
        huge = 10 ** 130
        path.write_bytes(json_bytes({"day_key": "2026-08-18", "used_today": 0, "total_issued": huge}))
        replaced = self._count_atomic_writes(monkeypatch)
        ledger = BudgetLedger.open(10, path, today_fn=lambda: "2026-08-18")
        ledger.charge()
        assert len(replaced) == 1
        assert len(replaced[0]) > RECORD_WIDTH + 1
        assert read_ledger_state(path) == {"day_key": "2026-08-18", "used_today": 1, "total_issued": huge + 1}
        ledger.charge()
        assert len(replaced) == 1
        assert read_ledger_state(path) == {"day_key": "2026-08-18", "used_today": 2, "total_issued": huge + 2}

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            BudgetLedger(daily_limit=0)


class TestGatewayExecute:
    def test_cache_miss_then_hit(self, corpus20):
        gateway = make_gateway(corpus20)
        q = build_query(["Alice Nguyen"])
        first = gateway.execute(q)
        second = gateway.execute(q)
        assert first == second
        assert first.hit_count == 4
        assert gateway.backend_calls == 1
        assert gateway.cache_hits == 1
        assert gateway.ledger.used_today == 1

    def test_cache_hit_never_touches_budget(self, corpus20):
        gateway = make_gateway(corpus20, daily_limit=1)
        q = build_query(["Alice Nguyen"])
        gateway.execute(q)
        for _ in range(5):
            gateway.execute(q)  # would raise if budget were charged
        assert gateway.ledger.used_today == 1

    def test_budget_exhausted_at_boundary(self, corpus20):
        gateway = make_gateway(corpus20, daily_limit=10)
        for i in range(10):
            gateway.execute(build_query([f"word{i}"]))
        with pytest.raises(BudgetExhausted):
            gateway.execute(build_query(["word10"]))
        assert len(gateway.cache) == 10

    def test_warm_cache_survives_process_boundary(self, corpus20, tmp_path):
        cache_path = tmp_path / "cache.json"
        first = make_gateway(corpus20, cache_path=cache_path)
        q = build_query(["Erin Walsh"])
        first.execute(q)
        second = make_gateway(corpus20, cache_path=cache_path)
        result = second.execute(q)
        assert result.hit_count == 3
        assert second.backend_calls == 0
        assert second.cache_hits == 1

    def test_exhaustion_leaves_no_partial_cache_entry(self, corpus20, tmp_path):
        cache_path = tmp_path / "cache.json"
        gateway = make_gateway(corpus20, daily_limit=2, cache_path=cache_path)
        gateway.execute(build_query(["one"]))
        gateway.execute(build_query(["two"]))
        with pytest.raises(BudgetExhausted):
            gateway.execute(build_query(["three"]))
        persisted = QueryCache.open(cache_path)
        assert persisted.lookup('"one"') is not None
        assert persisted.lookup('"two"') is not None
        assert persisted.lookup('"three"') is None
        assert len(persisted) == 2


def test_a_failed_write_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch):
    class FullDisk(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    target = tmp_path / "network.json"
    target.write_bytes(b"old bytes\n")
    monkeypatch.setattr(ioutil, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        atomic_write_bytes(target, b"new bytes\n")
    assert target.read_bytes() == b"old bytes\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["network.json"]
