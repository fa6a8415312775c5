import json

import pytest

from conftest import make_gateway
from snippetnet.backends import RawSnippet, SearchResult
from snippetnet.budget import BudgetLedger
from snippetnet import cache as cache_module
from snippetnet.cache import QueryCache
from snippetnet.errors import BudgetExhausted
from snippetnet.queries import build_query


def _result(hits=3):
    return SearchResult(
        hit_count=hits,
        snippets=(RawSnippet(url="http://a.com/x", title="T", abstract="A"),),
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
        cache.store('"alice"', _result(7), fetched_at="2026-08-18T00:00:00+00:00")
        reloaded = QueryCache.open(path)
        assert len(reloaded) == 1
        assert reloaded.lookup('"alice"') == _result(7)

    def test_file_schema(self, tmp_path):
        path = tmp_path / "cache.json"
        QueryCache(path).store('"alice" "bob"', _result(2), fetched_at="2026-08-18T00:00:00+00:00")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"snippetnet_cache": 2}
        records = {record["query"]: record for record in map(json.loads, lines[1:])}
        entry = records['"alice" "bob"']
        assert entry["hit_count"] == 2
        assert entry["snippets"] == [{"url": "http://a.com/x", "title": "T", "abstract": "A"}]
        assert entry["fetched_at"] == "2026-08-18T00:00:00+00:00"

    def test_open_missing_file_is_empty(self, tmp_path):
        cache = QueryCache.open(tmp_path / "absent.json")
        assert len(cache) == 0

    def test_open_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ValueError):
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
            before = path.read_bytes() if path.exists() else b'{"snippetnet_cache": 2}\n'
            cache.store(f'"q{i:03d}"', _result(i), fetched_at="2026-08-18T00:00:00+00:00")
            after = path.read_bytes()
            record = json.dumps(
                {
                    "fetched_at": "2026-08-18T00:00:00+00:00",
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

    def test_torn_header_is_an_empty_journal(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(b'{"snippetnet_ca')
        cache = QueryCache.open(path)
        assert len(cache) == 0
        cache.store('"a"', _result())
        assert path.read_bytes().startswith(b'{"snippetnet_cache": 2}\n{')
        assert len(QueryCache.open(path)) == 1

    def test_malformed_complete_line_raises(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(path)
        for name in ("a", "b", "c"):
            cache.store(f'"{name}"', _result())
        lines = path.read_bytes().split(b"\n")
        for bad in (b"{nope", b'{"query": "\\"b\\""}', b"[1]"):
            lines[2] = bad
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(ValueError, match="line 3: malformed cache record"):
                QueryCache.open(path)

    def test_whole_object_cache_is_converted_to_journal(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            '{\n'
            '  "\\"alice\\"": {\n'
            '    "fetched_at": "2026-08-18T00:00:00+00:00",\n'
            '    "hit_count": 7,\n'
            '    "snippets": [{"abstract": "A", "title": "T", "url": "http://a.com/x"}]\n'
            '  },\n'
            '  "\\"alice\\" \\"bob\\"": {\n'
            '    "fetched_at": "2026-08-18T00:00:01+00:00",\n'
            '    "hit_count": 0,\n'
            '    "snippets": []\n'
            '  }\n'
            '}\n',
            encoding="utf-8",
        )
        cache = QueryCache.open(path)
        assert len(cache) == 2
        assert cache.lookup('"alice"') == _result(7)
        assert cache.lookup('"alice" "bob"') == SearchResult(hit_count=0, snippets=())

        assert path.read_bytes().startswith(b'{"snippetnet_cache": 2}\n')
        reopened = QueryCache.open(path)
        assert len(reopened) == 2
        assert reopened.lookup('"alice"') == _result(7)


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
        assert gateway.stats.backend_calls == 1
        assert gateway.stats.cache_hits == 1
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
        assert second.stats.backend_calls == 0
        assert second.stats.cache_hits == 1

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
