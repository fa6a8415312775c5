"""tests/bytes_check.py finds no difference between a tree and itself, and
finds exactly the files that one changed label rule moves."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "bytes_check.py"


def bytes_check(*argv):
    result = subprocess.run([sys.executable, str(SCRIPT), *map(str, argv)], capture_output=True, text=True)
    return result.returncode, [json.loads(line) for line in result.stdout.splitlines()]


def test_a_tree_against_itself_is_equal_in_every_file():
    code, lines = bytes_check(ROOT, ROOT)
    assert code == 0
    assert {line["file"].split("/")[0] for line in lines} == {
        "keywords", "sr-dot", "sr-graphml", "sr-json", "srwk-dot", "srwk-graphml", "srwk-json",
    }
    assert len(lines) == 6 * 6 + 4  # each extract leaves 5 files and a console, keywords 3 and a console
    assert all(line["equal"] and line["input"] == "demo" for line in lines)


def test_one_changed_label_rule_moves_the_networks_and_nothing_else(tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    labeling = changed / "src" / "snippetnet" / "labeling.py"
    labeling.write_text(labeling.read_text(encoding="utf-8").replace("MAX_LABELS = 5", "MAX_LABELS = 1"),
                        encoding="utf-8")

    code, lines = bytes_check(ROOT, changed)
    assert code == 1
    moved = sorted(line["file"] for line in lines if not line["equal"])
    # DOT writes only the top label, which one label instead of five keeps.
    assert moved == [f"{variant}-{fmt}/network.{fmt}" for variant in ("sr", "srwk") for fmt in ("graphml", "json")]
    where = next(line["first_difference"] for line in lines if line["file"] == "sr-json/network.json")
    assert (where["pair"], where["key"]) == (["alice-nguyen", "bob-santos"], "labels")

    code, lines = bytes_check(ROOT, changed, "--expect-diff", "*/network.*")
    assert code == 0
    assert all(line["expected"] for line in lines if not line["equal"])
