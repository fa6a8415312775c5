"""Shared fixture corpora for the test suite.

The twenty-document corpus is a desk-scale web: six named people, two
genuinely connected pairs, one pair whose co-mention hides past the abstract
window, one person connected to nobody, and filler pages that only shape
document frequencies. Invariants the tests rely on are asserted at build time
so an edit here fails loudly instead of silently shifting expected counts.
They are checked with scan_matches, the suite's one substring oracle, which
conftest re-exports.

Designed-in facts (ids of matching documents):
    "Alice Nguyen"              -> 1, 2, 3, 4
    "Bob Santos"                -> 1, 2, 5
    "Carol Reyes"               -> 3 (past the abstract window), 6, 7
    "David Kim"                 -> 8, 9
    "Erin Walsh"                -> 8, 9, 10
    "Farid Omar"                -> 12, 13
    "graph"                     -> 2, 3, 4, 5
    "research"                  -> every document
"""

import json
import re

ACTORS = [
    "Alice Nguyen",
    "Bob Santos",
    "Carol Reyes",
    "David Kim",
    "Erin Walsh",
    "Farid Omar",
]

# Padding that pushes the late co-mention in document 3 beyond the 200-char
# abstract window without mentioning anybody.
_PAD = (
    "The session covered ridership counts, fare elasticity, dwell times at "
    "major stops, and the survey design used for household travel diaries "
    "across three districts. "
)


def corpus20():
    rows = [
        {
            "id": 1,
            "url": "https://conf.netsci.org/papers/community-detection",
            "title": "Community Detection Workshop",
            "body": (
                "Alice Nguyen and Bob Santos presented joint research on community "
                "detection for large interaction systems."
            ),
        },
        {
            "id": 2,
            "url": "https://www.netsci.org/papers/2011",
            "title": "Proceedings 2011",
            "body": (
                "A study of graph partitions by Alice Nguyen with Bob Santos extends "
                "earlier research on modular structure."
            ),
        },
        {
            "id": 3,
            "url": "https://blog.uni-metro.edu/notes/sampling",
            "title": "Methods Seminar Notes",
            "body": (
                "Alice Nguyen opened the methods seminar with new research on graph "
                "sampling for transit data. "
                + _PAD
                + "A closing remark thanked Carol Reyes for the field reports."
            ),
        },
        {
            "id": 4,
            "url": "https://pages.uni-metro.edu/people/alice",
            "title": "Faculty Profile",
            "body": (
                "Alice Nguyen studies random graph models; her research group also "
                "maintains open census tools."
            ),
        },
        {
            "id": 5,
            "url": "http://www.datamine.net/posts/mixture-models",
            "title": "Mixture Models in Practice",
            "body": (
                "Bob Santos writes about graph kernels and mixture models, "
                "summarizing research from three labs."
            ),
        },
        {
            "id": 6,
            "url": "https://www.civicdata.org/reports/census",
            "title": "Census Report Review",
            "body": "Carol Reyes reviews the municipal census release and its research methodology.",
        },
        {
            "id": 7,
            "url": "http://citycouncil.gov/minutes/march",
            "title": "Council Minutes March",
            "body": "Public comment by Carol Reyes on the research budget for transit planning.",
        },
        {
            "id": 8,
            "url": "https://lab.citylab.io/projects/mobility",
            "title": "Mobility Project",
            "body": (
                "David Kim and Erin Walsh lead mobility research combining ticketing "
                "records with street sensors."
            ),
        },
        {
            "id": 9,
            "url": "http://www.citylab.io/archive/2012",
            "title": "Archive 2012",
            "body": (
                "Seminar recap: David Kim with Erin Walsh on sensor calibration "
                "research for bus corridors."
            ),
        },
        {
            "id": 10,
            "url": "https://erinwalsh.me/talks",
            "title": "Talks",
            "body": "Erin Walsh lists invited talks on calibration research and open transit data.",
        },
        {
            "id": 11,
            "url": "https://weather.example.com/forecast",
            "title": "Forecast Discussion",
            "body": "Regional forecast research notes: a drier week ahead with mild evenings.",
        },
        {
            "id": 12,
            "url": "https://foodlab.co.uk/recipes/bread",
            "title": "Bread Recipes",
            "body": "Farid Omar documents fermentation research with a long rye starter series.",
        },
        {
            "id": 13,
            "url": "http://www.foodlab.co.uk/contact",
            "title": "Contact",
            "body": "Reach Farid Omar for research collaborations and kitchen residencies.",
        },
        {
            "id": 14,
            "url": "http://news.example.com/tech",
            "title": "Tech Briefs",
            "body": "Short research briefs on battery recycling and municipal broadband.",
        },
        {
            "id": 15,
            "url": "https://garden.example.org/soil",
            "title": "Soil Notes",
            "body": "Compost trials and soil research for raised beds in clay-heavy lots.",
        },
        {
            "id": 16,
            "url": "https://archive.example.org/maps",
            "title": "Map Archive",
            "body": "Scanned survey maps support historical research on parcel boundaries.",
        },
        {
            "id": 17,
            "url": "http://www.oceandata.net/buoys",
            "title": "Buoy Network",
            "body": "Calibration logs from the buoy network feed marine research dashboards.",
        },
        {
            "id": 18,
            "url": "https://transitwatch.org/blog/fares",
            "title": "Fare Structures",
            "body": "A comparison of fare research across twelve regional transit agencies.",
        },
        {
            "id": 19,
            "url": "http://library.uni-metro.edu/hours",
            "title": "Library Hours",
            "body": "Extended reading room hours during the research season.",
        },
        {
            "id": 20,
            "url": "https://www.example.com/about",
            "title": "About",
            "body": "A placeholder page kept for research fixtures and link checks.",
        },
    ]
    _check(rows)
    return rows


def no_cooccurrence_actors():
    return ["Gita Rao", "Hugo Marsh", "Iris Chen", "Jonas Beck", "Kira Patel", "Leo Fontaine"]


def no_cooccurrence_corpus():
    """Six actors, one page each, nobody shares a page: detection finds nothing."""
    names = no_cooccurrence_actors()
    rows = []
    for i, name in enumerate(names, start=1):
        rows.append(
            {
                "id": i,
                "url": f"https://site{i}.example.org/home",
                "title": f"Homepage {i}",
                "body": f"{name} keeps a quiet page about hillwalking routes.",
            }
        )
    for i in range(len(names) + 1, len(names) + 4):
        rows.append(
            {
                "id": i,
                "url": f"https://extra{i}.example.org/page",
                "title": f"Extra {i}",
                "body": "Nothing about anybody in particular lives here.",
            }
        )
    return rows


# ---------------------------------------------------------------- oracle ----
# Independent exhaustive scan over raw corpus rows. This deliberately does not
# go through load_corpus or FixtureBackend; it re-states the matching rule
# from scratch so the implementation has something to be checked against.

def scan_matches(rows, phrases):
    needles = [p.lower() for p in phrases]
    out = []
    for row in rows:
        haystack = f"{row['title']}\n{row['body']}\n{row['url']}".lower()
        if all(needle in haystack for needle in needles):
            out.append(row["id"])
    return out


def _check(rows):
    assert len(rows) == 20
    expected = {
        "Alice Nguyen": [1, 2, 3, 4],
        "Bob Santos": [1, 2, 5],
        "Carol Reyes": [3, 6, 7],
        "David Kim": [8, 9],
        "Erin Walsh": [8, 9, 10],
        "Farid Omar": [12, 13],
        "graph": [2, 3, 4, 5],
    }
    for phrase, ids in expected.items():
        got = scan_matches(rows, [phrase])
        assert got == ids, f"{phrase!r}: expected docs {ids}, got {got}"
    assert scan_matches(rows, ["research"]) == [row["id"] for row in rows]
    doc3 = rows[2]["body"]
    assert "carol reyes" not in doc3[:200].lower()
    assert doc3.lower().index("carol reyes") >= 200
    assert "alice nguyen" in doc3[:200].lower()


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n", encoding="utf-8")


# Timestamps a run writes, masked by the tests and by bytes_check.py alike.
_TIMESTAMP_FIELDS = re.compile(r'"(generated_at|started_at|finished_at|fetched_at)": "[^"]*"')


def mask_timestamps(text):
    return _TIMESTAMP_FIELDS.sub(lambda m: f'"{m.group(1)}": "X"', text)
