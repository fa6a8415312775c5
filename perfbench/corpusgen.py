"""Seeded synthetic corpora for the snippetnet benchmark (standard library only).

A corpus has n actors split into fixed-size communities plus a few isolates.
Inside a community a fixed number of pairs are co-mentioned in titles and in
the first 200 characters of bodies, so detection finds them. A fixed number
of cross-community pairs share documents only past character 200 of the
body: their pair query has hits, but detection rejects them. Every other pair
never shares a document. The seed picks names, memberships, which pairs are
linked, hosts, text and document order; the counts of detected pairs,
hit-only pairs and involved actors are fixed by the workload's shape, so the
number of backend queries does not move from seed to seed.

Name matching is substring matching, so the pools below are filtered until a
name can only occur where the generator put it: first names are distinct,
and none equals or ends another token that can precede a space in the text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

ABSTRACT_LENGTH = 200

_FIRST = """
Adaeze Bogdan Chiara Dmitri Esra Farhan Gulnara Haruto Jovan Kalani Mateus
Nadia Oskar Priya Quentin Rashida Sven Tamsin Ulrike Vikram Wanjiru Xiomara
Yusuf Zofia Bastian Catalina Darius Eitan Freya Goran Hiroko Ignacio Jasmina
Kofi Ludmila Marek Nkechi Olusegun Paloma Radek Saoirse Tariq Valeska Wendell
Ximena Yasmin Zoltan Anouk Benedikt Cosima Desmond Fintan Giulia Henrik Jarek
Kasimir Lorcan Mirela Niamh Orsolya Pieter Rosalind Stellan Teodora Vesna
Willem Yaroslav Zainab Agnieszka Bartosz Cyprian Dagny Emeka Folasade Gaspard
Halvard Idris Jolanta Kwabena Lucjan Mehmet Nuno Oyelaran Przemek Rudolfo
""".split()

_LAST = """
Okonkwo Petrovic Ferraro Volkov Yilmaz Rahman Abenova Tanaka Moreau Kahale
Oliveira Haddad Lindqvist Sharma Lefebvre Okafor Pengelly Brandt Chaudhry
Mwangi Castillo Demir Kowalska Novak Ivanova Schultz Mendoza Kagame Nakamura
Delgado Vasquez Fischer Kariuki Bianchi Romano Dubois Horvath Nilsson Jansen
Kovacs Quiroga Achebe Wojcik Zielinski Adeyemi Mbeki Ngata Tupou Hakimi
Farouk Ozturk Aydin Sorensen Virtanen Korhonen Lahti Byrne Nolan Szabo
Takahashi Ramires Gallagher Lindgren Obradovic Fonseca Marchetti Oyelowo
Bergstrom Kaminski Halvorsen Esposito Nwachukwu Uchenna Dragomir Vukovic
""".split()

_GENERAL = """
analysis approach results method framework evaluation dataset baseline
sample measure estimate survey review model system design report study
evidence pattern trend signal process structure variation factor impact
outcome response strategy policy practice context setting region field
program project network cluster series record archive journal workshop
seminar lecture keynote panel tutorial session proceedings chapter volume
summary overview appendix figure table statistic benchmark protocol
experiment trial observation interview fieldwork collaboration partner
institute laboratory department faculty center consortium initiative
funding grant award fellowship visiting invited annual regional national
global local urban rural coastal northern southern eastern western
significant robust careful detailed preliminary extended revised updated
""".split()

_TOPICS = {
    "transit": "transit ridership fare elasticity dwell corridor timetable commuter".split(),
    "genomics": "genome sequencing variant assembly expression promoter allele".split(),
    "climate": "rainfall monsoon reanalysis drought aerosol convection glacier".split(),
    "graphs": "community detection centrality modularity sampling partition spectral".split(),
    "language": "morphology annotation dialect phonology treebank lexicon syntax".split(),
    "robotics": "manipulation grasping locomotion odometry actuator planning gripper".split(),
    "economics": "inflation tariff remittance microfinance wages lending exports".split(),
    "health": "cohort incidence vaccination surveillance outbreak mortality screening".split(),
}

# Institutions behind each community's pages. Several sit under multi-part
# public suffixes (ac.id, co.uk, ...), which the domain-overlap score must
# resolve to a three-label registrable name.
_INSTITUTIONS = """
ui.ac.id itb.ac.id ugm.ac.id ox.ac.uk ucl.ac.uk transitlab.co.uk metrics.co.uk
uq.edu.au unsw.edu.au kyoto-u.ac.jp tohoku.ac.jp iisc.ac.in snu.ac.kr
auckland.ac.nz uct.ac.za nus.edu.sg usp.br ethz.ch tudelft.nl uio.no
""".split()

_NEUTRAL_HOSTS = """
news.example.com blog.example.org www.scholarhub.net archive.example.org
www.conference-series.org pages.example.net
""".split()

_SECTIONS = "research papers projects talks people reports notes news".split()

_VERBS = "presented reported discussed published".split()
# Every other word the document templates below put in front of a space.
_TEMPLATE = _VERBS + "work on and with surveyed further reading includes notes by".split()

_LOWER_LAST = {name.lower() for name in _LAST}
_TOKENS = (
    {w.lower() for w in _FIRST} | _LOWER_LAST | set(_GENERAL) | set(_TEMPLATE)
    | {w for words in _TOPICS.values() for w in words}
)
# A spurious match of "first last" needs first to equal or end some other
# token that precedes a space; drop every first name for which that can happen.
FIRST_NAMES = [
    first for first in _FIRST
    if first.lower() not in _LOWER_LAST
    and not any(tok != first.lower() and tok.endswith(first.lower()) for tok in _TOKENS)
]
LAST_NAMES = _LAST


@dataclass(frozen=True)
class Shape:
    """The seed-independent shape of a corpus."""

    community_sizes: tuple  # actors outside every community are isolates
    isolates: int
    documents: int
    detected_per_community: tuple  # co-mentioned pairs in each community
    hit_only_pairs: int  # cross-community pairs with hits but no detection
    solo_docs_per_actor: int
    docs_per_detected_pair: int
    docs_per_hit_only_pair: int

    @property
    def actors(self) -> int:
        return sum(self.community_sizes) + self.isolates


@dataclass(frozen=True)
class Corpus:
    names: tuple
    documents: tuple  # dicts with id, url, title, body, ascending id
    detected_pairs: frozenset  # frozensets of two names
    hit_only_pairs: frozenset


def _community_pairs(rng, members, count):
    """count pairs inside one community, touching every member.

    A ring (or the single pair of a two-member community) first, so every
    member is involved in some detected pair; random chords fill the rest.
    """
    size = len(members)
    ring = [(members[i], members[(i + 1) % size]) for i in range(size if size > 2 else 1)]
    if size < 2 or not len(ring) <= count <= size * (size - 1) // 2:
        raise ValueError(f"cannot place {count} pairs in a community of {size}")
    chosen = {frozenset(pair) for pair in ring}
    rest = [frozenset(p) for p in combinations(members, 2) if frozenset(p) not in chosen]
    rng.shuffle(rest)
    chosen.update(rest[: count - len(chosen)])
    return chosen


def _filler(rng, words, min_chars):
    out = []
    length = 0
    while length < min_chars:
        sentence = " ".join(rng.choices(words, k=rng.randint(6, 12)))
        sentence = sentence[0].upper() + sentence[1:] + "."
        out.append(sentence)
        length += len(sentence) + 1
    return " ".join(out)


def _title_words(rng, topic_words, k=3):
    return " ".join(word.capitalize() for word in rng.sample(topic_words, k))


def _url(rng, host, topic_words, doc_no):
    a, b = rng.sample(topic_words, 2)
    section = rng.choice(_SECTIONS)
    return f"https://{host}/{section}/{a}-{b}/item-{doc_no}"


def generate(shape: Shape, seed: int) -> Corpus:
    """Build the corpus for shape; the same seed always gives the same corpus."""
    rng = random.Random(seed)
    n = shape.actors
    if n > min(len(FIRST_NAMES), len(LAST_NAMES)):
        raise ValueError(f"name pools hold too few names for {n} actors")
    names = [f"{f} {l}" for f, l in zip(rng.sample(FIRST_NAMES, n), rng.sample(LAST_NAMES, n))]

    order = names[:]
    rng.shuffle(order)
    communities = []
    start = 0
    for size in shape.community_sizes:
        communities.append(order[start:start + size])
        start += size
    topic_names = rng.sample(sorted(_TOPICS), len(_TOPICS))
    institutions = rng.sample(_INSTITUTIONS, len(_INSTITUTIONS))
    home = {}  # actor -> (topic words, hosts)
    for index, members in enumerate(communities):
        topic = _TOPICS[topic_names[index % len(topic_names)]]
        insts = [institutions[(2 * index + k) % len(institutions)] for k in range(2)]
        hosts = [f"{rng.choice(topic)}.{inst}" for inst in insts] + [f"www.{insts[0]}"]
        for name in members:
            home[name] = (topic, hosts)
    for name in order[start:]:
        topic = _TOPICS[rng.choice(topic_names)]
        home[name] = (topic, [rng.choice(_NEUTRAL_HOSTS)])

    detected = set()
    for members, count in zip(communities, shape.detected_per_community):
        detected |= _community_pairs(rng, members, count)
    # Each isolate counts as a community of its own.
    community_of = {name: i for i, members in enumerate(communities) for name in members}
    community_of.update({name: -1 - i for i, name in enumerate(order[start:])})
    cross = [frozenset(p) for p in combinations(names, 2) if community_of[p[0]] != community_of[p[1]]]
    rng.shuffle(cross)
    hit_only = set(cross[: shape.hit_only_pairs])

    specs = []  # (title, body, url) before ids are assigned
    doc_no = 0

    def next_no():
        nonlocal doc_no
        doc_no += 1
        return doc_no

    for name in names:
        topic, hosts = home[name]
        for _ in range(shape.solo_docs_per_actor):
            lead = f"{name} {rng.choice(_VERBS)} work on {' '.join(rng.sample(topic, 2))}."
            body = lead + " " + _filler(rng, topic + _GENERAL, rng.randint(250, 650))
            title = f"{name}: {_title_words(rng, topic)}"
            specs.append((title, body, _url(rng, rng.choice(hosts), topic, next_no())))
    for pair in sorted(detected, key=sorted):
        a, b = sorted(pair)
        topic, hosts = home[a]
        for _ in range(shape.docs_per_detected_pair):
            a1, b1 = rng.sample((a, b), 2)
            lead = f"{a1} and {b1} on {' '.join(rng.sample(topic, 2))}."
            body = lead + " " + _filler(rng, topic + _GENERAL, rng.randint(250, 650))
            # Both names always lead the body; the title names both, one or
            # neither, so detection must read abstracts as well as titles.
            title = rng.choice([
                f"{_title_words(rng, topic)} with {a1} and {b1}",
                f"{a1}: {_title_words(rng, topic)}",
                _title_words(rng, topic, 4),
            ])
            specs.append((title, body, _url(rng, rng.choice(hosts), topic, next_no())))
    for pair in sorted(hit_only, key=sorted):
        near, far = rng.sample(sorted(pair), 2)
        topic, hosts = home[near]
        for _ in range(shape.docs_per_hit_only_pair):
            lead = f"{near} surveyed {' '.join(rng.sample(topic, 2))}."
            body = lead + " " + _filler(rng, topic + _GENERAL, ABSTRACT_LENGTH + 20)
            body += f" Further reading includes notes by {far}."
            title = f"{near}: {_title_words(rng, topic)}"
            specs.append((title, body, _url(rng, rng.choice(hosts), topic, next_no())))
    all_topics = sorted(_TOPICS)
    while len(specs) < shape.documents:
        topic = _TOPICS[rng.choice(all_topics)]
        body = _filler(rng, topic + _GENERAL, rng.randint(250, 650))
        host = rng.choice(_NEUTRAL_HOSTS + _INSTITUTIONS)
        specs.append((_title_words(rng, topic, 4), body, _url(rng, host, topic, next_no())))
    if len(specs) > shape.documents:
        raise ValueError(f"shape needs {len(specs)} documents, more than the {shape.documents} asked for")

    rng.shuffle(specs)
    documents = tuple(
        {"id": i, "url": url, "title": title, "body": body}
        for i, (title, body, url) in enumerate(specs, start=1)
    )
    return Corpus(
        names=tuple(names),
        documents=documents,
        detected_pairs=frozenset(detected),
        hit_only_pairs=frozenset(hit_only),
    )


def write(corpus: Corpus, directory) -> tuple:
    """Write actors.txt and corpus.jsonl under directory; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    actors = directory / "actors.txt"
    docs = directory / "corpus.jsonl"
    actors.write_text("".join(name + "\n" for name in corpus.names), encoding="utf-8")
    docs.write_text(
        "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in corpus.documents),
        encoding="utf-8",
    )
    return actors, docs
