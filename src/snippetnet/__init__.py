"""snippetnet: extract labeled social networks from search hit counts and snippets.

Given a list of actor names and a search backend (a deterministic local
fixture corpus, or a live engine), the package detects pairwise relations from
co-occurrence evidence, scores them with set-similarity measures over hit
counts, disambiguates names with extracted keywords, labels edges from the URL
hierarchies of their evidence, and assembles everything into an exportable
undirected graph -- all under an explicit per-day query budget with a
persistent, resumable cache.

The package exports what the README's library example uses; everything else
lives in its submodule (snippetnet.network, snippetnet.strength, ...).
"""

from .backends import FixtureBackend
from .corpus import load_corpus
from .errors import SnippetNetError
from .gateway import SearchGateway
from .labeling import label_edge, usr
from .network import build_network, export
from .relations import Actor, detect_all
from .strength import sr

__version__ = "0.1.0"

__all__ = [
    "Actor",
    "FixtureBackend",
    "SearchGateway",
    "SnippetNetError",
    "build_network",
    "detect_all",
    "export",
    "label_edge",
    "load_corpus",
    "sr",
    "usr",
]
