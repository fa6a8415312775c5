"""snippetnet: extract labeled social networks from search hit counts and snippets.

Given a list of actor names and a search backend (a deterministic local
fixture corpus, or a live engine), the package detects pairwise relations from
co-occurrence evidence, scores them with set-similarity measures over hit
counts, disambiguates names with extracted keywords, labels edges from the URL
hierarchies of their evidence, and assembles everything into an exportable
undirected graph -- all under an explicit per-day query budget with a
persistent, resumable cache.

The package exports what the README's library example uses, plus
SnippetNetError; everything else lives in its submodule (snippetnet.network,
snippetnet.strength, ...). The pipeline itself is snippetnet.cli.extract,
the one the command line runs. It is imported from snippetnet.cli, not
re-exported here: a package that imported its own command-line module would
make `python -m snippetnet.cli` run a second copy of it.
"""

from .backends import FixtureBackend
from .corpus import load_corpus
from .errors import SnippetNetError
from .gateway import SearchGateway
from .network import export
from .relations import Actor

__version__ = "0.1.0"

__all__ = [
    "Actor",
    "FixtureBackend",
    "SearchGateway",
    "SnippetNetError",
    "export",
    "load_corpus",
]
