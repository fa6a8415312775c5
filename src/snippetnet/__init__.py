"""snippetnet: extract labeled social networks from search hit counts and snippets.

Given a list of actor names and a search backend (a deterministic local
fixture corpus, or a live engine), the package detects pairwise relations from
co-occurrence evidence, scores them with set-similarity measures over hit
counts, disambiguates names with extracted keywords, labels edges from the URL
hierarchies of their evidence, and assembles everything into an exportable
undirected graph -- all under an explicit per-day query budget with a
persistent, resumable cache.
"""

from .backends import (
    ABSTRACT_LENGTH,
    FixtureBackend,
    LiveBackend,
    RawSnippet,
    SearchBackendPort,
    SearchResult,
    fixture_search,
)
from .budget import BudgetLedger, utc_day_key
from .cache import QueryCache
from .corpus import FixtureCorpus, FixtureDocument, load_corpus
from .errors import (
    BackendError,
    BudgetExhausted,
    ConfigError,
    CorpusError,
    EmptyKeyword,
    EmptyPhrase,
    MalformedUrl,
    MissingScore,
    NotDetected,
    SelfPair,
    SnippetNetError,
)
from .gateway import DEFAULT_PAGE_SIZE, GatewayStats, SearchGateway
from .keywords import (
    AttributeTag,
    KeywordSet,
    classify_attribute,
    document_frequencies,
    extract_keywords,
    fetch_actor_context,
    load_keyword_overrides,
)
from .labeling import (
    DEFAULT_PUBLIC_SUFFIXES,
    GENERIC_TOKENS,
    EdgeLabels,
    UsrScore,
    label_edge,
    registrable_domain,
    usr,
)
from .network import (
    EXPORT_FORMATS,
    AdjacencyMatrix,
    Edge,
    SocialNetwork,
    build_network,
    export,
    network_from_json,
    to_matrix,
)
from .queries import Query, build_query
from .relations import Actor, RelationEvidence, detect_all, detect_relation, slugify
from .snippets import Snippet, UrlTokens, contains_term, parse_snippet, parse_url
from .strength import (
    MEASURES,
    HitCountTriple,
    StrengthScore,
    clamp,
    dice,
    jaccard,
    overlap,
    sr,
    sr_with_keywords,
)

__version__ = "0.1.0"

__all__ = [
    "ABSTRACT_LENGTH",
    "Actor",
    "AdjacencyMatrix",
    "AttributeTag",
    "BackendError",
    "BudgetExhausted",
    "BudgetLedger",
    "ConfigError",
    "CorpusError",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_PUBLIC_SUFFIXES",
    "EXPORT_FORMATS",
    "Edge",
    "EdgeLabels",
    "EmptyKeyword",
    "EmptyPhrase",
    "FixtureBackend",
    "FixtureCorpus",
    "FixtureDocument",
    "GENERIC_TOKENS",
    "GatewayStats",
    "HitCountTriple",
    "KeywordSet",
    "LiveBackend",
    "MEASURES",
    "MalformedUrl",
    "MissingScore",
    "NotDetected",
    "Query",
    "QueryCache",
    "RawSnippet",
    "RelationEvidence",
    "SearchBackendPort",
    "SearchGateway",
    "SearchResult",
    "SelfPair",
    "Snippet",
    "SnippetNetError",
    "SocialNetwork",
    "StrengthScore",
    "UrlTokens",
    "UsrScore",
    "build_network",
    "build_query",
    "clamp",
    "classify_attribute",
    "contains_term",
    "detect_all",
    "detect_relation",
    "dice",
    "document_frequencies",
    "export",
    "extract_keywords",
    "fetch_actor_context",
    "fixture_search",
    "jaccard",
    "label_edge",
    "load_corpus",
    "load_keyword_overrides",
    "network_from_json",
    "overlap",
    "parse_snippet",
    "parse_url",
    "registrable_domain",
    "slugify",
    "sr",
    "sr_with_keywords",
    "to_matrix",
    "usr",
    "utc_day_key",
]
