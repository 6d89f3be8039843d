"""Canonical forms for extracted identifiers (DOIs, URLs, accessions, citations).

Canonicalization is what makes "unique identifier" counts meaningful: the same
dataset is referenced as ``https://doi.org/10.x/Y``, ``doi:10.x/y``, or bare
``10.x/y`` depending on the article's citation style.
"""

from __future__ import annotations

from .text import normalize_text

IDENTIFIER_KINDS = ("doi", "url", "accession", "citation")

_TRAILING_PUNCT = ".,;:!?)]}>\"'"
_DOI_PREFIXES = ("https://doi.org/", "http://doi.org/", "doi.org/", "doi:")


def strip_trailing_punct(s: str, extra: str = "") -> str:
    return s.rstrip(_TRAILING_PUNCT + extra)


def canonicalize_identifier(kind: str, raw: str) -> str:
    """Reduce *raw* to the canonical form for its *kind*.

    doi       -> lowercase, resolver/scheme prefixes stripped, trailing
                 punctuation stripped
    url       -> trailing slash and punctuation stripped; scheme and host
                 lowercased, path case preserved
    accession -> uppercase, surrounding punctuation stripped, internal
                 whitespace collapsed
    citation  -> whitespace/case normalization only
    """
    if kind not in IDENTIFIER_KINDS:
        raise ValueError(f"unknown identifier kind: {kind!r}")
    if not raw or not raw.strip():
        raise ValueError("identifier must be non-empty")
    s = raw.strip()

    if kind == "doi":
        s = s.lower()
        for prefix in _DOI_PREFIXES:
            if s.startswith(prefix):
                s = s[len(prefix):].lstrip()
                break
        return strip_trailing_punct(s)

    if kind == "url":
        s = strip_trailing_punct(s, extra="/")
        scheme, sep, rest = s.partition("://")
        if sep:
            host, slash, path = rest.partition("/")
            return f"{scheme.lower()}{sep}{host.lower()}{slash}{path}"
        host, slash, path = s.partition("/")
        return f"{host.lower()}{slash}{path}"

    if kind == "accession":
        s = s.strip(_TRAILING_PUNCT + "([{<")
        return " ".join(s.split()).upper()

    return normalize_text(s)
