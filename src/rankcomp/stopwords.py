"""Stopword list handling, and the UTF-8 text reader the file loaders share.

A compact built-in English list ships as the default; competitions that
need a specific list (e.g. a full NLTK export) can load one from a plain
one-term-per-line file.
"""

from __future__ import annotations

import io

from .numeric import DomainError

DEFAULT_STOPWORDS = frozenset(
    """
    a about above after again all am an and any are as at be because been
    before being below between both but by could did do does doing down
    during each few for from further had has have having he her here hers
    him his how i if in into is it its itself just me more most my no nor
    not now of off on once only or other our ours out over own same she
    should so some such than that the their theirs them then there these
    they this those through to too under until up very was we were what
    when where which while who whom why will with you your yours
    """.split()
)


def read_utf8(path, what: str) -> io.StringIO:
    """A UTF-8 text file's content, its lines split as ``open(path, newline="")`` splits them.

    Bytes that do not decode are a DomainError naming the file, read as ``what``.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return io.StringIO(fh.read(), newline="")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {what} is not UTF-8 text ({exc})") from None


def load_stopwords(path) -> frozenset[str]:
    """Read a one-term-per-line UTF-8 stopword file (blank lines ignored)."""
    terms = []
    for line in read_utf8(path, "stopword file").getvalue().splitlines():
        term = line.strip().lower()
        if term:
            terms.append(term)
    return frozenset(terms)
