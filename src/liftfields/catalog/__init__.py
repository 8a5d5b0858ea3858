"""Built-in catalog of germ documents.

Entries are data files (``catalog/*.germ``) shared by the test suite and the
CLI, whose ``catalog --run-all`` checks every entry.  Recorded expectations
live in each entry's ``options`` block:

- ``expect_i1`` / ``expect_i2``: first surjective / last injective level
- ``expect_i1_infinite = 1``: no surjective level up to the scan cap
- ``expect_i2_neg_infinite = 1``: the level-0 map is already non-injective
- ``expect_count``: minimal generator count via the kernel-count recipe
- ``expect_lift_count``: minimal generator count certified at jet level
- ``expect_stable`` / ``expect_isolated``: level-0 classification bits
- ``expect_delta``: local-algebra dimension

Named ``fields`` blocks carry reference generating sets (``reference`` in the
base target coordinates, ``liftF`` over the unfolding target when the stable
unfolding's module must be supplied or checked).
"""

from __future__ import annotations

import os

from .. import parser

_HERE = os.path.dirname(__file__)  # the entries are read by path, beside this module


def names() -> list[str]:
    """Sorted names of all built-in catalog entries."""
    return sorted(entry[: -len(".germ")] for entry in os.listdir(_HERE)
                  if entry.endswith(".germ"))


def source(name: str) -> str:
    """Raw document text of a catalog entry."""
    path = os.path.join(_HERE, f"{name}.germ")
    if not os.path.isfile(path):
        raise KeyError(f"no catalog entry named {name!r} (have: {', '.join(names())})")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load(name: str) -> parser.GermDocument:
    """Parse a catalog entry into a germ document."""
    return parser.parse(source(name))


def expected_i1(doc: parser.GermDocument):
    if doc.options.get("expect_i1_infinite"):
        return "infinity up to cap"
    return doc.options.get("expect_i1")


def expected_i2(doc: parser.GermDocument):
    if doc.options.get("expect_i2_neg_infinite"):
        return "-infinity"
    return doc.options.get("expect_i2")
