"""Fixtures shared by the test modules."""
import pytest

from bnlocus import oracle
from bnlocus.arith import Triple
from bnlocus.oracle import _ev


@pytest.fixture
def inject_empty(monkeypatch):
    """Add a column rule that reports emptiness on the given triples, with a
    cold column cache; with ``only``, the rule fires for that curve class
    alone."""
    def inject(*triples, only=None):
        def rule(g, n, d, ks, c, m):
            if only is not None and c is not only:
                return []
            ev = _ev("injected", "empty", "contradiction injected by the test")
            return [(k, k + 1, ev) for k in ks if Triple(n, d, k) in triples]

        monkeypatch.setattr(oracle, "_DIRECT_RULES", oracle._DIRECT_RULES + (rule,))
    oracle._base_column.cache_clear()
    yield inject
    oracle._base_column.cache_clear()
