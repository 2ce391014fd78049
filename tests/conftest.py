import pytest

from kahlerlap import catalog


@pytest.fixture(scope="session")
def spaces():
    """Catalog spaces built at degree 6, keyed by label; built lazily."""
    cache = {}

    def get(label, degree=6):
        key = (label, degree)
        if key not in cache:
            cache[key] = catalog.build_space(catalog.parse_space(label), degree)
        return cache[key]

    return get
