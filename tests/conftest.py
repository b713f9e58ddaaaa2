import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session", autouse=True)
def utf8_character_table():
    """Hypothesis builds its table of UTF-8 characters on the first text draw
    of a session without a .hypothesis/ cache, which takes seconds and fails
    that test's too_slow health check. Build it once before any test runs."""
    try:
        from hypothesis.internal.charmap import intervals_from_codec
    except ImportError:  # a hypothesis release without it
        return
    intervals_from_codec("utf-8")
