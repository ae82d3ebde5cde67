import tracemalloc

import pytest


@pytest.fixture
def warm_peak():
    """peak(call): the bytes tracemalloc sees at the peak of call's second
    run.  The first run grows whatever buffers the call keeps."""

    def peak(call) -> int:
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
