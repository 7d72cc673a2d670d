"""Learn to project sentences into a fixed visual feature space and
retrieve images, videos, or other sentences by cosine similarity there.

Submodules are imported explicitly (``textovision.textvec`` etc.); the
package root stays import-light so the CLI can configure threading
environment variables before numpy loads.
"""

import os

__version__ = "0.1.0"


def thread_count() -> int:
    """``TEXTOVISION_THREADS``, read at each call, or when it is unset or
    empty the number of CPUs this process may run on; a value that is not a
    positive ASCII integer is a ``ValueError``."""
    value = os.environ.get("TEXTOVISION_THREADS")
    if not value:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not (value.isascii() and value.isdigit() and int(value) >= 1):
        raise ValueError(f"TEXTOVISION_THREADS must be a positive integer, got {value!r}")
    return int(value)
