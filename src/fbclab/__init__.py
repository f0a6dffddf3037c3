"""Feedback-channel-coding laboratory.

Round-based interactive coding sessions over AWGN-style channels, HARQ
baselines with Chase combining, a toy attention-based feedback codec with
its own reverse-mode autodiff, an SNR curriculum trainer, a pipeline
latency model, and link-budget / complexity analysis tools.

Importing the package tunes the C allocator once, on glibc only. Most of
the codec's numpy temporaries are 128 KiB to 1 MiB, right at glibc's default
128 KiB mmap threshold, so almost every op result was either a fresh mmap
that the kernel zero-fills page by page, or heap memory that `free` had just
trimmed back to the OS. Raising the mmap threshold to 32 MiB (glibc's own
ceiling for its dynamic threshold) and the trim threshold to 64 MiB (glibc's
rule of twice the mmap threshold) keeps freed buffers in the heap for reuse.
That removes most minor page faults and changes no computed value. The
`MALLOC_*_` environment variables cannot do this, because glibc reads them
only at process start. Elsewhere, or if the call fails, nothing changes.
"""

import ctypes
import os

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory_in_heap() -> None:
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return  # not glibc: no confstr (Windows), an unknown name, or no mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory_in_heap()
