import os
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from vflhlp.errors import sigint_held
from vflhlp.rng import stream


def test_same_path_same_draws():
    a = stream(42, "init", 3).standard_normal(16)
    b = stream(42, "init", 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    a = stream(42, "init", 3).standard_normal(16)
    b = stream(42, "init", 4).standard_normal(16)
    c = stream(42, "other").standard_normal(16)
    d = stream(43, "init", 3).standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_string_and_int_parts_are_distinct_namespaces():
    # "3" and 3 must not collide
    a = stream(0, "3").standard_normal(8)
    b = stream(0, 3).standard_normal(8)
    assert not np.array_equal(a, b)


def test_prefix_paths_do_not_alias():
    a = stream(5, "a", "b").standard_normal(8)
    b = stream(5, "a").standard_normal(8)
    assert not np.array_equal(a, b)


def test_rejects_bool_parts():
    with pytest.raises(TypeError):
        stream(1, True)


def test_rejects_negative_ints():
    with pytest.raises(ValueError):
        stream(1, -2)
    with pytest.raises(ValueError):
        stream(-1, "x")


def test_rejects_other_types():
    with pytest.raises(TypeError):
        stream(1, 2.5)


# a finder sends this process SIGINT as numpy.random's Cython generator module
# starts to import, then steps aside for the real finders
INTERRUPTED_IMPORT = textwrap.dedent("""
    import os, signal, sys

    class Interrupting:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy.random._generator":
                os.kill(os.getpid(), signal.SIGINT)

    sys.meta_path.insert(0, Interrupting())
    from vflhlp.rng import stream
    try:
        stream(1)
    except KeyboardInterrupt:
        print("interrupted; numpy.random imported:",
              hasattr(sys.modules.get("numpy.random"), "default_rng"))
    else:
        print("the interrupt was lost")
""")


def test_a_sigint_during_the_numpy_random_import_is_raised_once_it_is_done():
    # raised inside the Cython import, a KeyboardInterrupt could be swallowed
    # there and the run go on; it is held back until the import is done. The
    # child starts with SIGINT at its default disposition, as from a terminal,
    # even when this process was started with SIGINT ignored
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", INTERRUPTED_IMPORT], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    assert (proc.stdout, proc.stderr) == ("interrupted; numpy.random imported: True\n", "")


def test_a_sigint_to_another_thread_in_the_held_block_is_raised_once_after_it(sigint_raises):
    # the kernel may hand a SIGINT to any thread that has it unblocked, as
    # OpenBLAS's has, and Python then raises it in the main thread: a mask of
    # the main thread alone let it cut the block
    go, sent, finished = threading.Event(), threading.Event(), []

    def helper():
        assert go.wait(60)
        for _ in range(2):
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)
        sent.set()

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            with sigint_held():
                go.set()
                assert sent.wait(60)
                for _ in range(10_000):  # bytecodes at which Python runs handlers
                    pass
                finished.append(True)
    finally:
        go.set()
        thread.join(60)
    assert not thread.is_alive()
    assert finished == [True]
    for _ in range(10_000):  # nothing is left to raise a second time
        pass
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
