"""The event-loop tripwire, active in every tier-1 test.

The gateway serves every member from one asyncio loop
(``serve_in_thread``), so one blocking call on that loop's thread
stalls all of them (docs/GATEWAY.md).  The ``async-blocking-io`` lint
rule sees a blocking call written inside an ``async def``; this
tripwire sees one made any number of helpers below it.  For the whole
session the blocking primitives ``repro.analysis.project`` lists for
that rule are wrapped: a call made on a thread that runs an asyncio
loop is recorded, and the test it happens in fails at teardown with
the stack of the call.  Every ``repro`` module global that holds a
primitive (``from time import sleep as _nap``) is rebound to its
wrapper too; modules imported later bind the wrappers themselves.
"""

import asyncio
import builtins
import functools
import importlib
import sys
import traceback

import pytest

from repro.analysis.project import (
    BLOCKING_BUILTINS_IN_ASYNC,
    BLOCKING_CALLS_IN_ASYNC,
)

#: what the wrappers recorded since the current test started
_CALLS_ON_A_LOOP = []


def _on_a_loop_thread():
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


def _guard(name, original):
    @functools.wraps(original)
    def guarded(*args, **kwargs):
        if _on_a_loop_thread():
            stack = "".join(traceback.format_stack(limit=12)[:-1])
            _CALLS_ON_A_LOOP.append(f"{name}() on an event-loop thread:\n{stack}")
        return original(*args, **kwargs)

    return guarded


def _primitives():
    """(owner, attribute, dotted name) of each primitive importable here."""
    found = [(builtins, name, name) for name in sorted(BLOCKING_BUILTINS_IN_ASYNC)]
    for module_name, attrs in sorted(BLOCKING_CALLS_IN_ASYNC.items()):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in sorted(attrs):
            found.append((module, attr, f"{module_name}.{attr}"))
    return found


@pytest.fixture(scope="session", autouse=True)
def _event_loop_tripwire():
    patched = []  # (owner, attribute, original)

    def patch(owner, attr, value):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    wrappers = {}  # id(original) -> its wrapper; the wrapper keeps it alive
    for owner, attr, name in _primitives():
        original = getattr(owner, attr)
        if isinstance(original, type):
            # a class (subprocess.Popen) stays a class: guard its __init__
            patch(original, "__init__", _guard(name, original.__init__))
        else:
            wrappers[id(original)] = _guard(name, original)
            patch(owner, attr, wrappers[id(original)])
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.partition(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patch(module, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


@pytest.fixture(autouse=True)
def _no_blocking_call_on_an_event_loop(_event_loop_tripwire):
    _CALLS_ON_A_LOOP.clear()
    yield
    if _CALLS_ON_A_LOOP:
        calls, count = _CALLS_ON_A_LOOP[0], len(_CALLS_ON_A_LOOP)
        _CALLS_ON_A_LOOP.clear()
        pytest.fail(f"{count} blocking call(s) on an event-loop thread; first: {calls}")
