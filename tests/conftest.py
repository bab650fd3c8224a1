"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps the function ``module.name`` in
    every ``pilotspace.*`` namespace that binds it, as ``bench/tracing.py``
    does (so calls through names copied by ``from .x import y`` count too),
    and returns the list to which each call appends its arguments."""

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for key, namespace in list(sys.modules.items()):
            if namespace is not None and (key == "pilotspace" or key.startswith("pilotspace.")):
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        monkeypatch.setattr(namespace, attr, counted)
        return calls

    return install
