"""Reference implementations kept only as parity oracles for tests.

Production code has one implementation per concept; when a faster one
replaces a straightforward one, the old version moves here so parity
tests can still compare against it.
"""
