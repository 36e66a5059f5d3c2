"""Reference implementations that only the test suite uses.

Each oracle here is the slow, obviously-correct version of a fast path in
``src/``; the tests assert the fast path reproduces it bit for bit.
"""
