"""End-to-end benchmark of the ``repro`` library (see ``perf/README.md``).

Everything under this directory measures ``src/repro`` from the outside: it
imports the public package, drives it like an embedding application would and
times the calls it makes.  Nothing here is imported by the library.
"""
