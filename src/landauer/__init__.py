"""Reversible-computation toolkit.

Compiles irreversible boolean circuits into ancilla-clean reversible ones,
realizes compression-with-helper as an in-place reversible block map,
evaluates work-value / erasure-cost / computation bounds exactly in bit
units of kT ln2, and runs the verifiable desk-scale experiments built on
them (conservation of work value plus erasure cost, the XOR-copy demon,
weight-imbalance ceilings under conservative circuits, box-condition
correlation proxies).

True description complexity is uncomputable; everywhere this package
needs it, a compressor-family estimator supplies an upper bound and the
result is flagged as an estimate.
"""

__version__ = "0.1.0"
