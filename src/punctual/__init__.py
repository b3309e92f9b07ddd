"""Clocked bit-generators, zero-count profiles, and stage-based
diagonalization runs for punctual equivalence relations."""
