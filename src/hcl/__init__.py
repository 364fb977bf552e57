"""Exact Hurwitz class number tables, Ramanujan-type congruence search and
certification, and holomorphic-projection coefficient combinatorics.

The package re-exports nothing; each public name lives in one submodule:
  hcl.arith       factorization, Kronecker symbol, square roots modulo m
  hcl.hurwitz     12*H(D) by enumeration and by formula, the int32 table, CSV cache
  hcl.congruence  verification, search and certification of congruences
  hcl.dichotomy   representation rows, the Hecke-type condition, the classifier
  hcl.holproj     projected-product closed forms, subset decomposition, witnesses
  hcl.qseries     exact q-expansions, theta and Eisenstein series, U_{a,b}
  hcl.cli         the `hcl` command line
"""

__version__ = "0.1.0"
