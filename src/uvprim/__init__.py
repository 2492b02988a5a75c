"""Existence of primitive elements a (or pairs a, b) of a finite field for
which the combinations u*a + v*a^-1 (or u*a + v*b and v*a^-1 + u*b^-1) are
also primitive, for every choice of non-zero coefficients u, v.

The package has three layers:

* `ntcore` / `field` -- exact integer number theory (factorization,
  multiplicative profiles, prime-power enumeration) and F_q arithmetic with
  discrete logarithms;
* `screening` -- character-sum lower bounds and sieve refinements that prove
  all-(u,v) existence for almost every q, plus the worst-case survey that
  reduces "almost every" to an explicit finite candidate list;
* `verify` -- exhaustive per-field checkers and exact counting oracles for
  the candidates the bounds cannot settle.

The `uvprim` command line (see `cli`) batches all of it into JSON/CSV
reports.
"""

__version__ = "0.1.0"
