"""Exact highest-weight combinatorics for gl(m|n).

The package is its seven modules, in layer order: `rootdata` -> `borels`,
`diagrams` -> `charring` (the closed character formulas); `linalg` ->
`vermacalc` (the PBW Verma calculus); then `bggcheck` -> `cli`.  Each
name is imported from the module that defines it, and importing the
package loads none of them.
"""
