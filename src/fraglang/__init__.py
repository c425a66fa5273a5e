"""fraglang: a workbench for languages composed from independent fragments.

Fragments are declared as polynomial functor shapes, combined by disjoint
sum under a fixed point, and carry their own step rules, typing rules, and
type-preservation axiom cases; the composed language inherits all three.
"""
