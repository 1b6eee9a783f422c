"""relheffter: relative Heffter arrays, Archdeacon arrays, the Crazy Knight's
Tour Problem, and certified cycle decompositions / surface biembeddings.

The package re-exports nothing: every name is imported from its module,
for example ``from relheffter.topology import certify_biembedding``."""
