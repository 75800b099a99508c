"""EcoLife benchmark: replay, serving and sharded workloads (see README.md)."""
