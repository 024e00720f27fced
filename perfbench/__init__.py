"""The ybe-lab benchmark: seeded workloads, an independent checker and tracing."""
