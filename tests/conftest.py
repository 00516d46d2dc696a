from hypothesis import settings

# Draw the same examples on every run and keep no example database, so that a
# property test passes or fails the same way each time.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
