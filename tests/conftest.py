from hypothesis import settings

# Every run draws the same examples, so a rare failing draw cannot make the
# suite pass on one run and fail on the next.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
