from hypothesis import settings

# Property tests here are numerically cheap but run on shared, sometimes
# slow machines; wall-clock deadlines only add flakiness. A failure prints
# the `@reproduce_failure` line that replays it.
settings.register_profile("pointtrack", deadline=None, print_blob=True)
settings.load_profile("pointtrack")
