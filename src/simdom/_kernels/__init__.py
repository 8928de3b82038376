"""The branch-and-bound vertex-cover search kernel.

One pure-Python implementation (``pure.vc_search``) serves every graph
size. DEFAULT_BACKEND names it for reports that record which search ran.
"""

DEFAULT_BACKEND = "pure"
