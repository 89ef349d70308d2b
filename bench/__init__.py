"""The repository's benchmark: open-loop HTTP load against a real
``repro serve`` front end with two ``shard-serve`` processes behind it.

``bench/run.py`` is the entry the driver calls (one workload per run);
``python -m bench`` holds the commands meant for people.  See
``bench/README.md`` for the metric and workload catalogue.
"""
