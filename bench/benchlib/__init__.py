"""Support modules of ``bench/run.py`` (see ``bench/README.md``)."""
