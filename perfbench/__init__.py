"""Repository benchmark for the NDPExt reproduction (see ``run.py``)."""
