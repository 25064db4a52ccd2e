"""Distributed data management: synthetic cohorts, formats, stores, linkage."""
