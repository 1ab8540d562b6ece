"""Whole-system benchmark for the IoT Sentinel reproduction (see README.md)."""
