"""End-to-end CryptoNN training benchmark; see README.md and run.py."""
