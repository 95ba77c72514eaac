"""Cross-backend conformance harness (reference vs codegen)."""
