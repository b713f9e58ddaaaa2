"""Frontend for the JX subject language: parsing and name resolution."""
