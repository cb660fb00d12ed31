// Fixture manifest: `Listed` is covered; `Ghost` is stale (no
// Serialize impl anywhere in scope) and must raise S-002.
pub const CACHE_SCHEMA_VERSION: u32 = 1;
// stabl-lint: cache-schema: Listed, Ghost
