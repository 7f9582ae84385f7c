package incremental

// SixRecords exposes the six-record fixture to the external tests that
// drive the engine through a journaled shard group.
var SixRecords = sixRecords
