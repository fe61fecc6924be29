package sim

// MinShardNodes exports the automatic shard size to the external tests.
const MinShardNodes = minShardNodes
