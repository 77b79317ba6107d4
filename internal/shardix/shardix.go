// Package shardix provides the shard-index mixing used by every sharded
// table in this repository: the splitmix64 finalizer over a key, masked
// down to a power-of-two shard count. Its Table is the lock-free-read hash
// table the schedule cache and each gateway shard keep their entries in.
//
// Senders assign sequence numbers sequentially and gateways assign session
// IDs in registration order, so the raw low bits of either would stripe
// neighboring keys onto neighboring shards and correlate with any
// power-of-two traffic pattern. The splitmix64 finalizer decorrelates the
// bits before masking; it is a bijection, so distinct keys never merge
// before the mask. First used by the PR-4 receiver's reassembly shards and
// shared here so the gateway's session table routes identically.
package shardix

// Mix applies the splitmix64 finalizer to key: an avalanche permutation of
// uint64 (every output bit depends on every input bit).
//
//remicss:noalloc
func Mix(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Index routes key to a shard: Mix(key) & mask, where mask is a
// power-of-two shard count minus one.
//
//remicss:noalloc
func Index(key, mask uint64) uint64 { return Mix(key) & mask }
