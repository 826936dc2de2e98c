package sim

// SetMinShardWork overrides the parallel-path slot gate, returning a
// restore func. Tests force it to 1 so the tiny oracle configurations
// actually exercise the sharded path instead of falling back to the
// (bit-identical) sequential one.
func SetMinShardWork(v int64) (restore func()) {
	old := minShardWork
	minShardWork = v
	return func() { minShardWork = old }
}

// ShardStats exposes the last run's shard-path counters: how many slots
// took the parallel delivery path and how many protocol-level entries
// (deliveries × work hint) they carried. Tests assert on these to prove
// a configuration actually sharded, instead of inferring it from timing.
func (r *Runner) ShardStats() (slots int, entries int64) {
	return r.shardSlots, r.shardEntries
}

// FrontierSlots exposes how many slots of the last run completed on the
// frontier path (see the package comment), so tests can prove a
// configuration took it — or stayed off it — instead of inferring that
// from timing.
func (r *Runner) FrontierSlots() int { return r.frontierSlots }

// Figure2Params and Figure2Victims hand the Figure 2 construction (see
// figure2_test.go) to the external test package.
var (
	Figure2Params  = figure2Params
	Figure2Victims = figure2Victims
)
