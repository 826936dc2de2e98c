package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkpoint is the on-disk record of one job: identity, lifecycle
// state, the verbatim grid document (so a restarted daemon re-expands
// the exact same point list), the constant-size aggregate whose Done
// field is the fold cursor, and the range state around it. One JSON
// file per job, replaced atomically, so a crash between writes leaves
// the previous complete record, never a torn one.
type checkpoint struct {
	ID        string          `json:"id"`
	Seq       uint64          `json:"seq"`
	State     State           `json:"state"`
	Total     int             `json:"total"`
	Spec      json.RawMessage `json:"spec"`
	Err       string          `json:"err,omitempty"`
	Aggregate *Aggregate      `json:"aggregate"`
	// FinishedNS is the terminal-state wall time in UnixNano (0 while
	// non-terminal) — what the retention sweep ages against.
	FinishedNS int64 `json:"finished_ns,omitempty"`
	// Shard is every record's range state. Only a record written before
	// all jobs were leased jobs lacks it; Open's legacy rule covers those.
	Shard *shardCheckpoint `json:"shard,omitempty"`
}

// shardCheckpoint records a job's lease geometry — kept across reopens,
// so Aggregate.Done (the fold cursor) stays a range boundary whatever
// the next process is configured with — who may lease it, and the
// ranges completed out of order (the reorder buffer), so a restarted
// manager does not recompute them. Outstanding leases are deliberately
// NOT persisted: a restarted manager simply re-issues open ranges, and
// a late partial from a pre-restart lease still folds because
// completion is keyed by range, not lease.
type shardCheckpoint struct {
	LeasePoints int   `json:"lease_points"`
	LeaseTTLMS  int64 `json:"lease_ttl_ms"`
	// Local marks a job only the manager's own Workers executors lease;
	// absent (as in every record an older daemon wrote with this block),
	// the job is sharded.
	Local   bool           `json:"local,omitempty"`
	Pending []pendingRange `json:"pending,omitempty"`
}

// pendingRange is one out-of-order completed range with its records.
type pendingRange struct {
	Lo     int           `json:"lo"`
	Hi     int           `json:"hi"`
	Points []PointRecord `json:"points"`
}

func checkpointPath(dir, id string) string {
	return filepath.Join(dir, id+".json")
}

// writeCheckpointBytes atomically replaces the job's checkpoint file
// with the already-marshalled record: write-to-temp, fsync, rename, fsync
// the directory — the rename is the commit point, so a crash mid-write
// leaves the previous complete checkpoint in place, and the directory
// sync makes the rename itself durable, so a power cut after the write
// returns cannot lose a new job's only checkpoint.
func writeCheckpointBytes(dir, id string, data []byte) error {
	path := checkpointPath(dir, id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: checkpoint %s: %w", id, err)
	}
	_, werr := f.Write(append(data, '\n'))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: checkpoint %s: %w", id, werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: checkpoint %s: %w", id, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("jobs: checkpoint %s: %w", id, err)
	}
	return nil
}

// syncDir fsyncs directory dir, making the entries renamed into it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readCheckpoints loads every job checkpoint in dir, sorted by Seq —
// the submission order a restarted manager queues them in. Stray .tmp
// files (a crash mid-write) are ignored; an undecodable checkpoint is
// an error, not a silent skip, because dropping a job's record would
// silently lose submitted work.
func readCheckpoints(dir string) ([]*checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: scan %s: %w", dir, err)
	}
	var cps []*checkpoint
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("jobs: read checkpoint %s: %w", name, err)
		}
		cp := &checkpoint{}
		if err := json.Unmarshal(data, cp); err != nil {
			return nil, fmt.Errorf("jobs: decode checkpoint %s: %w", name, err)
		}
		cps = append(cps, cp)
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].Seq < cps[j].Seq })
	return cps, nil
}
