// Package trace writes structured simulation events (acceptances, stalls,
// completion) as JSON Lines, for the CLI tools and for post-run analysis.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Event is one timestamped simulation occurrence.
type Event struct {
	Slot  int    `json:"slot"`
	Node  int32  `json:"node,omitempty"`
	Kind  string `json:"kind"`
	Value int32  `json:"value,omitempty"`
}

// Event kinds emitted by the tools.
const (
	KindAccept = "accept"
	KindStall  = "stall"
	KindDone   = "done"
)

// JSONL streams events as JSON Lines to a writer.
type JSONL struct {
	enc *json.Encoder
	n   int
}

// NewJSONL returns a JSONL writer on w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Record writes one event as a line.
func (j *JSONL) Record(e Event) error {
	if err := j.enc.Encode(e); err != nil {
		return fmt.Errorf("trace: encoding event: %w", err)
	}
	j.n++
	return nil
}

// Count returns the number of events written.
func (j *JSONL) Count() int { return j.n }
